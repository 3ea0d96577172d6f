package main

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	superfw "repro"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/serve"
)

// config is one run of one workload.
type config struct {
	w       *workload
	seed    int64
	seconds float64 // measured window, shared out among the phases
	trace   bool    // the traced pass: per-layer metrics instead of end-to-end ones
	tiny    bool    // few-hundred-vertex graphs (smoke test)
	fixed   bool    // exact repetition and round counts instead of time budgets
	workDir string  // state directories live here
	outDir  string  // trace files go here
}

// Shares of the measured window per phase (untraced pass).
const (
	shareFactor  = 0.10
	shareSolve   = 0.10
	shareBoot    = 0.20
	shareTraffic = 0.60
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"` // samples behind the value
}

// result is what one run reports.
type result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Trace     bool              `json:"trace"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"ops_attempted"`
	Failed    int               `json:"ops_failed"`
	Metrics   map[string]metric `json:"metrics"`
	Ops       map[string]int    `json:"ops"` // script ops executed per kind
	Errors    []string          `json:"errors,omitempty"`
}

// env is what set-up produces: the inputs and the running system.
type env struct {
	dir    string
	g      *graph.Graph
	orc    *oracle
	script *script
	tmpl   string // primed state dir: checkpoint + journaled batches
	sys    *system
	cl     *client
	gen0   uint64 // generation the system serves before any update
}

func (e *env) close() {
	if e.cl != nil {
		e.cl.close()
	}
	if e.sys != nil {
		e.sys.close()
	}
	os.RemoveAll(e.dir)
}

// runner carries one run's state through the phases.
type runner struct {
	cfg  config
	tr   *tracer
	root int
	res  *result
	lat  [numOpKinds][]float64 // timed latencies, microseconds
	wall time.Duration         // timed traffic wall time
	ops  int                   // timed ops
	hits core.CacheStats       // label-cache counters summed over generations
	seq  int
	t0   time.Time // start of the measured window (after set-up)
}

func (r *runner) set(name string, v float64, unit string, n int) {
	r.res.Metrics[name] = metric{Value: v, Unit: unit, N: n}
}

func (r *runner) fail(err error) {
	r.res.Failed++
	if len(r.res.Errors) < 5 {
		r.res.Errors = append(r.res.Errors, err.Error())
	}
}

// budget is a phase's share of the measured window (zero in fixed
// mode, where only the minimum repetitions run).
func (r *runner) budget(share float64) time.Duration {
	if r.cfg.fixed {
		return 0
	}
	return time.Duration(share * r.cfg.seconds * float64(time.Second))
}

// repeat calls fn at least min times, then for as long as another call
// of the last one's length fits the budget, and returns the seconds
// each call reports for its timed part. Each call starts on a
// collected heap, so one repetition's garbage is not the next one's GC
// work.
func repeat(min int, budget time.Duration, fn func() (time.Duration, error)) ([]float64, error) {
	var secs []float64
	start := time.Now()
	var last time.Duration
	for len(secs) < min || time.Since(start)+last < budget {
		runtime.GC()
		t0 := time.Now()
		d, err := fn()
		if err != nil {
			return nil, err
		}
		last = time.Since(t0)
		secs = append(secs, d.Seconds())
	}
	return secs, nil
}

func (r *runner) tempDir(kind string) string {
	r.seq++
	return filepath.Join(r.cfg.workDir, fmt.Sprintf("%s-%d-%s%d", r.cfg.w.name, os.Getpid(), kind, r.seq))
}

// runWorkload runs the five phases of one workload and reports either
// the end-to-end metrics (untraced) or the per-layer ones (traced).
func runWorkload(cfg config) (*result, error) {
	r := &runner{cfg: cfg, res: &result{
		Workload: cfg.w.name, Seed: cfg.seed, Trace: cfg.trace,
		Metrics: map[string]metric{}, Ops: map[string]int{},
	}}
	if cfg.trace {
		r.tr = newTracer(cfg.w.name)
	}
	r.root = r.tr.begin("run", -1)

	e, err := r.setup()
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer e.close()
	r.t0 = time.Now()

	if cfg.trace {
		if err := r.layers(e); err != nil {
			return nil, fmt.Errorf("layer probes: %w", err)
		}
	} else {
		if err := r.build(e, "factor_s", shareFactor, func(p *superfw.Plan) error {
			f, err := superfw.NewFactor(p, 0)
			sink = float64(f.N())
			return err
		}); err != nil {
			return nil, err
		}
		if err := r.boot(e); err != nil {
			return nil, err
		}
	}
	r.traffic(e)
	// Read before the dense-solve phase: its n² matrix is not part of
	// the service and would mask the footprint of everything that is.
	rss := rssPeakMB()
	if !cfg.trace {
		r.set("rss_peak_mb", rss, "MB", 1)
		if err := r.build(e, "solve_s", shareSolve, func(p *superfw.Plan) error {
			res, err := p.Solve()
			if err == nil {
				sink = res.At(0, e.g.N-1)
			}
			return err
		}); err != nil {
			return nil, err
		}
	}

	sp := r.tr.begin("verify", r.root)
	wrong, first := e.orc.verify()
	r.tr.end(sp, map[string]float64{"samples": float64(len(e.orc.samples)), "wrong": float64(wrong)})
	if wrong > 0 {
		r.res.Failed += wrong
		r.res.Errors = append(r.res.Errors, fmt.Sprintf("%d sampled answers disagree with the oracle, first: %s", wrong, first))
	}
	r.res.Correct = r.res.Failed == 0
	r.tr.end(r.root, nil)
	if cfg.trace {
		if _, err := r.tr.write(cfg.outDir); err != nil {
			return nil, err
		}
	}
	return r.res, nil
}

// setup generates the graph and the oracle, primes the state
// directory a warm boot recovers from, and deploys the system. The
// untraced pass runs it five times (its fsyncs make single set-ups
// vary by a factor of two), keeps the last product and reports the
// median time.
func (r *runner) setup() (*env, error) {
	reps := 5
	if r.cfg.fixed || r.cfg.trace {
		reps = 1
	}
	var secs []float64
	var e *env
	for i := 0; i < reps; i++ {
		if e != nil {
			e.close()
		}
		t0 := time.Now()
		var err error
		if e, err = r.setupOnce(); err != nil {
			return nil, err
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	if !r.cfg.trace {
		r.set("setup_s", median(secs), "s", len(secs))
	}
	return e, nil
}

func (r *runner) setupOnce() (e *env, err error) {
	w := r.cfg.w
	sp := r.tr.begin("setup", r.root)
	defer func() { r.tr.end(sp, nil) }()
	e = &env{dir: r.tempDir("env")}
	defer func() {
		if err != nil {
			e.close()
		}
	}()

	gs := r.tr.begin("gen.build", sp)
	t0 := time.Now()
	e.g = w.graph(r.cfg.tiny)
	genS := time.Since(t0).Seconds()
	r.tr.end(gs, map[string]float64{"n": float64(e.g.N), "m": float64(e.g.M())})
	if r.cfg.trace {
		r.set("gen.build_s", genS, "s", 1)
	}
	e.orc = newOracle(e.g, r.cfg.seed)
	e.script = newScript(w, e.g, r.cfg.seed)

	// Prime: a cold boot leaves the checkpoint, then the journal gets
	// the batches a warm boot will replay.
	ps := r.tr.begin("setup.prime", sp)
	e.tmpl = filepath.Join(e.dir, "template")
	d, err := serve.OpenDurable(bg, e.g, serve.DurableOptions{Dir: e.tmpl, Logger: quiet})
	if err != nil {
		return nil, err
	}
	gen := d.BootGeneration()
	journaled := newScript(w, e.g, r.cfg.seed+1)
	for i := 0; i < w.bootBatches; i++ {
		batch, _ := journaled.drawEdges(w.bootEdges, 0.5, 1.0)
		if err := d.AppendCommitted(gen, gen+1, batch); err != nil {
			d.Close()
			return nil, err
		}
		gen++
	}
	if err := d.Close(); err != nil {
		return nil, err
	}
	r.tr.end(ps, nil)

	ds := r.tr.begin("setup.deploy", sp)
	e.sys, err = deploy(w, e.g, filepath.Join(e.tmpl, serve.CheckpointFile), filepath.Join(e.dir, "live"))
	if err != nil {
		return nil, err
	}
	e.cl = newClient(e.sys.url)
	if _, err := e.cl.do(&op{path: "/readyz"}); err != nil {
		return nil, err
	}
	e.gen0 = e.sys.nodes[0].srv.Metrics().Generation
	r.tr.end(ds, nil)
	return e, nil
}

// build times graph -> plan -> numeric (a factor or a dense solve).
func (r *runner) build(e *env, name string, share float64, numeric func(*superfw.Plan) error) error {
	secs, err := repeat(5, r.budget(share), func() (time.Duration, error) {
		t0 := time.Now()
		plan, err := superfw.NewPlan(e.g, superfw.DefaultOptions())
		if err == nil {
			err = numeric(plan)
		}
		return time.Since(t0), err
	})
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	r.set(name, median(secs), "s", len(secs))
	return nil
}

// boot times a warm restart: recover a copy of the primed state
// directory (checkpoint + journaled batches), build the server, start
// listening, first 200 from /readyz.
func (r *runner) boot(e *env) error {
	secs, err := repeat(3, r.budget(shareBoot), func() (time.Duration, error) {
		dir := r.tempDir("boot")
		defer os.RemoveAll(dir)
		if err := copyDir(e.tmpl, dir); err != nil {
			return 0, err
		}
		t0 := time.Now()
		n, err := bootNode(e.g, dir, r.cfg.w.cacheSize, nil)
		if err != nil {
			return 0, err
		}
		defer n.close()
		resp, err := http.Get(n.ln.url + "/readyz")
		d := time.Since(t0)
		if err != nil {
			return 0, err
		}
		resp.Body.Close()
		http.DefaultClient.CloseIdleConnections()
		if resp.StatusCode != http.StatusOK {
			return 0, fmt.Errorf("/readyz answered %d", resp.StatusCode)
		}
		if !n.durable.WarmBoot() {
			return 0, fmt.Errorf("the primed checkpoint was not restored")
		}
		return d, nil
	})
	if err != nil {
		return fmt.Errorf("boot_s: %w", err)
	}
	r.set("boot_s", median(secs), "s", len(secs))
	return nil
}

// traffic drives the op script through the single closed-loop client:
// an untimed warm-up, then timed rounds until the budget is spent. In
// the traced pass every second round records a span per op, so the
// two halves give the tracing overhead.
func (r *runner) traffic(e *env) {
	sp := r.tr.begin("traffic", r.root)
	budget := r.budget(shareTraffic)
	if r.cfg.trace {
		// The probes took what they took; traffic gets the rest of the
		// window, and no less than a fifth of it.
		budget = max(r.budget(1)-time.Since(r.t0), r.budget(0.2))
	}
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)

	warm := time.Now()
	for i := 0; i == 0 || time.Since(warm) < budget/20; i++ {
		r.round(e, nil, -1, false)
	}
	var traced, plain struct {
		ops  int
		wall time.Duration
	}
	var last time.Duration
	for i := 0; i < 4 || r.wall+last < budget; i++ {
		tr := r.tr
		if i/2%2 == 0 {
			tr = nil // rounds go in pairs, so both halves see both kinds of alternating update
		}
		n, d := r.round(e, tr, sp, true)
		last = d
		if tr != nil {
			traced.ops, traced.wall = traced.ops+n, traced.wall+d
		} else {
			plain.ops, plain.wall = plain.ops+n, plain.wall+d
		}
	}
	st := e.sys.cacheStats()
	r.hits.Hits += st.Hits
	r.hits.Misses += st.Misses
	r.tr.end(sp, map[string]float64{"ops": float64(r.ops), "cache_hits": float64(r.hits.Hits), "cache_misses": float64(r.hits.Misses)})

	if !r.cfg.trace {
		r.set("dist_p50_us", median(r.lat[opDist]), "us", len(r.lat[opDist]))
		r.set("dist_p99_us", percentile(r.lat[opDist], 0.99), "us", len(r.lat[opDist]))
		r.set("batch_p50_us", median(r.lat[opBatch]), "us", len(r.lat[opBatch]))
		r.set("sssp_p50_us", median(r.lat[opSSSP]), "us", len(r.lat[opSSSP]))
		r.set("update_p50_ms", median(r.lat[opUpdate])/1e3, "ms", len(r.lat[opUpdate]))
		r.set("ops_per_s", float64(r.ops)/r.wall.Seconds(), "1/s", r.ops)
		return
	}
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	r.set("go.alloc_mb_traffic", float64(ms1.TotalAlloc-ms0.TotalAlloc)/(1<<20), "MB", 1)
	r.set("go.gc_pause_ms", float64(ms1.PauseTotalNs-ms0.PauseTotalNs)/1e6, "ms", int(ms1.NumGC-ms0.NumGC))
	r.set("core.cache_hit_ratio", r.hits.HitRate(), "ratio", int(r.hits.Hits+r.hits.Misses))
	r.set("core.cache_size", float64(st.Size), "count", 1)
	rate := func(ops int, d time.Duration) float64 { return float64(ops) / d.Seconds() }
	r.afterTraffic(e)
	r.set("trace.overhead_frac", rate(plain.ops, plain.wall)/rate(traced.ops, traced.wall)-1, "ratio", traced.ops)
	for k := opKind(0); k < numOpKinds; k++ {
		v, pct := tail(r.lat[k])
		unit, div := "us", 1.0
		if k == opUpdate {
			unit, div = "ms", 1e3
		}
		r.set(opNames[k]+"_tail_"+unit, v/div, unit, len(r.lat[k]))
		r.set(opNames[k]+"_tail_pct", 100*pct, "%", len(r.lat[k]))
	}
}

// round runs one round of the script and returns its op count and wall
// time. Only timed rounds feed the latency samples.
func (r *runner) round(e *env, tr *tracer, parent int, timed bool) (int, time.Duration) {
	ops := e.script.round()
	t0 := time.Now()
	for i := range ops {
		o := &ops[i]
		var before core.CacheStats
		if o.kind == opUpdate {
			before = e.sys.cacheStats()
		}
		sp := tr.begin("op."+opNames[o.kind], parent)
		lat, err := e.cl.run(o, e.orc, e.gen0)
		tr.end(sp, nil)
		r.res.Attempted++
		r.res.Ops[opNames[o.kind]]++
		if err != nil {
			r.fail(err)
			continue
		}
		if o.kind == opUpdate {
			// The committed update swapped in fresh label caches.
			r.hits.Hits += before.Hits
			r.hits.Misses += before.Misses
		}
		if timed {
			r.lat[o.kind] = append(r.lat[o.kind], float64(lat)/1e3)
		}
	}
	d := time.Since(t0)
	if timed {
		r.ops += len(ops)
		r.wall += d
	}
	return len(ops), d
}
