package main

import (
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/order"
	"repro/internal/part"
	"repro/internal/semiring"
	"repro/internal/serve"
	"repro/internal/symbolic"
	"repro/internal/wal"
)

// probes carries the traced pass's decomposed calls: each helper
// records spans under one parent and hands back the timings.
type probes struct {
	r      *runner
	parent int
	reps   int   // repetitions of a call that takes milliseconds or more
	many   int   // repetitions of a call that takes microseconds
	err    error // first error any probed call returned
}

// each times fn once per repetition, one span per call, and returns the
// median in seconds. The first error a call returns sticks in p.err;
// callers check it before they use what the calls produced.
func (p *probes) each(name string, n int, fn func(i int) error) float64 {
	secs := make([]float64, n)
	for i := range secs {
		sp := p.r.tr.begin(name, p.parent)
		t0 := time.Now()
		err := fn(i)
		secs[i] = time.Since(t0).Seconds()
		p.r.tr.end(sp, nil)
		if err != nil && p.err == nil {
			p.err = fmt.Errorf("%s: %w", name, err)
		}
	}
	return median(secs)
}

// loop times n back-to-back calls under one span (for calls too short
// to carry a span each) and returns the mean in seconds.
func (p *probes) loop(name string, n int, fn func(i int)) float64 {
	sp := p.r.tr.begin(name, p.parent)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	d := time.Since(t0).Seconds()
	p.r.tr.end(sp, map[string]float64{"calls": float64(n)})
	return d / float64(n)
}

// layers is the build and boot phases taken apart: every layer's
// public functions are called on the workload's own graph, keys and
// batches, one span per call. It runs only in the traced pass.
func (r *runner) layers(e *env) error {
	sp := r.tr.begin("layers", r.root)
	defer func() { r.tr.end(sp, nil) }()
	p := &probes{r: r, parent: sp, reps: 3, many: 2000}
	if r.cfg.fixed {
		p.reps, p.many = 1, 200
	}
	g := e.g
	keys := newScript(r.cfg.w, g, r.cfg.seed+2) // same distributions, own stream
	threads := runtime.GOMAXPROCS(0)

	// part / order / symbolic: the steps NewPlan runs for OrderND.
	r.set("part.bisect_s", p.each("part.VertexSeparator", p.reps, func(int) error {
		sink = float64(part.VertexSeparator(g, part.Options{Seed: int64(g.N)}).Sizes[2])
		return nil
	}), "s", p.reps)
	var ord order.Ordering
	r.set("order.nd_s", p.each("order.NestedDissection", p.reps, func(int) error {
		ord = order.NestedDissection(g, order.NDOptions{LeafSize: 64})
		return nil
	}), "s", p.reps)
	r.set("symbolic.s", p.each("symbolic.FromTree", p.reps, func(int) error {
		sink = float64(g.Permute(ord.Perm).N + symbolic.FromTree(ord.Tree, g.N, 128).NumSupernodes())
		return nil
	}), "s", p.reps)

	var plan *core.Plan
	r.set("core.plan_s", p.each("core.NewPlan", p.reps, func(int) (err error) {
		plan, err = core.NewPlan(g, core.DefaultOptions())
		return err
	}), "s", p.reps)
	if p.err != nil {
		return p.err
	}
	st := plan.Stats()
	r.set("order.topsep", float64(st.TopSep), "count", 1)
	r.set("order.planned_ops", float64(st.PlannedOps), "count", 1)
	r.set("order.etree_levels", float64(st.EtreeLevels), "count", 1)
	r.set("symbolic.supernodes", float64(st.Supernodes), "count", 1)
	r.set("symbolic.median_block", float64(st.MedianBlock), "count", 1)

	// core numeric, with the semiring counters read around the last call
	// (the first one also fills the kernels' pack-buffer pool).
	var f *core.Factor
	var kd semiring.KernelCounters
	numeric := p.each("core.NewFactor", p.reps, func(int) (err error) {
		k0 := semiring.ReadKernelCounters()
		f, err = core.NewFactor(plan, threads)
		kd = semiring.ReadKernelCounters().Sub(k0)
		return err
	})
	if p.err != nil {
		return p.err
	}
	r.set("core.factor_numeric_s", numeric, "s", p.reps)
	r.set("core.factor_bytes", float64(f.Memory()), "B", 1)
	r.set("semiring.calls", float64(kd.Calls), "count", 1)
	r.set("semiring.fused_ops", float64(kd.FusedOps), "count", 1)
	r.set("semiring.dense_ratio", ratio(float64(kd.DenseCalls), float64(kd.Calls)), "ratio", int(kd.Calls))
	r.set("semiring.packed_bytes", float64(kd.PackedBytes), "B", 1)
	r.set("semiring.packed_reuse_bytes", float64(kd.PackedReuseBytes), "B", 1)
	r.set("semiring.diag_s", float64(kd.DiagNS)/1e9, "s", 1)
	r.set("semiring.panel_s", float64(kd.PanelNS)/1e9, "s", 1)
	r.set("semiring.outer_s", float64(kd.OuterNS)/1e9, "s", 1)
	r.set("semiring.factor_gops", float64(kd.FusedOps)/numeric/1e9, "Gop/s", 1)

	if threads > 1 {
		serial := p.each("core.NewFactor.1thread", p.reps, func(int) error {
			_, err := core.NewFactor(plan, 1)
			return err
		})
		r.set("par.factor_scaling", serial/numeric, "ratio", p.reps)
	} else {
		r.set("par.factor_scaling", 1, "ratio", 0)
	}
	solveReps := (p.reps + 1) / 2
	r.set("core.solve_numeric_s", p.each("core.Plan.Solve", solveReps, func(int) error {
		res, err := plan.Solve()
		if err == nil {
			sink = res.At(0, g.N-1)
		}
		return err
	}), "s", solveReps)
	runtime.GC()

	r.gemm(p)

	// core query: labels, meets, point and row queries on the script's
	// keys. The key set is small enough to stay in every workload's
	// label cache, so the cached probes (here and in serve) are warm.
	verts := make([]int, p.many/10)
	for i := range verts {
		verts[i] = keys.vertex()
	}
	other := func(i int) int { return verts[(i*7+1)%len(verts)] }
	labels := make([]*core.Label, len(verts))
	width := 0
	r.set("core.label_build_us", 1e6*p.each("core.ComputeLabel", len(verts), func(i int) error {
		labels[i] = f.ComputeLabel(verts[i])
		width += len(labels[i].To)
		return nil
	}), "us", len(verts))
	r.set("core.label_len", float64(width)/float64(len(verts)), "count", len(verts))
	r.set("core.meet_ns", 1e9*p.loop("core.MeetLabels", 10*p.many, func(i int) {
		sink = f.MeetLabels(labels[i%len(labels)], labels[(i*7+1)%len(labels)])
	}), "ns", 10*p.many)
	cold := len(verts) / 4
	r.set("core.dist_cold_us", 1e6*p.each("core.Factor.Dist", cold, func(i int) error {
		sink = f.Dist(verts[i], other(i))
		return nil
	}), "us", cold)
	cache := core.NewLabelCache(f, 0)
	p.loop("core.LabelCache.warm", len(verts), func(i int) { cache.Label(verts[i]) })
	r.set("core.dist_cached_us", 1e6*p.loop("core.LabelCache.Dist", p.many, func(i int) {
		sink = cache.Dist(verts[i%len(verts)], other(i))
	}), "us", p.many)
	row := make([]float64, g.N)
	ssspN := p.many / 40
	r.set("core.sssp_us", 1e6*p.each("core.SSSPInto", ssspN, func(i int) error {
		f.SSSPInto(verts[i], row)
		return nil
	}), "us", ssspN)

	// core update / io: the script's batches through the updater, and
	// the checkpoint a warm boot restores.
	batches := make([]*core.UpdateBatch, p.reps+1)
	raw := make([][]core.EdgeDelta, len(batches))
	for i := range batches {
		raw[i] = keys.updateBatch()
		batches[i] = core.NewUpdateBatch()
		for _, d := range raw[i] {
			if err := batches[i].Set(d.U, d.V, d.W); err != nil {
				return err
			}
		}
	}
	up, err := core.NewFactorUpdater(g, f, core.UpdaterOptions{})
	if err != nil {
		return err
	}
	dirty, rebuilds := 0.0, 0
	r.set("core.patch_ms", 1e3*p.each("core.FactorUpdater.Apply", len(batches), func(i int) error {
		pt, err := up.Apply(bg, batches[i])
		if err != nil {
			return err
		}
		dirty += pt.Stats.DirtyFraction
		if pt.Stats.FullRebuild {
			rebuilds++
		}
		return nil
	}), "ms", len(batches))
	r.set("core.dirty_fraction", dirty/float64(len(batches)), "ratio", len(batches))
	r.set("core.full_rebuilds", float64(rebuilds), "count", len(batches))

	dir := r.tempDir("probe")
	defer os.RemoveAll(dir)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	ckpt := filepath.Join(dir, "probe.ckpt")
	meta := core.CheckpointMeta{Generation: 1, GraphDigest: core.GraphDigest(g)}
	r.set("core.ckpt_save_s", p.each("core.SaveFactorFileMeta", p.reps, func(int) error {
		return core.SaveFactorFileMeta(ckpt, f, meta)
	}), "s", p.reps)
	r.set("core.ckpt_load_s", p.each("core.LoadFactorFileMeta", p.reps, func(int) error {
		_, _, err := core.LoadFactorFileMeta(ckpt)
		return err
	}), "s", p.reps)
	if p.err != nil {
		return p.err
	}
	fi, err := os.Stat(ckpt)
	if err != nil {
		return err
	}
	r.set("core.ckpt_bytes", float64(fi.Size()), "B", 1)

	if err := r.walProbes(p, dir, raw[0]); err != nil {
		return err
	}
	if err := r.serveProbes(p, e, dir, keys, verts, raw); err != nil {
		return err
	}
	return p.err
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// gemm probes MinPlusMulAdd at 512³ on three operand densities and the
// machine's copy bandwidth in the same run, so each rate can be read
// against the memory ceiling. Rates count 2n³ nominal operations.
func (r *runner) gemm(p *probes) {
	const n = 512
	rng := rand.New(rand.NewSource(512))
	operand := func(density float64) semiring.Mat {
		m := semiring.NewInfMat(n, n)
		for i := range m.Data {
			if rng.Float64() < density {
				m.Data[i] = rng.Float64()*10 + 0.01
			}
		}
		return m
	}
	for _, c := range []struct {
		name    string
		density float64
	}{{"semiring.gemm_dense_gops", 1.0}, {"semiring.gemm_mid_gops", 0.5}, {"semiring.gemm_sparse_gops", 0.05}} {
		A, B, C0 := operand(c.density), operand(c.density), operand(c.density)
		C := C0.Clone()
		best := 0.0
		p.each("semiring.MinPlusMulAdd", p.reps+1, func(i int) error {
			C.Copy(C0)
			t0 := time.Now()
			semiring.MinPlusMulAdd(C, A, B)
			if g := 2 * n * n * n / time.Since(t0).Seconds() / 1e9; i > 0 && g > best {
				best = g // call 0 warms the pack pool
			}
			return nil
		})
		r.set(c.name, best, "Gop/s", p.reps)
	}
	if r.cfg.tiny {
		r.set("machine.stream_gbs", 0, "GB/s", 0) // half a second of page faults has no place in a smoke test
		return
	}
	sp := r.tr.begin("machine.stream", p.parent)
	gbs, mb := streamBandwidth()
	r.tr.end(sp, map[string]float64{"array_mb": mb, "llc_mb": float64(llcBytes()) / (1 << 20)})
	r.set("machine.stream_gbs", gbs, "GB/s", 3)
}

// walProbes times the journal alone: durable and non-durable appends
// of one of the script's batches, and opening a 1000-record journal.
func (r *runner) walProbes(p *probes, dir string, batch []core.EdgeDelta) error {
	rec := wal.Record{Edges: make([]wal.Edge, len(batch))}
	for i, d := range batch {
		rec.Edges[i] = wal.Edge{U: d.U, V: d.V, W: d.W}
	}
	// appends times n appends to a fresh journal in dir/sub and returns
	// the median in microseconds and the bytes one record takes.
	appends := func(name, sub string, noSync bool, n int) (us, bytes float64, err error) {
		j, err := wal.Open(filepath.Join(dir, sub), wal.Options{NoSync: noSync})
		if err != nil {
			return 0, 0, err
		}
		us = 1e6 * p.each(name, n, func(i int) error {
			rec.From, rec.Gen = uint64(i+1), uint64(i+2)
			return j.Append(rec)
		})
		bytes = float64(j.Stats().Bytes) / float64(n)
		return us, bytes, j.Close()
	}
	syncN := p.many / 40
	us, _, err := appends("wal.Append", "wal-sync", false, syncN)
	if err != nil {
		return err
	}
	r.set("wal.append_us", us, "us", syncN)

	const replayed = 1000
	us, bytes, err := appends("wal.Append.nosync", "wal-nosync", true, replayed)
	if err != nil {
		return err
	}
	r.set("wal.append_nosync_us", us, "us", replayed)
	r.set("wal.bytes_per_batch", bytes, "B", replayed)
	r.set("wal.open_replay_ms", 1e3*p.each("wal.Open", p.reps, func(int) error {
		j, err := wal.Open(filepath.Join(dir, "wal-nosync"), wal.Options{NoSync: true})
		if err != nil {
			return err
		}
		defer j.Close()
		if chain, ok := j.ChainFrom(1); !ok || len(chain) != replayed {
			return fmt.Errorf("journal replays %d of %d records", len(chain), replayed)
		}
		return nil
	}), "ms", p.reps)
	return nil
}

// serveProbes times the HTTP handlers without a socket, the same
// requests over loopback, and (sharded workloads) the same requests
// through the coordinator, on systems of their own so the traffic
// system stays at its generation. Point queries use the small key set
// on a warm label cache: what is timed is the serving layer, not the
// label build core.label_build_us already covers.
func (r *runner) serveProbes(p *probes, e *env, dir string, keys *script, verts []int, batches [][]core.EdgeDelta) error {
	w := r.cfg.w
	ckpt := filepath.Join(e.tmpl, serve.CheckpointFile)
	n, err := bootFromCheckpoint(e.g, ckpt, filepath.Join(dir, "node"), w.cacheSize, nil)
	if err != nil {
		return err
	}
	defer n.close()

	dists := make([]op, p.many)
	for i := range dists {
		u, v := verts[i%len(verts)], verts[(i*7+1)%len(verts)]
		dists[i] = op{kind: opDist, path: fmt.Sprintf("/dist?u=%d&v=%d", u, v)}
	}
	few := p.many / 40
	rows, pairs := make([]op, few), make([]op, few)
	for i := range rows {
		rows[i], pairs[i] = keys.op(opSSSP), keys.op(opBatch)
	}
	updates := make([]op, len(batches))
	for i, b := range batches {
		updates[i] = op{kind: opUpdate, path: "/admin/update", body: mustJSON(map[string]any{"edges": b})}
	}

	h := n.srv.Handler()
	bytesOut := 0
	handler := func(ops []op) func(i int) error {
		return func(i int) error {
			method, body := ops[i].request()
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(method, ops[i].path, body))
			bytesOut = rec.Body.Len()
			if rec.Code != http.StatusOK {
				return fmt.Errorf("%s: HTTP %d", ops[i].path, rec.Code)
			}
			return nil
		}
	}
	over := func(c *client, ops []op) func(i int) error {
		return func(i int) error {
			_, err := c.do(&ops[i])
			return err
		}
	}
	p.each("serve.Handler.dist.warm", len(verts), handler(dists))
	handlerDist := 1e6 * p.each("serve.Handler.dist", len(dists), handler(dists))
	r.set("serve.handler_dist_us", handlerDist, "us", len(dists))
	r.set("serve.handler_batch_us", 1e6*p.each("serve.Handler.batch", few, handler(pairs)), "us", few)
	r.set("serve.handler_sssp_us", 1e6*p.each("serve.Handler.sssp", few, handler(rows)), "us", few)
	r.set("serve.sssp_bytes", float64(bytesOut), "B", 1)

	cl := newClient(n.ln.url)
	defer cl.close()
	loopDist := 1e6 * p.each("loopback.dist", len(dists), over(cl, dists))
	r.set("serve.wire_dist_us", loopDist-handlerDist, "us", len(dists))
	// Updates last: they swap the label cache the reads above warmed.
	handlerUpdate := 1e3 * p.each("serve.Handler.update", len(updates), handler(updates))
	r.set("serve.handler_update_ms", handlerUpdate, "ms", len(updates))

	// No coordinator in an unsharded workload: the hop costs nothing.
	r.set("shard.hop_dist_us", 0, "us", 0)
	r.set("shard.gather_batch_us", 0, "us", 0)
	r.set("shard.update_fanout_ms", 0, "ms", 0)
	if !w.sharded || p.err != nil {
		return p.err
	}
	sys, err := deploy(w, e.g, ckpt, filepath.Join(dir, "sharded"))
	if err != nil {
		return err
	}
	defer sys.close()
	direct, coord := newClient(sys.nodes[0].ln.url), newClient(sys.url)
	defer direct.close()
	defer coord.close()
	p.each("shard.forward.dist.warm", len(verts), over(coord, dists)) // both workers' caches,
	p.each("worker.dist.warm", len(verts), over(direct, dists))       // on both paths
	directDist := 1e6 * p.each("worker.dist", len(dists), over(direct, dists))
	coordDist := 1e6 * p.each("shard.forward.dist", len(dists), over(coord, dists))
	r.set("shard.hop_dist_us", coordDist-directDist, "us", len(dists))
	directBatch := 1e6 * p.each("worker.batch", few, over(direct, pairs))
	coordBatch := 1e6 * p.each("shard.gather.batch", few, over(coord, pairs))
	r.set("shard.gather_batch_us", coordBatch-directBatch, "us", few)
	coordUpdate := 1e3 * p.each("shard.update", len(updates), over(coord, updates))
	r.set("shard.update_fanout_ms", coordUpdate-handlerUpdate, "ms", len(updates))
	return p.err
}

// afterTraffic reads the counters the serving layers keep themselves,
// at the boundary where the traffic phase ended.
func (r *runner) afterTraffic(e *env) {
	non2xx := uint64(0)
	for _, n := range e.sys.nodes {
		for _, ep := range n.srv.Metrics().Endpoints {
			non2xx += ep.Errors
		}
	}
	skew, retries := 0.0, 0.0
	if e.sys.coord != nil {
		m := e.sys.coord.Metrics()
		for _, ep := range m.Endpoints {
			non2xx += ep.Errors
		}
		routed := make([]float64, len(m.Shards))
		total := 0.0
		for i, s := range m.Shards {
			routed[i] = float64(s.Routed)
			total += routed[i]
		}
		sort.Float64s(routed)
		skew = ratio(routed[len(routed)-1], total/float64(len(routed)))
		retries = float64(m.Gather.Retries)
	}
	r.set("serve.http_non2xx", float64(non2xx), "count", r.res.Attempted)
	r.set("shard.route_skew", skew, "ratio", 1)
	r.set("shard.retries", retries, "count", 1)
}
