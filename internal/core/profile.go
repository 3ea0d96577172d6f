package core

// Numeric-phase profiling: per-stage and per-supernode accounting of
// where the elimination spends its time. Understanding the DiagUpdate /
// PanelUpdate / OuterUpdate split and the schedule's load balance is how
// the paper's Fig 8 discussion reasons about etree parallelism ("small
// graphs perform very little per-iteration work").
//
// Attribution is per-supernode: every elimination records its start
// offset and duration relative to the start of the numeric phase. Level
// summaries are derived from the supernode spans, which keeps them
// meaningful under every schedule — under the level-synchronous schedule
// a level's span is the barrier-to-barrier wall time, while under the
// DAG schedule spans of adjacent levels overlap, and the difference
// between the sum of level spans and the phase wall time is exactly the
// barrier cost the DAG schedule recovered. (The one-at-a-time postorder
// interleaves levels too, but with no supernodes running concurrently
// there is no barrier wait to recover, and none is reported.)

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/par"
	"repro/internal/semiring"
	"repro/internal/symbolic"
)

// Profile accumulates stage timings during a profiled solve. Stage times
// are summed across workers, so with T threads busy they can add up to
// T× the wall time.
type Profile struct {
	Diag  atomic.Int64 // ns in diagonal FW closures
	Panel atomic.Int64 // ns in panel updates
	Outer atomic.Int64 // ns in outer-product updates
	// Supernodes records one span per eliminated supernode, ordered by
	// start offset.
	Supernodes []SupernodeProfile
	// Levels summarizes the supernode spans per etree level.
	Levels []LevelProfile
	// Kernel is the GEMM-engine counter delta spanning the profiled
	// numeric phase (see Result.Kernel for the concurrency caveat).
	Kernel semiring.KernelCounters

	mu         sync.Mutex    // guards Supernodes during the solve
	end        time.Duration // latest supernode end offset
	concurrent bool          // some supernode spans overlapped in time
}

// SupernodeProfile is the elimination span of one supernode, relative to
// the start of the numeric phase.
type SupernodeProfile struct {
	Supernode int
	Level     int
	Vertices  int
	Workers   int           // intra-supernode parallelism budget it ran with
	Start     time.Duration // offset from numeric-phase start
	Wall      time.Duration
}

// LevelProfile is the wall-clock footprint of one etree level: the span
// from its first supernode start to its last supernode end. Under the
// level-synchronous schedule this is the barrier-to-barrier wall time;
// under the DAG schedule spans of different levels overlap.
type LevelProfile struct {
	Level      int
	Supernodes int
	Vertices   int
	Wall       time.Duration
}

// spans wraps an elimination step with per-supernode span accounting
// relative to the numeric-phase start t0 (thread-safe).
func (pr *Profile) spans(sn *symbolic.Supernodes, t0 time.Time, step elimStep) elimStep {
	levelOf := sn.LevelOf()
	return func(k, inner int, locks *par.StripedMutex) {
		start := time.Since(t0)
		step(k, inner, locks)
		sp := SupernodeProfile{
			Supernode: k,
			Level:     levelOf[k],
			Vertices:  sn.Ranges[k].Size(),
			Workers:   inner,
			Start:     start,
			Wall:      time.Since(t0) - start,
		}
		pr.mu.Lock()
		pr.Supernodes = append(pr.Supernodes, sp)
		pr.mu.Unlock()
	}
}

// finish sorts the supernode spans and derives the level summaries.
func (pr *Profile) finish(numLevels int) {
	sort.Slice(pr.Supernodes, func(i, j int) bool {
		a, b := pr.Supernodes[i], pr.Supernodes[j]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		return a.Supernode < b.Supernode
	})
	pr.Levels = make([]LevelProfile, numLevels)
	first := make([]time.Duration, numLevels)
	last := make([]time.Duration, numLevels)
	for i := range pr.Levels {
		pr.Levels[i].Level = i
		first[i] = 1<<63 - 1
	}
	for _, sp := range pr.Supernodes {
		e := sp.Start + sp.Wall
		if sp.Start < pr.end {
			pr.concurrent = true
		}
		pr.end = max(pr.end, e)
		l := &pr.Levels[sp.Level]
		l.Supernodes++
		l.Vertices += sp.Vertices
		first[sp.Level] = min(first[sp.Level], sp.Start)
		last[sp.Level] = max(last[sp.Level], e)
	}
	for i := range pr.Levels {
		if pr.Levels[i].Supernodes > 0 {
			pr.Levels[i].Wall = last[i] - first[i]
		}
	}
}

// String renders the profile as a compact report.
func (pr *Profile) String() string {
	var b strings.Builder
	total := pr.Diag.Load() + pr.Panel.Load() + pr.Outer.Load()
	if total == 0 {
		total = 1
	}
	fmt.Fprintf(&b, "stage time (summed across workers): diag %v (%.0f%%), panel %v (%.0f%%), outer %v (%.0f%%)\n",
		time.Duration(pr.Diag.Load()).Round(time.Microsecond), 100*float64(pr.Diag.Load())/float64(total),
		time.Duration(pr.Panel.Load()).Round(time.Microsecond), 100*float64(pr.Panel.Load())/float64(total),
		time.Duration(pr.Outer.Load()).Round(time.Microsecond), 100*float64(pr.Outer.Load())/float64(total))
	if len(pr.Levels) > 0 {
		var sum time.Duration
		b.WriteString("etree levels (leaves first, span = first start → last end):\n")
		for _, l := range pr.Levels {
			sum += l.Wall
			fmt.Fprintf(&b, "  level %2d: %4d supernodes, %6d vertices, %10v\n",
				l.Level, l.Supernodes, l.Vertices, l.Wall.Round(time.Microsecond))
		}
		if pr.concurrent && sum > pr.end {
			// Overlapping level spans: the DAG schedule ran supernodes of
			// different levels concurrently instead of idling at
			// barriers.
			fmt.Fprintf(&b, "  level spans sum to %v over a %v phase: %v of would-be barrier wait overlapped\n",
				sum.Round(time.Microsecond), pr.end.Round(time.Microsecond), (sum - pr.end).Round(time.Microsecond))
		}
	}
	if sp, ok := pr.slowestSupernode(); ok {
		fmt.Fprintf(&b, "slowest supernode: #%d (level %d, %d vertices, %d workers) %v\n",
			sp.Supernode, sp.Level, sp.Vertices, sp.Workers, sp.Wall.Round(time.Microsecond))
	}
	if k := pr.Kernel; k.Calls > 0 {
		fmt.Fprintf(&b, "gemm kernels: %d calls (%.0f%% dense, %d shards), %d fused ops, %s packed\n",
			k.Calls, 100*k.DenseRatio(), k.ParallelShards, k.FusedOps, fmtBytes(k.PackedBytes))
	}
	if k := pr.Kernel; k.DiagNS+k.PanelNS+k.OuterNS > 0 {
		fmt.Fprintf(&b, "fused pipeline: %s pack reuse; phase footprint diag %v, panel %v, outer %v",
			fmtBytes(k.PackedReuseBytes),
			time.Duration(k.DiagNS).Round(time.Microsecond),
			time.Duration(k.PanelNS).Round(time.Microsecond),
			time.Duration(k.OuterNS).Round(time.Microsecond))
	}
	return strings.TrimRight(b.String(), "\n")
}

// fmtBytes renders a byte count with a binary-prefix unit.
func fmtBytes(b uint64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.1f GiB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(b)/(1<<10))
	}
	return fmt.Sprintf("%d B", b)
}

// slowestSupernode returns the span with the largest wall time.
func (pr *Profile) slowestSupernode() (SupernodeProfile, bool) {
	if len(pr.Supernodes) == 0 {
		return SupernodeProfile{}, false
	}
	best := pr.Supernodes[0]
	for _, sp := range pr.Supernodes[1:] {
		if sp.Wall > best.Wall {
			best = sp
		}
	}
	return best, true
}

// SolveProfiled is SolveWith plus stage/supernode accounting, run
// through the same schedule as every other solve. The accounting adds
// two clock reads per update task; for realistic supernode sizes the
// overhead is well under 1%.
func (p *Plan) SolveProfiled(threads int, etreeParallel bool) (*Result, *Profile, error) {
	prof := &Profile{}
	res, err := p.solveWithCtx(p.Opts.context(), threads, etreeParallel, prof)
	return res, prof, err
}
