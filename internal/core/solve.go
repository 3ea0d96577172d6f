package core

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/fault"
	"repro/internal/par"
	"repro/internal/semiring"
	"repro/internal/symbolic"
)

// tileSize is the row/column granularity at which panel and outer-product
// updates are split into parallel tasks. Tiles are cut deterministically
// from each supernode's own range, so two cousin eliminations sharing an
// ancestor supernode derive exactly the same ancestor tiles — which is
// what makes tile-keyed locking of A(k)×A(k) updates sound.
const tileSize = 256

// diagParallelCutoff is the diagonal-block size above which DiagUpdate
// switches from the scalar FW kernel to the parallel blocked kernel.
const diagParallelCutoff = 192

// Solve runs the numeric phase using the plan's default options and the
// graph's own edge weights. When Options.Context is set it is honored as
// the cancellation context.
func (p *Plan) Solve() (*Result, error) {
	return p.SolveCtx(p.Opts.context())
}

// SolveCtx is Solve with an explicit cancellation context: ctx is
// checked cooperatively at supernode granularity during the numeric
// phase, so a cancelled or expired context aborts the elimination
// promptly and returns ctx.Err().
func (p *Plan) SolveCtx(ctx context.Context) (*Result, error) {
	return p.solveWithCtx(ctx, p.Opts.Threads, p.Opts.EtreeParallel, nil)
}

// SolveWith runs the numeric phase with explicit parallelism controls.
func (p *Plan) SolveWith(threads int, etreeParallel bool) (*Result, error) {
	return p.solveWithCtx(p.Opts.context(), threads, etreeParallel, nil)
}

func (p *Plan) solveWithCtx(ctx context.Context, threads int, etreeParallel bool, prof *Profile) (*Result, error) {
	K := p.Opts.Semiring
	D := p.PG.ToDenseWith(K.Zero, K.One)
	return p.finish(ctx, D, threads, etreeParallel, prof)
}

// SolveInitMatrix runs the numeric phase on a caller-supplied initial
// distance matrix given in ORIGINAL vertex order. The matrix must have
// the same structural pattern as the plan's graph (finite off-diagonal
// entries only where edges exist) but its values may be asymmetric and
// negative — e.g. a potential-reweighted instance. Negative cycles are
// reported via the error and flagged on the result.
func (p *Plan) SolveInitMatrix(init semiring.Mat, threads int, etreeParallel bool) (*Result, error) {
	return p.SolveInitMatrixCtx(p.Opts.context(), init, threads, etreeParallel)
}

// SolveInitMatrixCtx is SolveInitMatrix with cooperative cancellation at
// supernode granularity.
func (p *Plan) SolveInitMatrixCtx(ctx context.Context, init semiring.Mat, threads int, etreeParallel bool) (*Result, error) {
	n := p.G.N
	if init.Rows != n || init.Cols != n {
		return nil, fmt.Errorf("core: init matrix is %d×%d, want %d×%d", init.Rows, init.Cols, n, n)
	}
	D := semiring.NewMat(n, n)
	semiring.Permute(D, init, p.Perm)
	return p.finish(ctx, D, threads, etreeParallel, nil)
}

// state bundles the matrices a numeric solve operates on and the
// semiring kernels it runs.
type state struct {
	D     semiring.Mat
	next  semiring.IntMat
	track bool
	K     *semiring.Kernels
	prof  *Profile // nil unless SolveProfiled
}

// addStage accumulates elapsed time into a stage counter when profiling.
func (s *state) addStage(counter *atomic.Int64, t0 time.Time) {
	if s.prof != nil {
		counter.Add(int64(time.Since(t0)))
	}
}

// iview returns the next-hop sub-block mirroring a distance view, or a
// zero IntMat when path tracking is off.
func (s *state) iview(i0, j0, r, c int) semiring.IntMat {
	if !s.track {
		return semiring.IntMat{}
	}
	return s.next.View(i0, j0, r, c)
}

// mul dispatches a min-plus multiply-add with or without next-hop
// maintenance.
func (s *state) mul(C, A, B semiring.Mat, nc, na semiring.IntMat) {
	if s.track {
		s.K.MulAddPaths(C, A, B, nc, na)
	} else {
		s.K.MulAdd(C, A, B)
	}
}

// mulPacked is mul against a pre-packed B panel.
func (s *state) mulPacked(C, A semiring.Mat, P *semiring.PackedPanel, nc, na semiring.IntMat) {
	if s.track {
		s.K.MulAddPathsPacked(C, A, P, nc, na)
	} else {
		s.K.MulAddPacked(C, A, P)
	}
}

// finish runs the supernodal elimination (Algorithm 3) on the permuted
// dense matrix D. A non-nil prof additionally records stage times and one
// span per supernode. It returns ctx.Err() when the context is cancelled
// mid-elimination; the partially relaxed matrix is then discarded.
func (p *Plan) finish(ctx context.Context, D semiring.Mat, threads int, etreeParallel bool, prof *Profile) (*Result, error) {
	st := &state{D: D, track: p.Opts.TrackPaths, K: p.Opts.Semiring, prof: prof}
	if st.track {
		st.next = semiring.NewIntMat(D.Rows, D.Cols)
		semiring.InitNextHops(D, st.next)
	}
	k0 := semiring.ReadKernelCounters()
	t0 := time.Now()
	step := func(k, inner int, locks *par.StripedMutex) { p.eliminateSupernode(st, k, inner, locks) }
	if prof != nil {
		step = prof.spans(p.Sn, t0, step)
	}
	if err := runSchedule(ctx, p.Sn, threads, etreeParallel, p.Opts.Schedule, step); err != nil {
		return nil, err
	}
	res := &Result{D: D, Next: st.next, Perm: p.Perm, IPerm: p.IPerm,
		NumericTime: time.Since(t0), Kernel: semiring.ReadKernelCounters().Sub(k0)}
	if prof != nil {
		prof.Kernel = res.Kernel
		prof.finish(len(p.Sn.Levels))
	}
	if st.K.DetectNegCycle && res.HasNegativeCycle() {
		return res, fmt.Errorf("core: graph contains a negative-weight cycle")
	}
	return res, nil
}

// tile is a contiguous index range plus whether it belongs to an ancestor
// supernode (needed to decide locking on outer-product targets).
type tile struct {
	lo, hi   int
	ancestor bool
}

// reachTiles returns the tiles covering R(k) \ {k}: the descendant
// range [SubLo, Lo) followed by the ancestor supernodes — all of A(k)
// under Algorithm 3's default, or only the exact block structure
// struct(k) under ExactReach. Ranges are cut into tileSize chunks
// anchored at range starts, so cousins derive identical ancestor tiles.
func (p *Plan) reachTiles(k int) []tile {
	sn := p.Sn
	var tiles []tile
	addRange := func(lo, hi int, anc bool) {
		for t := lo; t < hi; t += tileSize {
			end := t + tileSize
			if end > hi {
				end = hi
			}
			tiles = append(tiles, tile{t, end, anc})
		}
	}
	r := sn.Ranges[k]
	if sn.SubLo[k] < r.Lo {
		addRange(sn.SubLo[k], r.Lo, false)
	}
	if p.upStruct != nil {
		for _, a := range p.upStruct[k] {
			ar := sn.Ranges[a]
			addRange(ar.Lo, ar.Hi, true)
		}
		return tiles
	}
	for _, a := range sn.Ancestors(k) {
		ar := sn.Ranges[a]
		addRange(ar.Lo, ar.Hi, true)
	}
	return tiles
}

// eliminateSupernode performs the DiagUpdate, PanelUpdate and OuterUpdate
// of supernode k. locks is non-nil only when cousin eliminations run
// concurrently; it serializes writes to shared ancestor×ancestor blocks.
//
// Panel updates run in place (A(r,k) ← A(r,k) ⊕ A(r,k)⊗A(k,k) writes the
// same block it reads). This is sound because the closed diagonal block
// has a zero diagonal and min-plus relaxation is monotone: every write is
// the length of a real path (never below the true shortest distance), and
// every canonical relaxation of the textbook schedule is still applied
// with operand values ≤ the textbook's, so the result is exactly the
// textbook result. The same argument covers the blocked FW kernels.
func (p *Plan) eliminateSupernode(st *state, k, threads int, locks *par.StripedMutex) {
	fault.Inject("core.eliminate")
	sn := p.Sn
	r := sn.Ranges[k]
	s := r.Size()
	D := st.D
	Akk := D.View(r.Lo, r.Lo, s, s)

	// DiagUpdate.
	tDiag := time.Now()
	switch {
	case s >= diagParallelCutoff:
		semiring.ParallelBlockedFWKernels(Akk, st.iview(r.Lo, r.Lo, s, s), st.track, 64, threads, st.K)
	case st.track:
		st.K.FWPaths(Akk, st.next.View(r.Lo, r.Lo, s, s))
	default:
		st.K.FW(Akk)
	}
	semiring.AddPhaseTime(semiring.PhaseDiag, time.Since(tDiag))
	if st.prof != nil {
		st.addStage(&st.prof.Diag, tDiag)
	}

	tiles := p.reachTiles(k)
	if len(tiles) == 0 {
		return
	}

	// The closed diagonal block is the B operand of every column-panel
	// update, so pack it once and reuse it across all tiles. Reach tiles
	// never overlap k's own range, so no panel write touches the packed
	// snapshot.
	Pd := st.K.PackPanel(Akk)

	// PanelUpdate: for every reach tile t, the row panel A(k,t) from the
	// left and the column panel A(t,k) from the right. Next-hop sources:
	// a row-panel improvement goes via kk inside the diagonal block, so
	// the first hop comes from next(k-range, k-range); a column-panel
	// improvement's first hop comes from next(t, k-range) — the operand
	// that plays the A role in C = C ⊕ A⊗B, in both cases. Row panels
	// stay on MulAdd (their B operand is the destination itself); column
	// panels consume the packed diagonal.
	par.For(2*len(tiles), threads, 1, func(i int) {
		tPanel := time.Now()
		t := tiles[i/2]
		if i%2 == 0 {
			P := D.View(r.Lo, t.lo, s, t.hi-t.lo)
			st.mul(P, Akk, P, st.iview(r.Lo, t.lo, s, t.hi-t.lo), st.iview(r.Lo, r.Lo, s, s))
		} else {
			P := D.View(t.lo, r.Lo, t.hi-t.lo, s)
			nc := st.iview(t.lo, r.Lo, t.hi-t.lo, s)
			st.mulPacked(P, P, Pd, nc, nc)
		}
		semiring.AddPhaseTime(semiring.PhasePanel, time.Since(tPanel))
		if st.prof != nil {
			st.addStage(&st.prof.Panel, tPanel)
		}
	})
	Pd.Release()

	// OuterUpdate: A(ti,tj) ← A(ti,tj) ⊕ A(ti,k) ⊗ A(k,tj) over the full
	// reach×reach grid. Only ancestor×ancestor targets can be written by
	// concurrent cousin eliminations. The row panel A(k,tj) is the B
	// operand of the whole tj column of the grid, so with more than one
	// tile pack each once (in parallel) and reuse it nt times; outer
	// writes land on reach×reach blocks, never on k's rows, so the
	// snapshots stay valid.
	nt := len(tiles)
	var rowPacks []*semiring.PackedPanel
	if nt > 1 {
		rowPacks = make([]*semiring.PackedPanel, nt)
		par.For(nt, threads, 1, func(j int) {
			tj := tiles[j]
			rowPacks[j] = st.K.PackPanel(D.View(r.Lo, tj.lo, s, tj.hi-tj.lo))
		})
	}
	par.For(nt*nt, threads, 0, func(idx int) {
		tOuter := time.Now()
		ti, tj := tiles[idx/nt], tiles[idx%nt]
		target := D.View(ti.lo, tj.lo, ti.hi-ti.lo, tj.hi-tj.lo)
		colPanel := D.View(ti.lo, r.Lo, ti.hi-ti.lo, s)
		nc := st.iview(ti.lo, tj.lo, ti.hi-ti.lo, tj.hi-tj.lo)
		na := st.iview(ti.lo, r.Lo, ti.hi-ti.lo, s)
		mul := func() {
			rowPanel := D.View(r.Lo, tj.lo, s, tj.hi-tj.lo)
			st.mul(target, colPanel, rowPanel, nc, na)
		}
		if rowPacks != nil {
			P := rowPacks[idx%nt]
			mul = func() { st.mulPacked(target, colPanel, P, nc, na) }
		}
		if locks != nil && ti.ancestor && tj.ancestor {
			key := uint64(ti.lo)*uint64(D.Rows) + uint64(tj.lo)
			locks.Lock(key)
			mul()
			locks.Unlock(key)
		} else {
			mul()
		}
		semiring.AddPhaseTime(semiring.PhaseOuter, time.Since(tOuter))
		if st.prof != nil {
			st.addStage(&st.prof.Outer, tOuter)
		}
	})
	for _, P := range rowPacks {
		P.Release()
	}
}

// Closure is the reference dense solution: it runs the scalar
// Floyd-Warshall algorithm on a copy of the graph's dense distance
// matrix. Used as ground truth in tests.
func Closure(D semiring.Mat) semiring.Mat {
	out := D.Clone()
	semiring.FloydWarshall(out)
	return out
}

// SymbolicOnly re-exports the supernode structure for inspection tools.
func (p *Plan) SymbolicOnly() *symbolic.Supernodes { return p.Sn }
