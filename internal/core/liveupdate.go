package core

// Live edge updates for the supernodal factor.
//
// A served factor (internal/serve) answers queries from the O(fill)
// supernodal representation. When edge weights change, rebuilding that
// factor from scratch costs the full O(n²|S|)-work elimination; this
// file repairs it incrementally instead, exploiting the same etree
// locality the solver is built on: an edge owned by supernode k (the
// supernode of its lower permuted endpoint) appears in k's initial
// blocks only, and numeric contributions flow strictly from a supernode
// into its ancestor chain. Changing that edge can therefore dirty only
// k and its ancestors — the AncestorClosure of the owners — while every
// other supernode's blocks are provably bit-identical to a fresh
// factorization.
//
// Weight DECREASES keep the current (closed) dirty blocks, ⊕-inject the
// improved weights, and re-run the elimination of the dirty supernodes
// in place. That is sound because min-plus elimination is monotone and
// idempotent: every held value is the length of a real path that still
// exists (no undershoot), re-applying already-incorporated updates is a
// no-op, and the re-run covers every relaxation of a fresh schedule that
// involves a dirty block — so the fixpoint it reaches is the fresh
// factorization.
//
// Weight INCREASES invalidate held values, so the dirty blocks are
// reset to their fresh initial state (identity diagonal + the updated
// edge weights) and elimination is replayed through the existing DAG
// scheduler: dirty supernodes eliminate in full; clean supernodes skip
// their own (unchanged) closure and only re-scatter their outer-product
// contributions into dirty-owned targets, which the unchanged clean
// panels reproduce exactly.
//
// Both paths work on a copy-on-write clone that shares every clean
// block with the live factor, so queries keep serving the old snapshot
// until the caller atomically swaps the patched factor in; a failure
// mid-apply simply discards the clone. Past a tuned dirty-fill fraction
// — or when a new edge connects cousin subtrees, which no block of the
// current plan can host — Apply falls back to a full re-plan and
// refactorization.

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/semiring"
)

// EdgeDelta is one coalesced undirected edge-weight change in original
// vertex ids, normalized to U < V.
type EdgeDelta struct {
	U int     `json:"u"`
	V int     `json:"v"`
	W float64 `json:"w"`
}

type edgeKey struct{ u, v int }

// UpdateBatch coalesces edge-weight deltas before they are applied:
// repeated writes to the same edge keep only the last weight, so one
// batch holds at most one delta per edge no matter how bursty the
// update stream was.
type UpdateBatch struct {
	deltas map[edgeKey]float64
}

// NewUpdateBatch returns an empty batch.
func NewUpdateBatch() *UpdateBatch {
	return &UpdateBatch{deltas: map[edgeKey]float64{}}
}

// Set records the new weight of undirected edge {u, v}; later Sets of
// the same edge override earlier ones. Self-loops are an actual no-op
// (a non-negative self-loop never shortens any path), and negative
// weights are rejected — a negative undirected edge is a negative
// 2-cycle.
func (b *UpdateBatch) Set(u, v int, w float64) error {
	if u < 0 || v < 0 {
		return fmt.Errorf("core: negative vertex id in update (%d,%d)", u, v)
	}
	if math.IsNaN(w) || math.IsInf(w, 0) {
		return fmt.Errorf("core: update weight for (%d,%d) must be finite (edge removal is not supported)", u, v)
	}
	if w < 0 {
		return fmt.Errorf("core: a negative undirected edge is a negative 2-cycle")
	}
	if u == v {
		return nil
	}
	if v < u {
		u, v = v, u
	}
	b.deltas[edgeKey{u, v}] = w
	return nil
}

// Len returns the number of distinct edges in the batch.
func (b *UpdateBatch) Len() int { return len(b.deltas) }

// Edges returns the coalesced deltas in deterministic (sorted) order.
func (b *UpdateBatch) Edges() []EdgeDelta {
	out := make([]EdgeDelta, 0, len(b.deltas))
	for k, w := range b.deltas {
		out = append(out, EdgeDelta{U: k.u, V: k.v, W: w})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].U != out[j].U {
			return out[i].U < out[j].U
		}
		return out[i].V < out[j].V
	})
	return out
}

// DefaultDirtyThreshold is the dirty-fill fraction above which Apply
// stops patching and refactorizes from scratch: once the dirtied blocks
// approach the whole factor, the partial re-elimination does nearly the
// full elimination's work but sequentially over a chain-heavy DAG, so
// the clean rebuild is both simpler and faster.
const DefaultDirtyThreshold = 0.5

// UpdaterOptions tune a FactorUpdater.
type UpdaterOptions struct {
	// DirtyThreshold is the dirty-fill fraction (dirty block bytes /
	// total factor bytes) above which Apply falls back to a full
	// refactorization. <= 0 selects DefaultDirtyThreshold; >= 1
	// disables the fallback.
	DirtyThreshold float64
	// Threads bounds the re-elimination and rebuild parallelism
	// (<= 0 uses GOMAXPROCS).
	Threads int
}

// UpdateStats describes what one Apply did.
type UpdateStats struct {
	Decreases       int           `json:"decreases"`
	Increases       int           `json:"increases"`
	Unchanged       int           `json:"unchanged"`
	DirtySupernodes int           `json:"dirty_supernodes"`
	TotalSupernodes int           `json:"total_supernodes"`
	DirtyFraction   float64       `json:"dirty_fraction"`
	FullRebuild     bool          `json:"full_rebuild"`
	Replanned       bool          `json:"replanned"`
	PatchTime       time.Duration `json:"patch_ns"`
}

// Patched is the outcome of FactorUpdater.Apply: a fully patched factor
// plus everything a serving layer needs to swap it in — which cached
// labels survive, which deltas were effective (for rank-1-patching a
// dense path-tracked result), and the stats. The patch does not become
// the updater's current state until Commit.
type Patched struct {
	// Factor is the patched factor, sharing clean blocks with the
	// factor Apply ran against.
	Factor *Factor
	// StaleSupernodes[k] reports that the 2-hop labels of vertices in
	// supernode k must be recomputed (k's root path touches a dirtied
	// block). nil means every label is stale (full rebuild/replan).
	StaleSupernodes []bool
	// Decreases and Increases are the effective classified deltas; a
	// delta matching the current weight appears in neither.
	Decreases []EdgeDelta
	Increases []EdgeDelta
	Stats     UpdateStats

	edges map[edgeKey]float64 // post-apply edge weights
	base  *Factor             // factor the patch was computed against
}

// SolveRoutes densely re-solves the patched graph with path tracking —
// the fallback a /route-serving deployment needs after weight
// increases, which the rank-1 detour kernel cannot repair.
func (p *Patched) SolveRoutes(ctx context.Context, threads int) (*Result, error) {
	g, err := graphFromEdges(p.Factor.n, p.edges)
	if err != nil {
		return nil, err
	}
	opts := DefaultOptions()
	opts.TrackPaths = true
	opts.Threads = threads
	plan, err := NewPlan(g, opts)
	if err != nil {
		return nil, err
	}
	return plan.SolveCtx(ctx)
}

// FactorUpdater applies UpdateBatches to a live factor. It owns the
// authoritative edge-weight map (so successive batches compose) and the
// current committed factor. Apply is pure — it never mutates the
// updater or the factor it reads — which lets a serving layer run a
// prepare/commit protocol: compute the patch, keep answering from the
// old snapshot, then Commit and swap atomically (or drop the patch).
type FactorUpdater struct {
	mu    sync.Mutex
	f     *Factor
	edges map[edgeKey]float64
	opts  UpdaterOptions
}

// NewFactorUpdater builds an updater for factor f of graph g. Live
// updates are defined for the min-plus semiring only: classifying a
// delta as an improvement needs min-plus ordering.
func NewFactorUpdater(g *graph.Graph, f *Factor, opts UpdaterOptions) (*FactorUpdater, error) {
	if f.K != semiring.MinPlusKernels {
		return nil, fmt.Errorf("core: live updates support the min-plus semiring only")
	}
	if g.N != f.n {
		return nil, fmt.Errorf("core: graph has %d vertices, factor %d", g.N, f.n)
	}
	return &FactorUpdater{f: f, edges: edgeMapOf(g), opts: opts}, nil
}

// Factor returns the current committed factor.
func (u *FactorUpdater) Factor() *Factor {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.f
}

// Commit advances the updater to a successfully applied patch. It fails
// (leaving the updater unchanged) when the patch was computed against a
// factor that is no longer current — e.g. another update or a reload
// won the race.
func (u *FactorUpdater) Commit(p *Patched) error {
	u.mu.Lock()
	defer u.mu.Unlock()
	if p.base != u.f {
		return fmt.Errorf("core: stale patch: computed against a factor that is no longer current")
	}
	u.f = p.Factor
	u.edges = p.edges
	return nil
}

// Rebase points the updater at a freshly rebuilt factor and graph —
// the hook /admin/reload uses so updates keep composing after a reload
// discards all previously applied deltas.
func (u *FactorUpdater) Rebase(g *graph.Graph, f *Factor) error {
	if f.K != semiring.MinPlusKernels {
		return fmt.Errorf("core: live updates support the min-plus semiring only")
	}
	if g.N != f.n {
		return fmt.Errorf("core: graph has %d vertices, factor %d", g.N, f.n)
	}
	u.mu.Lock()
	defer u.mu.Unlock()
	u.f = f
	u.edges = edgeMapOf(g)
	return nil
}

// CanCommit reports (without committing) whether p would commit
// cleanly. Durable serving uses it to order the commit point: check
// staleness first, journal the batch, then Commit — which cannot fail
// anymore while the caller serializes all generation mutations.
func (u *FactorUpdater) CanCommit(p *Patched) error {
	u.mu.Lock()
	defer u.mu.Unlock()
	if p.base != u.f {
		return fmt.Errorf("core: stale patch: computed against a factor that is no longer current")
	}
	return nil
}

// OverlayAgainst diffs the updater's authoritative edge weights
// against base (the catalog graph), returning the edges whose current
// weight differs — exactly the state a v3 checkpoint needs to reseed
// an updater on warm boot. The result is sorted for determinism.
func (u *FactorUpdater) OverlayAgainst(base *graph.Graph) []EdgeDelta {
	baseMap := edgeMapOf(base)
	u.mu.Lock()
	var out []EdgeDelta
	for k, w := range u.edges {
		//lint:ignore nanguard weights are validated finite on entry; bit-exact compare is the point
		if bw, ok := baseMap[k]; !ok || bw != w {
			out = append(out, EdgeDelta{U: k.u, V: k.v, W: w})
		}
	}
	u.mu.Unlock()
	sort.Slice(out, func(a, b int) bool {
		if out[a].U != out[b].U {
			return out[a].U < out[b].U
		}
		return out[a].V < out[b].V
	})
	return out
}

// RestoreOverlay replays a checkpoint overlay into the updater's edge
// map without touching the factor — the factor restored from the same
// checkpoint already has these weights baked in. Must run before any
// Apply, so replayed journal batches classify against the true
// weights.
func (u *FactorUpdater) RestoreOverlay(overlay []EdgeDelta) error {
	u.mu.Lock()
	defer u.mu.Unlock()
	for _, d := range overlay {
		a, b := d.U, d.V
		if b < a {
			a, b = b, a
		}
		if a < 0 || b >= u.f.n || a == b {
			return fmt.Errorf("core: overlay edge (%d,%d) out of range", d.U, d.V)
		}
		if math.IsNaN(d.W) || math.IsInf(d.W, 0) || d.W < 0 {
			return fmt.Errorf("core: overlay edge (%d,%d) has invalid weight %v", d.U, d.V, d.W)
		}
		u.edges[edgeKey{a, b}] = d.W
	}
	return nil
}

// Apply computes a patched factor reflecting the batch. The current
// factor is never touched: decreases re-eliminate the dirty ancestor
// chains in place on a copy-on-write clone, increases reset and replay
// them through the DAG scheduler, and past the dirty threshold (or for
// a new edge crossing cousin subtrees) the whole factor is rebuilt.
// The result must be handed to Commit to become current.
func (u *FactorUpdater) Apply(ctx context.Context, b *UpdateBatch) (*Patched, error) {
	u.mu.Lock()
	defer u.mu.Unlock()
	if b == nil || b.Len() == 0 {
		return nil, fmt.Errorf("core: empty update batch")
	}
	t0 := time.Now()
	f := u.f
	sn := f.sn
	ns := sn.NumSupernodes()
	p := &Patched{base: f}
	p.Stats.TotalSupernodes = ns

	// Classify every coalesced delta against the current weights and
	// collect the owning supernodes of the changed edges.
	newEdges := make(map[edgeKey]float64, len(u.edges)+b.Len())
	for k, w := range u.edges {
		newEdges[k] = w
	}
	var seeds []int
	replan := false
	for _, d := range b.Edges() {
		if d.U >= f.n || d.V >= f.n {
			return nil, fmt.Errorf("core: update edge (%d,%d) out of range [0,%d)", d.U, d.V, f.n)
		}
		key := edgeKey{d.U, d.V}
		cur, exists := newEdges[key]
		switch {
		//lint:ignore nanguard batch weights are validated finite by Set, so exact equality is a safe no-op-delta test
		case exists && d.W == cur:
			p.Stats.Unchanged++
			continue
		case !exists || d.W < cur:
			p.Decreases = append(p.Decreases, d)
		default:
			p.Increases = append(p.Increases, d)
		}
		newEdges[key] = d.W
		if owner, ok := f.edgeOwner(d.U, d.V); ok {
			seeds = append(seeds, owner)
		} else {
			// The new edge connects cousin subtrees: no block of the
			// current plan can host it, so the symbolic structure itself
			// is stale.
			replan = true
		}
	}
	p.edges = newEdges
	p.Stats.Decreases, p.Stats.Increases = len(p.Decreases), len(p.Increases)
	if len(p.Decreases)+len(p.Increases) == 0 {
		p.Factor = f
		p.StaleSupernodes = make([]bool, ns)
		p.Stats.PatchTime = time.Since(t0)
		return p, nil
	}
	if replan {
		return u.fullRebuild(ctx, p, true, t0)
	}

	dirty := sn.AncestorClosure(seeds)
	var dirtyBytes, totalBytes int64
	for k, d := range dirty {
		sz := int64(len(f.diag[k].Data) + len(f.up[k].Data) + len(f.down[k].Data))
		totalBytes += sz
		if d {
			p.Stats.DirtySupernodes++
			dirtyBytes += sz
		}
	}
	p.Stats.DirtyFraction = float64(dirtyBytes) / float64(totalBytes)
	thresh := u.opts.DirtyThreshold
	if thresh <= 0 {
		thresh = DefaultDirtyThreshold
	}
	if p.Stats.DirtyFraction > thresh {
		return u.fullRebuild(ctx, p, false, t0)
	}

	nf := f.cowClone(dirty)
	increase := len(p.Increases) > 0
	if increase {
		nf.resetBlocks(dirty)
		if err := nf.scatterEdges(newEdges, dirty); err != nil {
			return nil, err
		}
	} else {
		for _, d := range p.Decreases {
			if err := nf.injectMin(d); err != nil {
				return nil, err
			}
		}
	}
	// Failpoint inside the apply window: an error (or crash) here must
	// leave the previous snapshot serving — and it does, because nf is
	// a private clone nothing else references yet.
	if err := fault.InjectErr("core.update.apply"); err != nil {
		return nil, err
	}
	if err := nf.reeliminate(ctx, dirty, increase, u.opts.Threads); err != nil {
		return nil, err
	}
	if f.K.DetectNegCycle {
		for k, d := range dirty {
			if d && semiring.HasNegativeCycle(nf.diag[k]) {
				return nil, fmt.Errorf("core: update would create a negative-weight cycle")
			}
		}
	}
	p.Factor = nf
	p.StaleSupernodes = sn.Affected(dirty)
	p.Stats.PatchTime = time.Since(t0)
	return p, nil
}

// fullRebuild is the fallback past the dirty threshold or after a
// structural (cross-cousin) insertion: re-plan the updated graph and
// refactorize from scratch. Every cached label is stale afterwards.
func (u *FactorUpdater) fullRebuild(ctx context.Context, p *Patched, replanned bool, t0 time.Time) (*Patched, error) {
	if err := fault.InjectErr("core.update.apply"); err != nil {
		return nil, err
	}
	g, err := graphFromEdges(u.f.n, p.edges)
	if err != nil {
		return nil, err
	}
	opts := DefaultOptions()
	opts.Threads = u.opts.Threads
	plan, err := NewPlan(g, opts)
	if err != nil {
		return nil, err
	}
	nf, err := NewFactorCtx(ctx, plan, u.opts.Threads)
	if err != nil {
		return nil, err
	}
	p.Factor = nf
	p.StaleSupernodes = nil
	p.Stats.FullRebuild = true
	p.Stats.Replanned = replanned
	p.Stats.PatchTime = time.Since(t0)
	return p, nil
}

// reeliminate re-runs the elimination over the dirty set: dirty
// supernodes eliminate in full; in increase (replay) mode clean
// supernodes re-scatter their outer products into dirty-owned targets.
// It runs on the factorization's own schedule, so a supernode runs only
// after its whole subtree and concurrently running supernodes are
// cousins, serialized on shared ancestor targets by the same striped
// locks.
func (f *Factor) reeliminate(ctx context.Context, dirty []bool, replay bool, threads int) error {
	touches := func(k int) bool {
		for _, a := range f.ancIDs[k] {
			if dirty[a] {
				return true
			}
		}
		return false
	}
	return runSchedule(ctx, f.sn, threads, true, ScheduleDAG, func(k, inner int, locks *par.StripedMutex) {
		switch {
		case dirty[k]:
			f.eliminate(k, inner, locks)
		case replay && touches(k):
			f.scatterOuter(k, inner, locks, dirty)
		}
	})
}

// edgeOwner returns the supernode owning edge {u, v} (original ids):
// the supernode of the lower permuted endpoint. ok is false when the
// edge connects cousin supernodes, i.e. lies outside the filled
// pattern the factor's panels cover.
func (f *Factor) edgeOwner(u, v int) (int, bool) {
	pu, pv := f.iperm[u], f.iperm[v]
	if pu > pv {
		pu, pv = pv, pu
	}
	ku, kv := f.snodeOf(pu), f.snodeOf(pv)
	if ku == kv {
		return ku, true
	}
	if _, ok := f.ancColumn(ku, kv, pv); !ok {
		return 0, false
	}
	return ku, true
}

// cowClone returns a factor sharing every clean block with f; dirty
// blocks are private copies, so f keeps serving unchanged while the
// clone is patched. Immutable structure (permutations, supernodes,
// ancestor maps) stays shared.
func (f *Factor) cowClone(dirty []bool) *Factor {
	nf := &Factor{
		n:          f.n,
		perm:       f.perm,
		iperm:      f.iperm,
		sn:         f.sn,
		K:          f.K,
		diag:       append([]semiring.Mat(nil), f.diag...),
		up:         append([]semiring.Mat(nil), f.up...),
		down:       append([]semiring.Mat(nil), f.down...),
		ancIDs:     f.ancIDs,
		ancOff:     f.ancOff,
		FactorTime: f.FactorTime,
	}
	for k, d := range dirty {
		if d {
			nf.diag[k] = f.diag[k].Clone()
			nf.up[k] = f.up[k].Clone()
			nf.down[k] = f.down[k].Clone()
		}
	}
	return nf
}

// resetBlocks restores every dirty block to the pre-elimination state:
// identity diagonal, ⊕-zero elsewhere.
func (f *Factor) resetBlocks(dirty []bool) {
	K := f.K
	for k, d := range dirty {
		if !d {
			continue
		}
		f.diag[k].Fill(K.Zero)
		for i := 0; i < f.sn.Ranges[k].Size(); i++ {
			f.diag[k].Set(i, i, K.One)
		}
		f.up[k].Fill(K.Zero)
		f.down[k].Fill(K.Zero)
	}
}

// scatterEdges writes the edge weights owned by dirty supernodes into
// the (reset) blocks — the same initial scatter NewFactorCtx performs,
// restricted to the dirty set.
func (f *Factor) scatterEdges(edges map[edgeKey]float64, dirty []bool) error {
	for key, w := range edges {
		pu, pv := f.iperm[key.u], f.iperm[key.v]
		if pu > pv {
			pu, pv = pv, pu
		}
		ku, kv := f.snodeOf(pu), f.snodeOf(pv)
		if !dirty[ku] {
			continue
		}
		lo := f.sn.Ranges[ku].Lo
		if ku == kv {
			f.diag[ku].Set(pu-lo, pv-lo, w)
			f.diag[ku].Set(pv-lo, pu-lo, w)
			continue
		}
		col, ok := f.ancColumn(ku, kv, pv)
		if !ok {
			return fmt.Errorf("core: edge (%d,%d) crosses cousin supernodes — ordering is not tree-consistent", key.u, key.v)
		}
		f.up[ku].Set(pu-lo, col, w)
		f.down[ku].Set(col, pu-lo, w)
	}
	return nil
}

// injectMin ⊕-injects an improved edge weight into its owning block —
// the decrease path's only pre-re-elimination mutation.
func (f *Factor) injectMin(d EdgeDelta) error {
	K := f.K
	pu, pv := f.iperm[d.U], f.iperm[d.V]
	if pu > pv {
		pu, pv = pv, pu
	}
	ku, kv := f.snodeOf(pu), f.snodeOf(pv)
	lo := f.sn.Ranges[ku].Lo
	if ku == kv {
		f.diag[ku].Set(pu-lo, pv-lo, K.AddScalar(f.diag[ku].At(pu-lo, pv-lo), d.W))
		f.diag[ku].Set(pv-lo, pu-lo, K.AddScalar(f.diag[ku].At(pv-lo, pu-lo), d.W))
		return nil
	}
	col, ok := f.ancColumn(ku, kv, pv)
	if !ok {
		return fmt.Errorf("core: edge (%d,%d) crosses cousin supernodes — ordering is not tree-consistent", d.U, d.V)
	}
	f.up[ku].Set(pu-lo, col, K.AddScalar(f.up[ku].At(pu-lo, col), d.W))
	f.down[ku].Set(col, pu-lo, K.AddScalar(f.down[ku].At(col, pu-lo), d.W))
	return nil
}

// edgeMapOf snapshots a graph's undirected edge weights keyed by
// normalized endpoint pair.
func edgeMapOf(g *graph.Graph) map[edgeKey]float64 {
	edges := g.Edges()
	m := make(map[edgeKey]float64, len(edges))
	for _, e := range edges {
		u, v := e.U, e.V
		if v < u {
			u, v = v, u
		}
		m[edgeKey{u, v}] = e.W
	}
	return m
}

// graphFromEdges materializes an edge map as a CSR graph.
func graphFromEdges(n int, edges map[edgeKey]float64) (*graph.Graph, error) {
	list := make([]graph.Edge, 0, len(edges))
	for k, w := range edges {
		list = append(list, graph.Edge{U: k.u, V: k.v, W: w})
	}
	return graph.NewFromEdges(n, list)
}
