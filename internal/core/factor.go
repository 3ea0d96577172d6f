package core

// Supernodal semiring factorization with O(fill) memory.
//
// The dense SuperFw solver materializes the full n×n distance matrix —
// the paper's own memory wall (105 GB for its largest graph). But the
// paper also observes that at the end of elimination "the supernodal
// matrix contains the semiring equivalent of Cholesky factors". This
// file computes exactly that object WITHOUT the dense matrix: for every
// supernode k, the closed diagonal block and the panel against k's
// ancestor path
//
//	diag[k] = F(k, k)    up[k] = F(k, A(k))
//
// where F(i, j) holds the length of the shortest i–j path whose
// intermediates all precede min(i,j)'s supernode (Carré 1971). Every
// factor is built from an undirected graph, so F is symmetric and the
// lower panel F(A(k), k) = up[k]ᵀ is never stored: one triangle, the
// semiring analogue of a Cholesky rather than an LU factor. Factor-only
// elimination performs the DiagUpdate, the single PanelUpdate and the
// upper triangle of the A(k)×A(k) OuterUpdate of Algorithm 3, skipping
// every update that touches descendants; because the ancestor set is a
// chain, every A×A block lands inside some future diagonal or panel, so
// the working set is the factor itself: O(supernodal fill) memory
// instead of n².
//
// Queries use the elimination-tree two-phase sweep (the semiring
// triangular solves):
//
//	up    d[A(k)] ⊕= d[k] ⊗ up[k]      k ascending   (only k on src's root path)
//	down  d[k] ⊕= up[k] ⊗ d[A(k)]      k descending  (all supernodes)
//
// which is correct because every shortest path decomposes at its
// maximum-index vertex h into an index-ascending prefix and an
// index-descending suffix, both inside the filled pattern — h is a
// common etree ancestor of the endpoints. The same decomposition yields
// 2-hop-labeling point queries: Label(u) holds the distances between u
// and every hub on its root path, and by symmetry a point query meets
// Label(u) with Label(v) on the shared ancestor suffix.

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/fault"
	"repro/internal/par"
	"repro/internal/semiring"
	"repro/internal/symbolic"
)

// Factor is the supernodal semiring factor of a plan's graph. It is
// self-contained (it copies the permutation and supernode structure from
// the plan), so it can be serialized and later queried without the plan
// or the graph.
type Factor struct {
	n     int
	perm  []int // perm[new] = old
	iperm []int // iperm[old] = new
	sn    *symbolic.Supernodes
	K     *semiring.Kernels
	// per supernode k:
	diag []semiring.Mat // s×s, closed, symmetric
	up   []semiring.Mat // s × ancTotal: F(k, ancestors), ancestor ranges concatenated ascending
	// ancIDs[k] lists k's ancestor supernodes (ascending); ancOff[k][i]
	// is the column offset of ancIDs[k][i] inside up[k]; ancOff[k][len]
	// is the total ancestor width, and maxAnc the largest such width.
	ancIDs [][]int
	ancOff [][]int
	maxAnc int

	// FactorTime is the wall time of the numeric factorization.
	FactorTime time.Duration
}

// snodeOf returns the supernode containing permuted vertex v.
func (p *Plan) snodeOf(v int) int { return snodeOfRanges(p.Sn.Ranges, v) }

func snodeOfRanges(ranges []symbolic.Range, v int) int {
	// Binary search over the ascending supernode ranges.
	lo, hi := 0, len(ranges)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if ranges[mid].Hi <= v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

func (f *Factor) snodeOf(v int) int { return snodeOfRanges(f.sn.Ranges, v) }

// N returns the number of vertices the factor covers.
func (f *Factor) N() int { return f.n }

// Memory returns the factor's matrix storage in bytes — the quantity to
// compare against the dense solver's 8n² (plus 4n² with path tracking).
func (f *Factor) Memory() int64 {
	var total int64
	for k := range f.diag {
		total += f.blockFloats(k)
	}
	return total * 8
}

// blockFloats is the number of float64s supernode k stores.
func (f *Factor) blockFloats(k int) int64 {
	return int64(len(f.diag[k].Data) + len(f.up[k].Data))
}

// Validate performs cheap sanity checks on a factor before it is put in
// front of traffic — the last line of defense when restoring from a
// checkpoint or swapping a freshly built factor into a server. It
// verifies the supernode structure and probes one query invariant: the
// self-distance of vertex 0 must be the semiring identity (0 for
// min-plus, +Inf for max-min).
func (f *Factor) Validate() error {
	if f.n <= 0 || len(f.perm) != f.n || len(f.iperm) != f.n {
		return fmt.Errorf("core: factor covers %d vertices with %d-entry permutation", f.n, len(f.perm))
	}
	if msg := f.sn.Check(); msg != "" {
		return fmt.Errorf("core: factor supernode structure: %s", msg)
	}
	if d := f.Dist(0, 0); d != f.K.One {
		return fmt.Errorf("core: factor self-distance at vertex 0 is %v, want %v", d, f.K.One)
	}
	return nil
}

// NewFactor runs the factor-only elimination for the plan's graph over
// the plan's semiring. threads ≤ 0 uses GOMAXPROCS. When
// Options.Context is set it is honored as the cancellation context.
func NewFactor(p *Plan, threads int) (*Factor, error) {
	return NewFactorCtx(p.Opts.context(), p, threads)
}

// NewFactorCtx is NewFactor with an explicit cancellation context,
// checked cooperatively at supernode granularity: a cancelled or expired
// context aborts the factorization promptly and returns ctx.Err().
func NewFactorCtx(ctx context.Context, p *Plan, threads int) (*Factor, error) {
	if p.Opts.TrackPaths {
		return nil, fmt.Errorf("core: factor solves do not support path tracking")
	}
	K := p.Opts.Semiring
	sn := p.Sn
	ns := sn.NumSupernodes()
	f := newFactor(p.G.N, p.Perm, p.IPerm, sn, K)
	// Initialize from the permuted graph.
	all := make([]bool, ns)
	for k := range all {
		all[k] = true
	}
	f.resetBlocks(all)
	// Scatter edges: an edge {u, v} with snode(u) == snode(v) goes into
	// the diagonal; otherwise it goes into the lower supernode's panel
	// (the higher endpoint is necessarily an ancestor: edges never cross
	// cousin regions under a tree-consistent ordering).
	pg := p.PG
	for u := 0; u < pg.N; u++ {
		ku := p.snodeOf(u)
		lo := sn.Ranges[ku].Lo
		adj, wgt := pg.Neighbors(u)
		for i, v := range adj {
			if v < u {
				continue // handle each edge once from its lower endpoint
			}
			kv := p.snodeOf(v)
			if kv == ku {
				f.diag[ku].Set(u-lo, v-lo, wgt[i])
				f.diag[ku].Set(v-lo, u-lo, wgt[i])
				continue
			}
			// kv must be an ancestor of ku.
			col, ok := f.ancColumn(ku, kv, v)
			if !ok {
				return nil, fmt.Errorf("core: edge (%d,%d) crosses cousin supernodes — ordering is not tree-consistent", u, v)
			}
			f.up[ku].Set(u-lo, col, wgt[i])
		}
	}

	// Factor-only elimination, parallel over cousins with target-block
	// locks on shared ancestor updates whenever threads > 1.
	t0 := time.Now()
	if err := runSchedule(ctx, sn, threads, true, p.Opts.Schedule, f.eliminate); err != nil {
		return nil, err
	}
	f.FactorTime = time.Since(t0)

	if K.DetectNegCycle {
		for k := 0; k < ns; k++ {
			if semiring.HasNegativeCycle(f.diag[k]) {
				return f, fmt.Errorf("core: graph contains a negative-weight cycle")
			}
		}
	}
	return f, nil
}

// newFactor allocates the blocks of a factor over the supernode
// structure sn — diag[k] is s×s and up[k] is s × (k's ancestor width) —
// and derives the ancestor maps. Block contents are left for the caller
// to initialize or restore.
func newFactor(n int, perm, iperm []int, sn *symbolic.Supernodes, K *semiring.Kernels) *Factor {
	ns := sn.NumSupernodes()
	f := &Factor{
		n:      n,
		perm:   perm,
		iperm:  iperm,
		sn:     sn,
		K:      K,
		diag:   make([]semiring.Mat, ns),
		up:     make([]semiring.Mat, ns),
		ancIDs: make([][]int, ns),
		ancOff: make([][]int, ns),
	}
	for k := 0; k < ns; k++ {
		anc := sn.Ancestors(k)
		off := make([]int, len(anc)+1)
		for i, a := range anc {
			off[i+1] = off[i] + sn.Ranges[a].Size()
		}
		f.ancIDs[k] = anc
		f.ancOff[k] = off
		s, total := sn.Ranges[k].Size(), off[len(anc)]
		f.maxAnc = max(f.maxAnc, total)
		f.diag[k] = semiring.NewMat(s, s)
		f.up[k] = semiring.NewMat(s, total)
	}
	return f
}

// ancColumn maps permuted vertex v (inside ancestor supernode a of k) to
// its column inside up[k].
func (f *Factor) ancColumn(k, a, v int) (int, bool) {
	for i, id := range f.ancIDs[k] {
		if id == a {
			return f.ancOff[k][i] + v - f.sn.Ranges[a].Lo, true
		}
	}
	return 0, false
}

// eliminate processes supernode k: close the diagonal, update the
// panel, and scatter the upper triangle of the ancestor×ancestor outer
// product into the ancestors' own factor blocks. F(A(k), k) is up[k]ᵀ,
// so one panel update does the work of both triangles. The panel update
// stays on MulAdd in place: a packed copy of the panel would alias the
// destination (B == C), and the in-place form is the algorithm.
// Concurrently running supernodes are cousins, so the ancestor-block
// locks serialize every collision.
func (f *Factor) eliminate(k, threads int, locks *par.StripedMutex) {
	fault.Inject("core.factor.eliminate")
	K := f.K
	tDiag := time.Now()
	K.FW(f.diag[k])
	semiring.AddPhaseTime(semiring.PhaseDiag, time.Since(tDiag))
	if f.ancOff[k][len(f.ancIDs[k])] == 0 {
		return
	}
	tPanel := time.Now()
	K.MulAdd(f.up[k], f.diag[k], f.up[k]) //lint:ignore aliascheck in-place panel update is closed under min-plus: diag is closed with zero diagonal, so C=A is the algorithm
	semiring.AddPhaseTime(semiring.PhasePanel, time.Since(tPanel))

	tOuter := time.Now()
	f.scatterOuter(k, threads, locks, nil)
	semiring.AddPhaseTime(semiring.PhaseOuter, time.Since(tOuter))
}

// scatterOuter applies supernode k's ancestor×ancestor outer product
// F(A, k) ⊗ F(k, A) onto the ancestors' own factor blocks. The product
// is symmetric, so only pairs i ≤ j are formed — the (j, i) block is the
// transpose of the (i, j) block and is not stored. Target for (ai, aj):
//
//	ai == aj → diag[ai]
//	ai <  aj → the aj-section of up[ai]  (aj is an ancestor of ai)
//
// The A operand F(ai, k) is the ai-section of up[k]ᵀ, so up[k] is
// transposed once into pooled scratch. The B operand, the aj-section of
// up[k], serves all pairs in column j, so with more than one ancestor
// it is packed once and reused. The targets are the ancestors' own
// blocks — never up[k] — so both snapshots stay valid for the whole
// scatter. Ancestor chains are suffixes of each other, so the section
// offset inside the target panel follows from list positions directly.
// A non-nil ownerFilter restricts the scatter to targets owned by
// marked supernodes (ai owns both target kinds) — the live-update replay
// path re-plays a clean supernode's contributions into reset (dirty)
// blocks only, since its contributions to clean blocks are already
// incorporated there.
func (f *Factor) scatterOuter(k, threads int, locks *par.StripedMutex, ownerFilter []bool) {
	K := f.K
	sn := f.sn
	s := sn.Ranges[k].Size()
	anc := f.ancIDs[k]
	off := f.ancOff[k]
	na := len(anc)
	owned := func(i int) bool { return ownerFilter == nil || ownerFilter[anc[i]] }
	section := func(i int) semiring.Mat { return f.up[k].View(0, off[i], s, off[i+1]-off[i]) }

	buf := panelScratch.get(off[na] * s)
	upT := semiring.Mat{Data: buf, Stride: s, Rows: off[na], Cols: s}
	pairs := make([][2]int, 0, na*(na+1)/2)
	for i := 0; i < na; i++ {
		if !owned(i) {
			continue
		}
		upT.View(off[i], 0, off[i+1]-off[i], s).TransposeFrom(section(i))
		for j := i; j < na; j++ {
			pairs = append(pairs, [2]int{i, j})
		}
	}
	var packs []*semiring.PackedPanel
	if na > 1 {
		packs = make([]*semiring.PackedPanel, na)
		for _, p := range pairs {
			if j := p[1]; packs[j] == nil {
				packs[j] = K.PackPanel(section(j))
			}
		}
	}
	par.For(len(pairs), threads, 1, func(idx int) {
		i, j := pairs[idx][0], pairs[idx][1]
		ai, aj := anc[i], anc[j]
		src := upT.View(off[i], 0, off[i+1]-off[i], s)
		target := f.diag[ai]
		if i < j {
			// aj inside up[ai]: position of aj in ai's ancestor list is
			// j-i-1 (ai's ancestors are k's ancestors past position i).
			o := f.ancOff[ai]
			target = f.up[ai].View(0, o[j-i-1], sn.Ranges[ai].Size(), o[j-i]-o[j-i-1])
		}
		mul := func() { K.MulAdd(target, src, section(j)) }
		if packs != nil {
			P := packs[j]
			mul = func() { K.MulAddPacked(target, src, P) }
		}
		if locks != nil {
			key := uint64(ai)*uint64(len(f.diag)) + uint64(aj)
			locks.Lock(key)
			mul()
			locks.Unlock(key)
		} else {
			mul()
		}
	})
	for _, P := range packs {
		if P != nil {
			P.Release()
		}
	}
	panelScratch.put(buf)
}

// scratch pools float64 work vectors of varying length. get returns a
// slice of length n with unspecified contents.
type scratch struct{ pool sync.Pool }

func (s *scratch) get(n int) []float64 {
	if v := s.pool.Get(); v != nil {
		if buf := *(v.(*[]float64)); cap(buf) >= n {
			return buf[:n]
		}
	}
	return make([]float64, n)
}

func (s *scratch) put(buf []float64) { s.pool.Put(&buf) }

// panelScratch holds the transposed panels of scatterOuter, sweepScratch
// the n-length vectors of the SSSP sweeps, gatherScratch the
// ancestor-chain vectors of downSweep. Separate pools keep the very
// different sizes from evicting each other.
var panelScratch, sweepScratch, gatherScratch scratch

// SSSP computes distances from src (original vertex id) to every vertex,
// returned indexed by original ids, using the up/down etree sweeps in
// O(fill) time and O(n) extra space.
func (f *Factor) SSSP(src int) []float64 {
	return f.SSSPInto(src, make([]float64, f.n))
}

// SSSPInto is SSSP writing the row into out (which must have length n)
// and returning it. The sweep scratch comes from an internal pool, so a
// caller that also reuses out pays no per-query allocation — the shape
// query serving wants.
func (f *Factor) SSSPInto(src int, out []float64) []float64 {
	if len(out) != f.n {
		panic(fmt.Sprintf("core: SSSPInto row length %d, want %d", len(out), f.n))
	}
	d := f.getSweep() // permuted index space until the end
	ps := f.iperm[src]
	d[ps] = f.K.One
	f.upSweep(d, f.snodeOf(ps))
	f.downSweep(d)
	// Relabel to original ids.
	for i := 0; i < f.n; i++ {
		out[f.perm[i]] = d[i]
	}
	f.putSweep(d)
	return out
}

// getSweep returns an n-length pooled scratch vector filled with
// K.Zero, so steady-state query serving does not allocate per query.
func (f *Factor) getSweep() []float64 {
	d := sweepScratch.get(f.n)
	for i := range d {
		d[i] = f.K.Zero
	}
	return d
}

func (f *Factor) putSweep(d []float64) { sweepScratch.put(d) }

// upSweep relaxes d along the root path of supernode k0.
func (f *Factor) upSweep(d []float64, k0 int) {
	sn := f.sn
	for k := k0; k >= 0; k = sn.Parent[k] {
		r := sn.Ranges[k]
		dk := d[r.Lo:r.Hi]
		f.vecMat(dk, dk, f.diag[k]) // intra-block propagation (closed diag)
		for i, a := range f.ancIDs[k] {
			ar := sn.Ranges[a]
			f.vecMat(d[ar.Lo:ar.Hi], dk, f.up[k].View(0, f.ancOff[k][i], r.Size(), ar.Size()))
		}
	}
}

// downSweep relaxes d from ancestors into every supernode, descending:
// d[k] ⊕= F(k, A(k)) ⊗ d[A(k)], the transpose of the up sweep's step.
// The ancestor ranges are scattered over d, so their entries are first
// gathered into one contiguous vector laid out like up[k]'s columns;
// then the whole panel is a single matVec.
func (f *Factor) downSweep(d []float64) {
	sn := f.sn
	K := f.K
	buf := gatherScratch.get(f.maxAnc)
	for k := sn.NumSupernodes() - 1; k >= 0; k-- {
		r := sn.Ranges[k]
		dk := d[r.Lo:r.Hi]
		off := f.ancOff[k]
		da := buf[:off[len(off)-1]]
		for i, a := range f.ancIDs[k] {
			ar := sn.Ranges[a]
			copy(da[off[i]:off[i+1]], d[ar.Lo:ar.Hi])
		}
		touched := !allZero(da, K.Zero)
		if touched {
			f.matVec(dk, f.up[k], da)
		}
		if touched || !allZero(dk, K.Zero) {
			f.vecMat(dk, dk, f.diag[k])
		}
	}
	gatherScratch.put(buf)
}

func allZero(v []float64, zero float64) bool {
	for _, x := range v {
		if x != zero {
			return false
		}
	}
	return true
}

// vecMat computes y = y ⊕ x ⊗ A over the plan's semiring, preferring
// the kernel bundle's dedicated sweep kernel (zero fast paths) over a
// degenerate 1×n MulAdd.
func (f *Factor) vecMat(y, x []float64, A semiring.Mat) {
	if f.K.VecMatAdd != nil {
		f.K.VecMatAdd(y, x, A)
		return
	}
	// Generic path via the kernel's MulAdd on 1×n views.
	X := semiring.Mat{Data: x, Stride: len(x), Rows: 1, Cols: len(x)}
	Y := semiring.Mat{Data: y, Stride: len(y), Rows: 1, Cols: len(y)}
	f.K.MulAdd(Y, X, A)
}

// matVec computes y = y ⊕ A ⊗ x over the plan's semiring.
func (f *Factor) matVec(y []float64, A semiring.Mat, x []float64) {
	if f.K.MatVecAdd != nil {
		f.K.MatVecAdd(y, A, x)
		return
	}
	X := semiring.Mat{Data: x, Stride: 1, Rows: len(x), Cols: 1}
	Y := semiring.Mat{Data: y, Stride: 1, Rows: len(y), Cols: 1}
	f.K.MulAdd(Y, A, X)
}

// MultiSSSP runs SSSP from every listed source in parallel and returns
// the rows in source order (each indexed by original vertex id). The
// sweeps are independent, so this parallelizes perfectly — the factor
// analogue of the baseline Dijkstra-per-source APSP loop.
func (f *Factor) MultiSSSP(sources []int, threads int) [][]float64 {
	out := make([][]float64, len(sources))
	par.For(len(sources), threads, 1, func(i int) {
		out[i] = f.SSSP(sources[i])
	})
	return out
}

// Label is a 2-hop label: distances between a vertex and every vertex of
// its supernode root path. The graph is undirected, so one vector serves
// both directions.
type Label struct {
	// Ranges are the permuted index ranges the label covers, ascending:
	// the vertex's own supernode followed by its ancestors.
	Ranges []symbolic.Range
	// To[h] is the distance between the vertex and hub h, indexed
	// positionally along the concatenated Ranges.
	To []float64
}

// ComputeLabel builds the 2-hop label of original vertex u: distances to
// every hub on u's supernode root path. Costs O(chain fill).
func (f *Factor) ComputeLabel(u int) *Label {
	K := f.K
	sn := f.sn
	pu := f.iperm[u]
	k0 := f.snodeOf(pu)
	lbl := &Label{}
	w := 0
	for k := k0; k >= 0; k = sn.Parent[k] {
		lbl.Ranges = append(lbl.Ranges, sn.Ranges[k])
		w += sn.Ranges[k].Size()
	}
	lbl.To = make([]float64, w)
	for i := range lbl.To {
		lbl.To[i] = K.Zero
	}
	// The label is an up-sweep restricted to the chain. k's ancestors are
	// exactly the rest of the chain, in the same ascending order as
	// up[k]'s column sections, so the label's tail past k is laid out
	// like up[k]'s columns and each step is one vecMat over the panel.
	lbl.To[pu-lbl.Ranges[0].Lo] = K.One
	pos := 0
	for k := k0; k >= 0; k = sn.Parent[k] {
		s := sn.Ranges[k].Size()
		to := lbl.To[pos : pos+s]
		f.vecMat(to, to, f.diag[k])
		pos += s
		if pos < w {
			f.vecMat(lbl.To[pos:], to, f.up[k])
		}
	}
	return lbl
}

// Dist answers a point-to-point query by meeting the labels of u and v
// on their shared hubs: dist(u,v) = ⊕ over common hubs h of
// To_u[h] ⊗ To_v[h]. Costs two label computations plus the meet; use a
// LabelCache to amortize the label computations across queries.
func (f *Factor) Dist(u, v int) float64 {
	return f.MeetLabels(f.ComputeLabel(u), f.ComputeLabel(v))
}

// MeetLabels evaluates the 2-hop meet of the labels lu and lv: ⊕ over
// common hubs h of To_u[h] ⊗ To_v[h]. ⊗ is commutative and ⊕ an exact
// min/max, so the meet is bitwise symmetric in its arguments. Labels are
// immutable once computed, so the meet is safe to run concurrently over
// shared labels, and it performs no allocations.
func (f *Factor) MeetLabels(lu, lv *Label) float64 {
	K := f.K
	best := K.Zero
	// Walk both range lists; ranges are ascending and chains share their
	// suffix, so matching ranges are exactly the common hubs.
	iu, iv := 0, 0
	ou, ov := 0, 0
	for iu < len(lu.Ranges) && iv < len(lv.Ranges) {
		ru, rv := lu.Ranges[iu], lv.Ranges[iv]
		switch {
		case ru.Lo < rv.Lo:
			ou += ru.Size()
			iu++
		case rv.Lo < ru.Lo:
			ov += rv.Size()
			iv++
		default: // same supernode range
			for i := 0; i < ru.Size(); i++ {
				cand := K.MulScalar(lu.To[ou+i], lv.To[ov+i])
				best = K.AddScalar(best, cand)
			}
			ou += ru.Size()
			ov += rv.Size()
			iu++
			iv++
		}
	}
	return best
}
