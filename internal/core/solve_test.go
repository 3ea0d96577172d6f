package core

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/order"
	"repro/internal/semiring"
)

// testGraphs returns a small suite spanning the structural classes the
// engine must handle: meshes, geometric, expander-like, disconnected.
func testGraphs(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	gs := map[string]*graph.Graph{
		"grid8x8":    gen.Grid2D(8, 8, gen.WeightUniform, 1),
		"grid13x7":   gen.Grid2D(13, 7, gen.WeightUniform, 2),
		"geoknn":     gen.GeometricKNN(150, 2, 4, gen.WeightEuclidean, 3),
		"er":         gen.ErdosRenyi(120, 4, gen.WeightUniform, 4),
		"ba":         gen.BarabasiAlbert(100, 3, gen.WeightUniform, 5),
		"hypercube6": gen.Hypercube(6, gen.WeightUniform, 6),
		"path":       gen.Grid2D(40, 1, gen.WeightUniform, 7),
		"tiny":       gen.Grid2D(2, 2, gen.WeightUnit, 8),
	}
	// Disconnected: two grids side by side with no joining edges.
	g1 := gen.Grid2D(6, 6, gen.WeightUniform, 9)
	edges := g1.Edges()
	for _, e := range gen.Grid2D(5, 5, gen.WeightUniform, 10).Edges() {
		edges = append(edges, graph.Edge{U: e.U + 36, V: e.V + 36, W: e.W})
	}
	gs["disconnected"] = graph.MustFromEdges(36+25, edges)
	return gs
}

func TestSuperFWMatchesNaiveFW(t *testing.T) {
	orderings := []OrderingKind{OrderND, OrderBFS, OrderRCM, OrderNatural, OrderMinDegree}
	for name, g := range testGraphs(t) {
		want := Closure(g.ToDense())
		for _, ok := range orderings {
			for _, threads := range []int{1, 4} {
				for _, etree := range []bool{true, false} {
					plan, err := NewPlan(g, Options{Ordering: ok, Threads: threads, EtreeParallel: etree, MaxBlock: 16, LeafSize: 12})
					if err != nil {
						t.Fatalf("%s/%v: NewPlan: %v", name, ok, err)
					}
					res, err := plan.Solve()
					if err != nil {
						t.Fatalf("%s/%v: Solve: %v", name, ok, err)
					}
					got := res.Dense()
					if !got.EqualTol(want, 1e-9) {
						t.Errorf("%s ordering=%v threads=%d etree=%v: distance matrix mismatch", name, ok, threads, etree)
					}
				}
			}
		}
	}
}

func TestSuperFWGridNDCustomOrdering(t *testing.T) {
	g := gen.Grid2D(12, 12, gen.WeightUniform, 42)
	ord := order.GridND(12, 12, 8)
	plan, err := NewPlan(g, Options{Ordering: OrderCustom, Custom: &ord, MaxBlock: 16})
	if err != nil {
		t.Fatalf("NewPlan: %v", err)
	}
	res, err := plan.SolveWith(2, true)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	want := Closure(g.ToDense())
	if !res.Dense().EqualTol(want, 1e-9) {
		t.Fatal("GridND custom ordering produced wrong distances")
	}
	if plan.TopSep != 12 {
		t.Errorf("grid 12x12 top separator = %d, want 12", plan.TopSep)
	}
}

func TestResultAtMatchesDense(t *testing.T) {
	g := gen.GeometricKNN(80, 2, 3, gen.WeightUniform, 11)
	plan, err := NewPlan(g, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	res, err := plan.Solve()
	if err != nil {
		t.Fatal(err)
	}
	dense := res.Dense()
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		u, v := rng.Intn(g.N), rng.Intn(g.N)
		if res.At(u, v) != dense.At(u, v) {
			t.Fatalf("At(%d,%d)=%g but Dense says %g", u, v, res.At(u, v), dense.At(u, v))
		}
	}
}

func TestSolveInitMatrixPotential(t *testing.T) {
	g := gen.GeometricKNN(120, 2, 4, gen.WeightUniform, 21)
	p := gen.Potential(g.N, 2.0, 22)
	init := g.ToDensePotential(p)
	// Some arcs must actually be negative for this test to mean anything.
	neg := 0
	for i := 0; i < init.Rows; i++ {
		for _, v := range init.Row(i) {
			if v < 0 {
				neg++
			}
		}
	}
	if neg == 0 {
		t.Fatal("potential instance has no negative arcs")
	}
	want := Closure(init)
	if semiring.HasNegativeCycle(want) {
		t.Fatal("potential instance must not contain negative cycles")
	}
	plan, err := NewPlan(g, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	res, err := plan.SolveInitMatrix(init, 2, true)
	if err != nil {
		t.Fatalf("SolveInitMatrix: %v", err)
	}
	if !res.Dense().EqualTol(want, 1e-9) {
		t.Fatal("negative-arc instance: SuperFW disagrees with naive FW")
	}
	// Recover original distances via the potential and compare with a
	// direct solve of the unweighted-potential instance.
	plain, err := plan.Solve()
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < g.N; u += 13 {
		for v := 0; v < g.N; v += 17 {
			got := res.At(u, v) - p[u] + p[v]
			if diff := got - plain.At(u, v); diff > 1e-9 || diff < -1e-9 {
				t.Fatalf("potential recovery failed at (%d,%d): %g vs %g", u, v, got, plain.At(u, v))
			}
		}
	}
}

func TestNegativeCycleDetected(t *testing.T) {
	// A 3-cycle with total weight -1 (symmetric negative edge would
	// already be a 2-cycle; build the init matrix directly).
	g := graph.MustFromEdges(3, []graph.Edge{{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 1}, {U: 0, V: 2, W: 1}})
	init := semiring.NewInfMat(3, 3)
	for i := 0; i < 3; i++ {
		init.Set(i, i, 0)
	}
	// Directed cycle 0→1→2→0 of weight -3; reverse arcs expensive.
	init.Set(0, 1, -1)
	init.Set(1, 2, -1)
	init.Set(2, 0, -1)
	init.Set(1, 0, 10)
	init.Set(2, 1, 10)
	init.Set(0, 2, 10)
	plan, err := NewPlan(g, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	res, err := plan.SolveInitMatrix(init, 1, false)
	if err == nil {
		t.Fatal("expected negative-cycle error")
	}
	if res == nil || !res.HasNegativeCycle() {
		t.Fatal("result should flag the negative cycle")
	}
}

func TestPlannedOpsOrdering(t *testing.T) {
	g := gen.Grid2D(24, 24, gen.WeightUniform, 31)
	nd, err := NewPlan(g, Options{Ordering: OrderND, MaxBlock: 32, LeafSize: 24})
	if err != nil {
		t.Fatal(err)
	}
	nat, err := NewPlan(g, Options{Ordering: OrderNatural, MaxBlock: 32})
	if err != nil {
		t.Fatal(err)
	}
	n := int64(g.N)
	dense := n * n * n
	if nd.PlannedOps() >= nat.PlannedOps() {
		t.Errorf("ND ops %d should beat natural-order ops %d on a grid", nd.PlannedOps(), nat.PlannedOps())
	}
	if nd.PlannedOps() >= dense {
		t.Errorf("ND ops %d should beat dense n³ = %d", nd.PlannedOps(), dense)
	}
	if nd.CriticalPathOps() >= nd.PlannedOps() {
		t.Errorf("critical path %d should be far below total work %d", nd.CriticalPathOps(), nd.PlannedOps())
	}
}

func TestPlanStructure(t *testing.T) {
	g := gen.GeometricKNN(300, 2, 4, gen.WeightUniform, 41)
	plan, err := NewPlan(g, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !graph.IsPermutation(plan.Perm) {
		t.Fatal("Perm is not a permutation")
	}
	if msg := plan.Sn.Check(); msg != "" {
		t.Fatalf("supernode check: %s", msg)
	}
	if plan.TopSep <= 0 {
		t.Error("ND plan should report a top separator")
	}
	if plan.NumSupernodes() < 2 {
		t.Error("expected multiple supernodes")
	}
	// BFS plan computes fill.
	bfs, err := NewPlan(g, Options{Ordering: OrderBFS})
	if err != nil {
		t.Fatal(err)
	}
	if bfs.FillCount < int64(g.M()) {
		t.Errorf("BFS fill %d should be at least m=%d", bfs.FillCount, g.M())
	}
}

func TestEmptyGraphRejected(t *testing.T) {
	g := graph.MustFromEdges(0, nil)
	if _, err := NewPlan(g, DefaultOptions()); err == nil {
		t.Fatal("expected error for empty graph")
	}
}

func TestSingleVertex(t *testing.T) {
	g := graph.MustFromEdges(1, nil)
	plan, err := NewPlan(g, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	res, err := plan.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if res.At(0, 0) != 0 {
		t.Fatalf("D[0][0] = %g, want 0", res.At(0, 0))
	}
}

func TestAutotuneMaxBlock(t *testing.T) {
	g := gen.GeometricKNN(400, 2, 3, gen.WeightUniform, 99)
	best, err := AutotuneMaxBlock(g, DefaultOptions(), []int{16, 64})
	if err != nil {
		t.Fatal(err)
	}
	if best != 16 && best != 64 {
		t.Fatalf("autotune returned non-candidate %d", best)
	}
	// Sampled path: a graph above the sample cap must still work.
	big := gen.RoadNetwork(60, 60, 0.3, 100)
	best2, err := AutotuneMaxBlock(big, DefaultOptions(), []int{32, 128})
	if err != nil {
		t.Fatal(err)
	}
	if best2 != 32 && best2 != 128 {
		t.Fatalf("autotune returned non-candidate %d", best2)
	}
}

func TestAutotuneGemm(t *testing.T) {
	prev := semiring.CurrentGemmTuning()
	defer semiring.SetGemmTuning(prev)
	g := gen.GeometricKNN(400, 2, 3, gen.WeightUniform, 103)
	cands := []semiring.GemmTuning{
		semiring.DefaultGemmTuning(),
		{KTile: 32, JTile: 256, GemmSmall: 512, DenseMinFinite: 0.7,
			DenseMinOps: 1 << 20, ParMinRows: 192, ParMinOps: 1 << 24},
	}
	best, err := AutotuneGemm(g, DefaultOptions(), cands)
	if err != nil {
		t.Fatal(err)
	}
	if best != cands[0] && best != cands[1] {
		t.Fatalf("autotune returned non-candidate %+v", best)
	}
	if got := semiring.CurrentGemmTuning(); got != best {
		t.Fatalf("winner %+v not installed (current %+v)", best, got)
	}
	// Correctness with the winner installed.
	plan, err := NewPlan(g, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	res, err := plan.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Dense().EqualTol(Closure(g.ToDense()), 1e-9) {
		t.Fatal("solve wrong under autotuned gemm tuning")
	}
	if res.Kernel.Calls == 0 || res.Kernel.DenseCalls+res.Kernel.StreamCalls != res.Kernel.Calls {
		t.Fatalf("kernel counter delta inconsistent: %+v", res.Kernel)
	}
}

func TestSolveProfiled(t *testing.T) {
	g := gen.GeometricKNN(300, 2, 3, gen.WeightUniform, 101)
	for _, c := range []struct {
		threads int
		sched   ScheduleKind
	}{{1, ScheduleDAG}, {4, ScheduleDAG}, {4, ScheduleLevel}} {
		opts := DefaultOptions()
		opts.Schedule = c.sched
		plan, err := NewPlan(g, opts)
		if err != nil {
			t.Fatal(err)
		}
		res, prof, err := plan.SolveProfiled(c.threads, true)
		if err != nil {
			t.Fatal(err)
		}
		want := Closure(g.ToDense())
		if !res.Dense().EqualTol(want, 1e-9) {
			t.Fatal("profiled solve changed distances")
		}
		if prof.Diag.Load() <= 0 || prof.Outer.Load() <= 0 {
			t.Error("stage counters should be positive")
		}
		if len(prof.Levels) != len(plan.Sn.Levels) {
			t.Errorf("got %d level records, want %d", len(prof.Levels), len(plan.Sn.Levels))
		}
		total := 0
		for _, l := range prof.Levels {
			total += l.Vertices
		}
		if total != g.N {
			t.Errorf("levels cover %d vertices, want %d", total, g.N)
		}
		if prof.String() == "" {
			t.Error("profile rendering empty")
		}
		if prof.Kernel.Calls == 0 || prof.Kernel != res.Kernel {
			t.Errorf("profile kernel counters %+v should be non-zero and match result %+v",
				prof.Kernel, res.Kernel)
		}
		if prof.Kernel.DiagNS == 0 || prof.Kernel.OuterNS == 0 {
			t.Errorf("per-phase timings missing from kernel counters: %+v", prof.Kernel)
		}
		if !strings.Contains(prof.String(), "fused pipeline") {
			t.Error("profile rendering missing the fused-pipeline line")
		}
		// Only the DAG schedule can overlap levels while supernodes run
		// concurrently; one-at-a-time and barrier runs have no barrier
		// wait to report.
		if (c.threads == 1 || c.sched == ScheduleLevel) && strings.Contains(prof.String(), "barrier wait") {
			t.Errorf("threads=%d %v: profile reports recovered barrier wait:\n%s", c.threads, c.sched, prof)
		}
	}
}

func TestPlanStatsString(t *testing.T) {
	g := gen.GeometricKNN(200, 2, 3, gen.WeightUniform, 102)
	plan, err := NewPlan(g, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	st := plan.Stats()
	if st.N != g.N || st.M != g.M() {
		t.Error("stats sizes wrong")
	}
	if st.Supernodes != plan.NumSupernodes() {
		t.Error("supernode count mismatch")
	}
	if st.MedianBlock <= 0 || st.MaxBlock < st.MedianBlock {
		t.Errorf("block stats inconsistent: median %d max %d", st.MedianBlock, st.MaxBlock)
	}
	if st.WorkReduction <= 1 {
		t.Errorf("ND on a planar graph should reduce work, got %.2f", st.WorkReduction)
	}
	out := st.String()
	for _, want := range []string{"supernodes", "top separator", "planned ops"} {
		if !strings.Contains(out, want) {
			t.Errorf("stats output missing %q:\n%s", want, out)
		}
	}
	// BFS plan has fill: the fill line must appear.
	bfs, err := NewPlan(g, Options{Ordering: OrderBFS})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(bfs.Stats().String(), "symbolic fill") {
		t.Error("BFS stats should report fill")
	}
}
