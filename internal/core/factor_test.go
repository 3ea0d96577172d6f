package core

import (
	"math"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/semiring"
)

func factorGraphs() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"grid":         gen.Grid2D(9, 8, gen.WeightUniform, 81),
		"geo":          gen.GeometricKNN(150, 2, 3, gen.WeightEuclidean, 82),
		"road":         gen.RoadNetwork(12, 12, 0.3, 83),
		"ba":           gen.BarabasiAlbert(80, 3, gen.WeightUniform, 84),
		"path":         gen.Grid2D(40, 1, gen.WeightUniform, 85),
		"disconnected": disconnectedPair(),
	}
}

func TestFactorSSSPMatchesDense(t *testing.T) {
	for name, g := range factorGraphs() {
		want := Closure(g.ToDense())
		for _, ok := range []OrderingKind{OrderND, OrderBFS} {
			for _, threads := range []int{1, 4} {
				plan, err := NewPlan(g, Options{Ordering: ok, MaxBlock: 16, LeafSize: 12})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				f, err := NewFactor(plan, threads)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				for src := 0; src < g.N; src += 7 {
					d := f.SSSP(src)
					for v := 0; v < g.N; v++ {
						x, y := d[v], want.At(src, v)
						if math.IsInf(x, 1) != math.IsInf(y, 1) || (!math.IsInf(x, 1) && math.Abs(x-y) > 1e-9) {
							t.Fatalf("%s ord=%v t=%d: SSSP(%d)[%d] = %g, want %g", name, ok, threads, src, v, x, y)
						}
					}
				}
			}
		}
	}
}

func TestFactorDistLabels(t *testing.T) {
	for name, g := range factorGraphs() {
		want := Closure(g.ToDense())
		plan, err := NewPlan(g, Options{Ordering: OrderND, MaxBlock: 16, LeafSize: 12})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		f, err := NewFactor(plan, 2)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		step := g.N/25 + 1
		for u := 0; u < g.N; u += step {
			for v := 0; v < g.N; v += step {
				got := f.Dist(u, v)
				exp := want.At(u, v)
				if math.IsInf(got, 1) != math.IsInf(exp, 1) || (!math.IsInf(got, 1) && math.Abs(got-exp) > 1e-9) {
					t.Fatalf("%s: Dist(%d,%d) = %g, want %g", name, u, v, got, exp)
				}
			}
		}
	}
}

func TestFactorMemorySmallerThanDense(t *testing.T) {
	// On a planar-like graph the factor is asymptotically smaller than
	// the dense matrix; at n=1600 it should already be far below 8n².
	g := gen.GeometricKNN(1600, 2, 3, gen.WeightUniform, 86)
	plan, err := NewPlan(g, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewFactor(plan, 0)
	if err != nil {
		t.Fatal(err)
	}
	dense := int64(8) * int64(g.N) * int64(g.N)
	if f.Memory() >= dense/4 {
		t.Errorf("factor memory %d should be well below dense %d", f.Memory(), dense)
	}
}

func TestFactorNegativeCycleDetected(t *testing.T) {
	// Build a graph whose closure has a negative cycle via a negative
	// symmetric edge (a negative 2-cycle). NewPlan/Factor should report.
	g := graph.MustFromEdges(4, []graph.Edge{
		{U: 0, V: 1, W: -1}, {U: 1, V: 2, W: 1}, {U: 2, V: 3, W: 1},
	})
	plan, err := NewPlan(g, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewFactor(plan, 1); err == nil {
		t.Fatal("negative 2-cycle must be detected by factorization")
	}
}

func TestFactorWidest(t *testing.T) {
	g := gen.GeometricKNN(120, 2, 3, gen.WeightUniform, 87)
	plan, err := NewPlan(g, Options{Semiring: semiring.MaxMinKernels, MaxBlock: 16, LeafSize: 12})
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewFactor(plan, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := widestClosure(g)
	for src := 0; src < g.N; src += 11 {
		d := f.SSSP(src)
		for v := 0; v < g.N; v++ {
			if math.Abs(d[v]-want.At(src, v)) > 1e-12 && d[v] != want.At(src, v) {
				t.Fatalf("widest SSSP(%d)[%d] = %g, want %g", src, v, d[v], want.At(src, v))
			}
		}
	}
	if got, exp := f.Dist(3, 97), want.At(3, 97); got != exp {
		t.Fatalf("widest Dist = %g, want %g", got, exp)
	}
}

func TestFactorRejectsTrackPaths(t *testing.T) {
	g := gen.Grid2D(4, 4, gen.WeightUnit, 88)
	plan, _ := NewPlan(g, Options{TrackPaths: true})
	if _, err := NewFactor(plan, 1); err == nil {
		t.Fatal("factor must reject path tracking")
	}
}

func TestSnodeOf(t *testing.T) {
	g := gen.Grid2D(10, 10, gen.WeightUniform, 89)
	plan, err := NewPlan(g, Options{MaxBlock: 8, LeafSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.N; v++ {
		k := plan.snodeOf(v)
		r := plan.Sn.Ranges[k]
		if v < r.Lo || v >= r.Hi {
			t.Fatalf("snodeOf(%d) = %d covering [%d,%d)", v, k, r.Lo, r.Hi)
		}
	}
}

func TestFactorMultiSSSP(t *testing.T) {
	g := gen.GeometricKNN(120, 2, 3, gen.WeightUniform, 96)
	plan, err := NewPlan(g, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewFactor(plan, 2)
	if err != nil {
		t.Fatal(err)
	}
	sources := []int{0, 7, 42, 119}
	rows := f.MultiSSSP(sources, 3)
	for i, src := range sources {
		single := f.SSSP(src)
		for v := range single {
			if rows[i][v] != single[v] && !(math.IsInf(rows[i][v], 1) && math.IsInf(single[v], 1)) {
				t.Fatalf("MultiSSSP row %d differs from SSSP at %d", i, v)
			}
		}
	}
}

// TestFactorDiagonalsBitwiseSymmetric pins the invariant the one-triangle
// factor rests on: every closed diagonal block is exactly symmetric, for
// both semirings and under parallel elimination (THEORY.md §5).
func TestFactorDiagonalsBitwiseSymmetric(t *testing.T) {
	for name, g := range factorGraphs() {
		for _, K := range []*semiring.Kernels{semiring.MinPlusKernels, semiring.MaxMinKernels} {
			plan, err := NewPlan(g, Options{Semiring: K, MaxBlock: 16, LeafSize: 12})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			f, err := NewFactor(plan, 4)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for k, D := range f.diag {
				for i := 0; i < D.Rows; i++ {
					for j := 0; j < i; j++ {
						if math.Float64bits(D.At(i, j)) != math.Float64bits(D.At(j, i)) {
							t.Fatalf("%s %s: diag[%d] (%d,%d) = %v, (%d,%d) = %v", name, K.Name, k, i, j, D.At(i, j), j, i, D.At(j, i))
						}
					}
				}
			}
		}
	}
}
