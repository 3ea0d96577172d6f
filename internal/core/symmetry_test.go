package core_test

import (
	"math"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/semiring"
)

// symmetrySources picks a spread of vertices to query between.
func symmetrySources(n int) []int {
	var out []int
	for v := 0; v < n; v += max(1, n/9) {
		out = append(out, v)
	}
	return append(out, n-1)
}

func catalogFactors(t *testing.T, K *semiring.Kernels, round bool) map[string]*core.Factor {
	t.Helper()
	out := map[string]*core.Factor{}
	for _, e := range bench.Catalog() {
		g := e.Build(true)
		if round {
			g = integerWeights(t, g)
		}
		plan, err := core.NewPlan(g, core.Options{Semiring: K, MaxBlock: 32, LeafSize: 24})
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		f, err := core.NewFactor(plan, 2)
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		out[e.Name] = f
	}
	return out
}

// integerWeights rounds every edge weight up to a whole number, so every
// path sum is exact in float64.
func integerWeights(t *testing.T, g *graph.Graph) *graph.Graph {
	t.Helper()
	edges := g.Edges()
	for i := range edges {
		edges[i].W = math.Ceil(edges[i].W)
	}
	h, err := graph.NewFromEdges(g.N, edges)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestFactorQueriesSymmetric checks that one stored triangle answers
// undirected queries symmetrically. A label meet is bitwise symmetric
// for both semirings: ⊗ is commutative and ⊕ an exact min/max. SSSP
// rows are bitwise symmetric for max-min, whose ⊗ is exact too; for
// min-plus an SSSP row folds a path's sum from its own source, so the
// two directions round differently and agree only to the differential
// tolerance — except when every sum is exact (integer weights), where
// they must agree bitwise as well.
func TestFactorQueriesSymmetric(t *testing.T) {
	cases := []struct {
		name        string
		K           *semiring.Kernels
		round       bool
		ssspBitwise bool
	}{
		{"min-plus", semiring.MinPlusKernels, false, false},
		{"min-plus/integer", semiring.MinPlusKernels, true, true},
		{"max-min", semiring.MaxMinKernels, false, true},
	}
	for _, c := range cases {
		for name, f := range catalogFactors(t, c.K, c.round) {
			src := symmetrySources(f.N())
			rows := make(map[int][]float64, len(src))
			for _, u := range src {
				rows[u] = f.SSSP(u)
			}
			for _, u := range src {
				for _, v := range src {
					if a, b := f.Dist(u, v), f.Dist(v, u); !sameBits(a, b) {
						t.Fatalf("%s %s: Dist(%d,%d) = %v, Dist(%d,%d) = %v", c.name, name, u, v, a, u, v, b)
					}
					a, b := rows[u][v], rows[v][u]
					if c.ssspBitwise && !sameBits(a, b) {
						t.Fatalf("%s %s: SSSP(%d)[%d] = %v, SSSP(%d)[%d] = %v", c.name, name, u, v, a, v, u, b)
					}
					if !c.ssspBitwise && a != b && math.Abs(a-b) > 1e-9 {
						t.Fatalf("%s %s: SSSP(%d)[%d] = %v, SSSP(%d)[%d] = %v", c.name, name, u, v, a, v, u, b)
					}
				}
			}
		}
	}
}
