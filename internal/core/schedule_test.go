package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/semiring"
)

// Schedule equivalence: the DAG schedule, the level-synchronous schedule
// and the sequential postorder traversal are three executions of the
// same elimination and must produce identical results — across
// orderings (balanced ND trees, skinny BFS/natural etrees) and
// semirings. Distances are deterministic under all three (min-plus ⊕ is
// associative/commutative), so exact comparison up to float tolerance is
// the right check.

func TestScheduleEquivalence(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"geoknn": gen.GeometricKNN(240, 2, 3, gen.WeightUniform, 7),
		"road":   gen.RoadNetwork(16, 16, 0.3, 11),
		"ba":     gen.BarabasiAlbert(200, 2, gen.WeightUniform, 13),
	}
	orderings := []OrderingKind{OrderND, OrderBFS, OrderNatural, OrderMinDegree}
	semirings := []*semiring.Kernels{semiring.MinPlusKernels, semiring.MaxMinKernels}
	for gname, g := range graphs {
		for _, ok := range orderings {
			for _, K := range semirings {
				name := fmt.Sprintf("%s/%v/%s", gname, ok, K.Name)
				t.Run(name, func(t *testing.T) {
					opts := Options{Ordering: ok, EtreeParallel: true, Semiring: K, MaxBlock: 48}
					seqPlan, err := NewPlan(g, opts)
					if err != nil {
						t.Fatal(err)
					}
					// Sequential reference: one supernode at a time.
					ref, err := seqPlan.SolveWith(1, false)
					if err != nil {
						t.Fatal(err)
					}
					for _, sched := range []ScheduleKind{ScheduleDAG, ScheduleLevel} {
						o := opts
						o.Schedule = sched
						plan, err := NewPlan(g, o)
						if err != nil {
							t.Fatal(err)
						}
						res, err := plan.SolveWith(4, true)
						if err != nil {
							t.Fatal(err)
						}
						if !res.Dense().EqualTol(ref.Dense(), 1e-9) {
							t.Fatalf("%v schedule diverged from sequential elimination", sched)
						}
					}
				})
			}
		}
	}
}

// TestRunScheduleOrder pins the driver contract every numeric path relies
// on: each supernode is stepped exactly once, only after all of its
// children have returned, with locks exactly when cousins can overlap —
// across the sequential, level and DAG modes — and a cancelled context
// stops the run with ctx.Err().
func TestRunScheduleOrder(t *testing.T) {
	g := gen.RoadNetwork(16, 16, 0.3, 41)
	plan, err := NewPlan(g, Options{Ordering: OrderND, MaxBlock: 16})
	if err != nil {
		t.Fatal(err)
	}
	sn := plan.Sn
	type mode struct {
		threads  int
		parallel bool
		kind     ScheduleKind
	}
	for _, m := range []mode{{1, true, ScheduleDAG}, {4, false, ScheduleDAG}, {4, true, ScheduleLevel}, {4, true, ScheduleDAG}} {
		var mu sync.Mutex
		done := make([]int, sn.NumSupernodes())
		err := runSchedule(context.Background(), sn, m.threads, m.parallel, m.kind, func(k, inner int, locks *par.StripedMutex) {
			mu.Lock()
			defer mu.Unlock()
			for c, p := range sn.Parent {
				if p == k && done[c] != 1 {
					t.Errorf("%+v: supernode %d stepped before child %d finished", m, k, c)
				}
			}
			sequential := m.threads == 1 || !m.parallel
			if sequential && locks != nil || !sequential && m.kind == ScheduleDAG && locks == nil {
				t.Errorf("%+v: supernode %d got locks=%v", m, k, locks != nil)
			}
			if inner < 1 || inner > m.threads {
				t.Errorf("%+v: supernode %d inner budget %d", m, k, inner)
			}
			done[k]++
		})
		if err != nil {
			t.Fatalf("%+v: %v", m, err)
		}
		for k, n := range done {
			if n != 1 {
				t.Fatalf("%+v: supernode %d stepped %d times", m, k, n)
			}
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if err := runSchedule(ctx, sn, m.threads, m.parallel, m.kind, func(int, int, *par.StripedMutex) {}); !errors.Is(err, context.Canceled) {
			t.Fatalf("%+v: cancelled run returned %v", m, err)
		}
	}
}

// TestScheduleEquivalenceRandom fuzzes small random graphs (including
// disconnected ones) through both parallel schedules at several thread
// counts against the dense Floyd-Warshall reference.
func TestScheduleEquivalenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 25; trial++ {
		g := randomGraph(rng)
		want := Closure(g.ToDense())
		for _, sched := range []ScheduleKind{ScheduleDAG, ScheduleLevel} {
			opts := DefaultOptions()
			opts.Schedule = sched
			plan, err := NewPlan(g, opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, threads := range []int{2, 8} {
				res, err := plan.SolveWith(threads, true)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Dense().EqualTol(want, 1e-9) {
					t.Fatalf("trial %d: %v schedule threads=%d diverged from Floyd-Warshall", trial, sched, threads)
				}
			}
		}
	}
}

// TestSchedulePathTracking: next-hop matrices must yield valid shortest
// paths under the DAG schedule (tie-breaks may differ between schedules,
// so we validate path weight, not hop identity).
func TestSchedulePathTracking(t *testing.T) {
	g := gen.GeometricKNN(150, 2, 3, gen.WeightUniform, 23)
	opts := DefaultOptions()
	opts.TrackPaths = true
	opts.Schedule = ScheduleDAG
	plan, err := NewPlan(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := plan.SolveWith(4, true)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < g.N; u += 7 {
		for v := 0; v < g.N; v += 11 {
			d := res.At(u, v)
			path, okp := res.Path(u, v)
			if math.IsInf(d, 1) {
				if okp {
					t.Fatalf("path returned for unreachable pair (%d,%d)", u, v)
				}
				continue
			}
			if !okp {
				t.Fatalf("no path for reachable pair (%d,%d)", u, v)
			}
			var sum float64
			for i := 1; i < len(path); i++ {
				w, ok := g.Weight(path[i-1], path[i])
				if !ok {
					t.Fatalf("path (%d,%d) uses non-edge %d-%d", u, v, path[i-1], path[i])
				}
				sum += w
			}
			if math.Abs(sum-d) > 1e-9*(1+math.Abs(d)) {
				t.Fatalf("path weight %v != distance %v for (%d,%d)", sum, d, u, v)
			}
		}
	}
}

// TestFactorScheduleEquivalence: the factor-only elimination must produce
// identical SSSP rows under both schedules and sequential factorization.
func TestFactorScheduleEquivalence(t *testing.T) {
	g := gen.RoadNetwork(14, 14, 0.3, 31)
	ref := func() []float64 {
		opts := DefaultOptions()
		plan, err := NewPlan(g, opts)
		if err != nil {
			t.Fatal(err)
		}
		f, err := NewFactor(plan, 1)
		if err != nil {
			t.Fatal(err)
		}
		return f.SSSP(3)
	}()
	for _, sched := range []ScheduleKind{ScheduleDAG, ScheduleLevel} {
		opts := DefaultOptions()
		opts.Schedule = sched
		plan, err := NewPlan(g, opts)
		if err != nil {
			t.Fatal(err)
		}
		f, err := NewFactor(plan, 4)
		if err != nil {
			t.Fatal(err)
		}
		got := f.SSSP(3)
		for i := range got {
			if math.Abs(got[i]-ref[i]) > 1e-9 && !(math.IsInf(got[i], 1) && math.IsInf(ref[i], 1)) {
				t.Fatalf("%v factor: SSSP[%d] = %v, want %v", sched, i, got[i], ref[i])
			}
		}
	}
}
