package semiring

import (
	"math/rand"
	"testing"
)

func TestIntMatBasics(t *testing.T) {
	m := NewIntMat(3, 4)
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			if m.At(i, j) != -1 {
				t.Fatal("IntMat must initialize to -1")
			}
		}
	}
	m.Set(1, 2, 42)
	if m.At(1, 2) != 42 {
		t.Fatal("Set/At broken")
	}
	v := m.View(1, 1, 2, 3)
	if v.At(0, 1) != 42 {
		t.Fatal("view must alias")
	}
	v.Set(1, 2, 7)
	if m.At(2, 3) != 7 {
		t.Fatal("view write must alias")
	}
	if len(m.Row(1)) != 4 {
		t.Fatal("row length wrong")
	}
}

func TestIntMatViewBounds(t *testing.T) {
	m := NewIntMat(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range view must panic")
		}
	}()
	m.View(1, 1, 2, 2)
}

func TestInitNextHops(t *testing.T) {
	D := NewInfMat(3, 3)
	D.Set(0, 0, 0)
	D.Set(1, 1, 0)
	D.Set(2, 2, 0)
	D.Set(0, 1, 5)
	next := NewIntMat(3, 3)
	InitNextHops(D, next)
	if next.At(0, 1) != 1 {
		t.Error("edge hop should be the target")
	}
	if next.At(0, 2) != -1 {
		t.Error("non-edge hop should be -1")
	}
	if next.At(1, 1) != 1 {
		t.Error("diagonal hop should be self")
	}
}

func TestMinPlusMulAddPathsMatchesPlain(t *testing.T) {
	// Distances must be identical with and without hop tracking.
	rng := rand.New(rand.NewSource(31))
	A := randomMat(rng, 12, 15, 0.3)
	B := randomMat(rng, 15, 9, 0.3)
	C1 := randomMat(rng, 12, 9, 0.6)
	C2 := C1.Clone()
	nc := NewIntMat(12, 9)
	na := NewIntMat(12, 15)
	MinPlusMulAdd(C1, A, B)
	MinPlusMulAddPaths(C2, A, B, nc, na)
	if !C1.Equal(C2) {
		t.Fatal("path tracking changed distances")
	}
}

func TestPermuteIntMat(t *testing.T) {
	n := 4
	m := NewIntMat(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			m.Set(i, j, int32(j)) // hop stored as a vertex id
		}
	}
	perm := []int{2, 0, 3, 1}
	idMap := []int{1, 3, 0, 2} // inverse of perm
	dst := NewIntMat(n, n)
	PermuteIntMat(dst, m, perm, idMap)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			// source value was perm[j]; remapped through idMap → j.
			if dst.At(i, j) != int32(idMap[perm[j]]) {
				t.Fatalf("PermuteIntMat wrong at (%d,%d)", i, j)
			}
		}
	}
}

func TestMinPlusMatVecAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	// Widths below, at and past the four-way unrolled body, with a tail.
	for _, w := range []int{3, 9, 37} {
		A := randomMat(rng, 6, w, 0.2)
		x := make([]float64, w)
		for i := range x {
			x[i] = rng.Float64() * 5
		}
		y := make([]float64, 6)
		for i := range y {
			y[i] = Inf
		}
		MinPlusMatVecAdd(y, A, x)
		for i := 0; i < 6; i++ {
			best := Inf
			for k := 0; k < w; k++ {
				if v := A.At(i, k) + x[k]; v < best {
					best = v
				}
			}
			if y[i] != best {
				t.Fatalf("width %d: MatVec mismatch at %d", w, i)
			}
		}
	}
}

func TestFloydWarshallPathsDistancesMatchPlain(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for _, n := range []int{1, 5, 30} {
		A := randomDist(rng, n, 0.4)
		want := A.Clone()
		FloydWarshall(want)
		got := A.Clone()
		next := NewIntMat(n, n)
		InitNextHops(got, next)
		FloydWarshallPaths(got, next)
		if !got.EqualTol(want, 1e-12) {
			t.Fatalf("n=%d: paths FW changed distances", n)
		}
	}
}

func TestParallelBlockedFWPathsMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	n := 60
	A := randomDist(rng, n, 0.4)
	want := A.Clone()
	FloydWarshall(want)
	got := A.Clone()
	next := NewIntMat(n, n)
	InitNextHops(got, next)
	ParallelBlockedFloydWarshallPaths(got, next, 16, 4)
	if !got.EqualTol(want, 1e-12) {
		t.Fatal("parallel blocked paths FW changed distances")
	}
	// Hop chains valid: terminate within n hops for reachable pairs.
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u == v || got.At(u, v) == Inf {
				continue
			}
			cur, hops := u, 0
			for cur != v {
				nx := next.At(cur, v)
				if nx < 0 || hops > n {
					t.Fatalf("broken chain at (%d,%d)", u, v)
				}
				cur = int(nx)
				hops++
			}
		}
	}
}

func TestFloydWarshallStepEquivalence(t *testing.T) {
	// n applications of the single-step function equal one full FW.
	rng := rand.New(rand.NewSource(35))
	n := 20
	A := randomDist(rng, n, 0.5)
	want := A.Clone()
	FloydWarshall(want)
	got := A.Clone()
	for k := 0; k < n; k++ {
		FloydWarshallStep(got, k)
	}
	if !got.EqualTol(want, 1e-12) {
		t.Fatal("stepwise FW differs from full FW")
	}
}
