package semiring

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randomMat(rng *rand.Rand, r, c int, infFrac float64) Mat {
	m := NewMat(r, c)
	for i := 0; i < r; i++ {
		row := m.Row(i)
		for j := range row {
			if rng.Float64() < infFrac {
				row[j] = Inf
			} else {
				row[j] = rng.Float64() * 10
			}
		}
	}
	return m
}

// randomDist returns a random symmetric "distance-like" square matrix:
// zero diagonal, symmetric finite/Inf pattern.
func randomDist(rng *rand.Rand, n int, infFrac float64) Mat {
	m := NewInfMat(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 0)
		for j := i + 1; j < n; j++ {
			if rng.Float64() >= infFrac {
				w := 0.1 + rng.Float64()*10
				m.Set(i, j, w)
				m.Set(j, i, w)
			}
		}
	}
	return m
}

func TestPlusTimes(t *testing.T) {
	if Plus(3, 5) != 3 || Plus(5, 3) != 3 {
		t.Error("Plus should be min")
	}
	if Times(3, 5) != 8 {
		t.Error("Times should be +")
	}
	if !math.IsInf(Times(3, Inf), 1) || !math.IsInf(Times(Inf, Inf), 1) {
		t.Error("Times must saturate at Inf")
	}
	if Plus(3, Inf) != 3 {
		t.Error("Inf is the ⊕ identity")
	}
	if Times(0, 7) != 7 {
		t.Error("0 is the ⊗ identity")
	}
}

func TestSemiringAxiomsQuick(t *testing.T) {
	cfg := &quick.Config{MaxCount: 500}
	clamp := func(x float64) float64 {
		if math.IsNaN(x) {
			return 0
		}
		return math.Mod(math.Abs(x), 1e6)
	}
	// ⊕ associative/commutative, ⊗ associative, ⊗ distributes over ⊕.
	if err := quick.Check(func(a, b, c float64) bool {
		a, b, c = clamp(a), clamp(b), clamp(c)
		if Plus(Plus(a, b), c) != Plus(a, Plus(b, c)) {
			return false
		}
		if Plus(a, b) != Plus(b, a) {
			return false
		}
		if Times(Times(a, b), c) != Times(a, Times(b, c)) {
			return false
		}
		lhs := Times(a, Plus(b, c))
		rhs := Plus(Times(a, b), Times(a, c))
		return math.Abs(lhs-rhs) < 1e-9
	}, cfg); err != nil {
		t.Error(err)
	}
}

func TestMatViewAliasing(t *testing.T) {
	m := NewMat(6, 8)
	v := m.View(2, 3, 3, 4)
	v.Set(0, 0, 42)
	if m.At(2, 3) != 42 {
		t.Error("view must alias parent storage")
	}
	if v.Rows != 3 || v.Cols != 4 {
		t.Error("view shape wrong")
	}
	v2 := v.View(1, 1, 2, 2)
	v2.Set(1, 1, 7)
	if m.At(4, 5) != 7 {
		t.Error("nested view must alias parent storage")
	}
}

func TestMatViewBounds(t *testing.T) {
	m := NewMat(4, 4)
	for _, bad := range [][4]int{{0, 0, 5, 1}, {0, 0, 1, 5}, {-1, 0, 1, 1}, {3, 3, 2, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("View%v should panic", bad)
				}
			}()
			m.View(bad[0], bad[1], bad[2], bad[3])
		}()
	}
	// Zero-size views are fine.
	z := m.View(2, 2, 0, 0)
	if z.Rows != 0 || z.Cols != 0 {
		t.Error("zero view shape")
	}
}

func TestCloneCopyEqual(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := randomMat(rng, 5, 7, 0.3)
	c := m.Clone()
	if !c.Equal(m) {
		t.Error("clone must equal source")
	}
	c.Set(1, 1, -99)
	if c.Equal(m) {
		t.Error("clone must not alias source")
	}
	d := NewMat(5, 7)
	d.Copy(m)
	if !d.Equal(m) {
		t.Error("copy must equal source")
	}
	// Inf == Inf under Equal
	a := NewInfMat(2, 2)
	b := NewInfMat(2, 2)
	if !a.Equal(b) {
		t.Error("all-Inf matrices should be equal")
	}
}

func TestTransposeFrom(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	// Views with strides wider than their rows, and shapes that are not
	// multiples of the tile, on both sides.
	big := randomMat(rng, 70, 90, 0.3)
	src := big.View(3, 5, 67, 41)
	dst := NewInfMat(50, 80).View(2, 1, 41, 67)
	dst.TransposeFrom(src)
	for i := 0; i < src.Rows; i++ {
		for j := 0; j < src.Cols; j++ {
			if dst.At(j, i) != src.At(i, j) {
				t.Fatalf("transpose (%d,%d) = %v, want %v", j, i, dst.At(j, i), src.At(i, j))
			}
		}
	}
}

func TestEqualTol(t *testing.T) {
	a := NewMat(2, 2)
	b := NewMat(2, 2)
	b.Set(0, 0, 1e-12)
	if !a.EqualTol(b, 1e-9) {
		t.Error("should match within tolerance")
	}
	b.Set(0, 0, 1)
	if a.EqualTol(b, 1e-9) {
		t.Error("should differ")
	}
	b.Set(0, 0, Inf)
	if a.EqualTol(b, 1e9) {
		t.Error("Inf vs finite must never match")
	}
}

func TestPermute(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := 9
	m := randomDist(rng, n, 0.4)
	perm := rng.Perm(n)
	out := NewMat(n, n)
	Permute(out, m, perm)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if out.At(i, j) != m.At(perm[i], perm[j]) {
				t.Fatalf("Permute wrong at (%d,%d)", i, j)
			}
		}
	}
	// Permute then inverse-permute is identity.
	iperm := make([]int, n)
	for i, p := range perm {
		iperm[p] = i
	}
	back := NewMat(n, n)
	Permute(back, out, iperm)
	if !back.Equal(m) {
		t.Error("permute ∘ inverse-permute must be identity")
	}
}

func TestCountFiniteAndSymmetric(t *testing.T) {
	m := NewInfMat(3, 3)
	if m.CountFinite() != 0 {
		t.Error("all-Inf has 0 finite")
	}
	m.Set(0, 1, 2)
	m.Set(1, 0, 2)
	if m.CountFinite() != 2 {
		t.Error("count finite wrong")
	}
	if !m.IsSymmetric() {
		t.Error("should be symmetric")
	}
	m.Set(0, 2, 5)
	if m.IsSymmetric() {
		t.Error("should be asymmetric")
	}
}

func TestIsSymmetricNonSquare(t *testing.T) {
	if NewMat(2, 3).IsSymmetric() {
		t.Error("non-square is never symmetric")
	}
}
