// Package semiring implements dense kernels over the tropical (min,+)
// semiring: strided matrix views, min-plus matrix multiplication
// ("SemiringGemm" in the paper), and dense Floyd-Warshall kernels.
//
// In the tropical semiring the additive identity is +Inf (an undiscovered
// path) and the multiplicative identity is 0 (an empty path), so a matrix
// "multiply-add" C = C ⊕ A ⊗ B computes, for every (i,j), the shortest
// path from i to j through one intermediate block of vertices.
package semiring

import (
	"fmt"
	"math"
)

// Inf is the additive identity of the tropical semiring: the distance
// between vertices with no discovered path.
var Inf = math.Inf(1)

// Plus is the semiring addition ⊕ (min).
func Plus(x, y float64) float64 {
	if x < y {
		return x
	}
	return y
}

// Times is the semiring multiplication ⊗ (+). It is saturating: the sum of
// anything with Inf is Inf (IEEE float64 addition already guarantees this).
func Times(x, y float64) float64 { return x + y }

// Mat is a dense row-major matrix view. A Mat may alias a sub-block of a
// larger matrix; Stride is the distance in elements between the starts of
// consecutive rows.
type Mat struct {
	Data   []float64
	Stride int
	Rows   int
	Cols   int
}

// NewMat allocates a Rows×Cols matrix initialized to zero.
func NewMat(rows, cols int) Mat {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("semiring: invalid dimensions %d×%d", rows, cols))
	}
	return Mat{Data: make([]float64, rows*cols), Stride: cols, Rows: rows, Cols: cols}
}

// NewInfMat allocates a Rows×Cols matrix filled with Inf (the semiring zero).
func NewInfMat(rows, cols int) Mat {
	m := NewMat(rows, cols)
	m.Fill(Inf)
	return m
}

// View returns the r×c sub-block of m whose top-left corner is (i, j).
// The view aliases m's storage.
func (m Mat) View(i, j, r, c int) Mat {
	if i < 0 || j < 0 || r < 0 || c < 0 || i+r > m.Rows || j+c > m.Cols {
		panic(fmt.Sprintf("semiring: view [%d:%d, %d:%d] out of range of %d×%d",
			i, i+r, j, j+c, m.Rows, m.Cols))
	}
	off := i*m.Stride + j
	end := off
	if r > 0 && c > 0 {
		end = off + (r-1)*m.Stride + c
	}
	return Mat{Data: m.Data[off:end:end], Stride: m.Stride, Rows: r, Cols: c}
}

// At returns the element at row i, column j.
func (m Mat) At(i, j int) float64 { return m.Data[i*m.Stride+j] }

// Set stores v at row i, column j.
func (m Mat) Set(i, j int, v float64) { m.Data[i*m.Stride+j] = v }

// Row returns row i as a slice aliasing m's storage.
func (m Mat) Row(i int) []float64 {
	off := i * m.Stride
	return m.Data[off : off+m.Cols : off+m.Cols]
}

// Fill sets every element of m to v.
func (m Mat) Fill(v float64) {
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j := range row {
			row[j] = v
		}
	}
}

// Copy copies src into m. The shapes must match.
func (m Mat) Copy(src Mat) {
	if m.Rows != src.Rows || m.Cols != src.Cols {
		panic(fmt.Sprintf("semiring: copy shape mismatch %d×%d vs %d×%d",
			m.Rows, m.Cols, src.Rows, src.Cols))
	}
	for i := 0; i < m.Rows; i++ {
		copy(m.Row(i), src.Row(i))
	}
}

// TransposeFrom sets m to srcᵀ; m must be src.Cols × src.Rows and must
// not alias src. The copy runs in square tiles so both sides stay in
// cache whatever the strides.
func (m Mat) TransposeFrom(src Mat) {
	if m.Rows != src.Cols || m.Cols != src.Rows {
		panic(fmt.Sprintf("semiring: transpose shape mismatch %d×%d vs %d×%d",
			m.Rows, m.Cols, src.Rows, src.Cols))
	}
	const tile = 32
	for i0 := 0; i0 < src.Rows; i0 += tile {
		i1 := min(i0+tile, src.Rows)
		for j0 := 0; j0 < src.Cols; j0 += tile {
			j1 := min(j0+tile, src.Cols)
			for i := i0; i < i1; i++ {
				row := src.Data[i*src.Stride : i*src.Stride+j1]
				for j := j0; j < j1; j++ {
					m.Data[j*m.Stride+i] = row[j]
				}
			}
		}
	}
}

// Clone returns a freshly allocated copy of m with a compact stride.
func (m Mat) Clone() Mat {
	out := NewMat(m.Rows, m.Cols)
	out.Copy(m)
	return out
}

// Equal reports whether m and b have the same shape and identical elements.
// Inf entries compare equal to each other.
func (m Mat) Equal(b Mat) bool {
	if m.Rows != b.Rows || m.Cols != b.Cols {
		return false
	}
	for i := 0; i < m.Rows; i++ {
		ra, rb := m.Row(i), b.Row(i)
		for j := range ra {
			//lint:ignore nanguard Equal is deliberately bitwise: the differential tests demand exact agreement, and NaN-never-equal is the desired verdict
			if ra[j] != rb[j] && !(math.IsInf(ra[j], 1) && math.IsInf(rb[j], 1)) {
				return false
			}
		}
	}
	return true
}

// EqualTol reports whether m and b have the same shape and elements equal
// within absolute tolerance tol. Inf entries must match exactly.
func (m Mat) EqualTol(b Mat, tol float64) bool {
	if m.Rows != b.Rows || m.Cols != b.Cols {
		return false
	}
	for i := 0; i < m.Rows; i++ {
		ra, rb := m.Row(i), b.Row(i)
		for j := range ra {
			x, y := ra[j], rb[j]
			if math.IsInf(x, 1) || math.IsInf(y, 1) {
				if math.IsInf(x, 1) != math.IsInf(y, 1) {
					return false
				}
				continue
			}
			if math.Abs(x-y) > tol {
				return false
			}
		}
	}
	return true
}

// IsSymmetric reports whether the square matrix m equals its transpose.
func (m Mat) IsSymmetric() bool {
	if m.Rows != m.Cols {
		return false
	}
	for i := 0; i < m.Rows; i++ {
		for j := i + 1; j < m.Cols; j++ {
			x, y := m.At(i, j), m.At(j, i)
			//lint:ignore nanguard symmetry is a bitwise structural check, same contract as Equal
			if x != y && !(math.IsInf(x, 1) && math.IsInf(y, 1)) {
				return false
			}
		}
	}
	return true
}

// CountFinite returns the number of non-Inf entries in m.
func (m Mat) CountFinite() int {
	n := 0
	for i := 0; i < m.Rows; i++ {
		for _, v := range m.Row(i) {
			if !math.IsInf(v, 1) {
				n++
			}
		}
	}
	return n
}

// Permute writes into dst the matrix m with rows and columns permuted so
// that dst[i][j] = m[perm[i]][perm[j]]. dst must be square with the same
// dimension as m and must not alias it.
func Permute(dst, m Mat, perm []int) {
	n := m.Rows
	if m.Cols != n || dst.Rows != n || dst.Cols != n || len(perm) != n {
		panic("semiring: Permute shape mismatch")
	}
	for i := 0; i < n; i++ {
		drow := dst.Row(i)
		srow := m.Row(perm[i])
		for j := 0; j < n; j++ {
			drow[j] = srow[perm[j]]
		}
	}
}
