package semiring

// Max-min ("bottleneck") semiring kernels: ⊕ = max, ⊗ = min. Over this
// semiring the closure of a capacity matrix is the widest-path (maximum
// bottleneck) matrix: D[i][j] is the largest capacity c such that some
// i→j path uses only edges of capacity ≥ c.
//
// The additive identity ("no path") is -Inf and the multiplicative
// identity (empty path) is +Inf, so diagonals of capacity matrices are
// +Inf and non-edges are -Inf. The same in-place update arguments as the
// min-plus kernels hold with the order flipped: values only increase,
// every value is a real path bottleneck, and the closed diagonal block's
// +Inf diagonal makes the aliased row update a no-op.
//
// The paper frames Floyd-Warshall as Gaussian elimination over a
// semiring; these kernels plug into the identical supernodal engine
// (sparsity is a property of the pattern, not of the algebra), which is
// exactly the generality §2 and §7 of the paper argue for.

import "repro/internal/par"

// MaxMinMulAdd computes C[i][j] = max(C[i][j], max_k min(A[i][k], B[k][j])).
// It shares the adaptive dense/stream dispatch and i-sharding of
// MinPlusMulAdd, with -Inf as the "no path" value the density sampler
// and the streaming skip key on.
func MaxMinMulAdd(C, A, B Mat) {
	if A.Rows != C.Rows || B.Cols != C.Cols || A.Cols != B.Rows {
		panic("semiring: MaxMinMulAdd shape mismatch")
	}
	maxMinAdaptive(C, A, B, true)
}

// MaxMinMulAddSerial is MaxMinMulAdd pinned to the calling goroutine
// (see MinPlusMulAddSerial).
func MaxMinMulAddSerial(C, A, B Mat) {
	if A.Rows != C.Rows || B.Cols != C.Cols || A.Cols != B.Rows {
		panic("semiring: MaxMinMulAdd shape mismatch")
	}
	maxMinAdaptive(C, A, B, false)
}

func maxMinAdaptive(C, A, B Mat, allowShard bool) {
	kernelStats.calls.Add(1)
	t := CurrentGemmTuning()
	dense := wantDense(t, A, C.Cols, -Inf)
	if dense {
		kernelStats.dense.Add(1)
	} else {
		kernelStats.stream.Add(1)
	}
	run := func(C, A Mat) {
		if dense {
			maxMinDense(C, A, B, t)
		} else {
			maxMinStream(C, A, B)
		}
	}
	if allowShard && wantShard(t, C.Rows, A.Cols, C.Cols) &&
		!matOverlaps(C, A) && !matOverlaps(C, B) {
		par.ForRanges(C.Rows, 0, t.ParMinRows, func(lo, hi int) {
			kernelStats.parShards.Add(1)
			run(C.View(lo, 0, hi-lo, C.Cols), A.View(lo, 0, hi-lo, A.Cols))
		})
		return
	}
	run(C, A)
}

// maxMinDense is the packed register-blocked path over the bottleneck
// semiring.
func maxMinDense(C, A, B Mat, t GemmTuning) {
	kt, jt := t.KTile, t.JTile
	buf := getPackBuf(kt * jt)
	for k0 := 0; k0 < A.Cols; k0 += kt {
		kh := min(kt, A.Cols-k0)
		for j0 := 0; j0 < C.Cols; j0 += jt {
			jh := min(jt, C.Cols-j0)
			packTile(buf, B, k0, kh, j0, jh)
			maxMinTile(C, A, buf[:kh*jh], k0, kh, j0, jh)
		}
	}
	putPackBuf(buf)
	kernelStats.fusedOps.Add(uint64(A.Rows) * uint64(A.Cols) * uint64(C.Cols))
}

// maxMinStream is the -Inf-skip streaming path.
func maxMinStream(C, A, B Mat) {
	m := A.Cols
	negInf := -Inf
	var touched uint64
	for i := 0; i < A.Rows; i++ {
		crow := C.Row(i)
		arow := A.Row(i)
		for k := 0; k < m; k++ {
			aik := arow[k]
			if aik == negInf {
				continue // min(-Inf, b) = -Inf never improves a max
			}
			brow := B.Row(k)
			cr := crow[:len(brow)]
			touched += uint64(len(brow))
			for j, b := range brow {
				v := b
				if aik < b {
					v = aik
				}
				if v > cr[j] {
					cr[j] = v
				}
			}
		}
	}
	kernelStats.fusedOps.Add(touched)
}

// MaxMinMulAddPaths is MaxMinMulAdd with next-hop maintenance (see
// MinPlusMulAddPaths).
func MaxMinMulAddPaths(C, A, B Mat, nextC, nextA IntMat) {
	if A.Rows != C.Rows || B.Cols != C.Cols || A.Cols != B.Rows {
		panic("semiring: MaxMinMulAddPaths shape mismatch")
	}
	if nextC.Rows != C.Rows || nextC.Cols != C.Cols || nextA.Rows != A.Rows || nextA.Cols != A.Cols {
		panic("semiring: MaxMinMulAddPaths next-hop shape mismatch")
	}
	kernelStats.calls.Add(1)
	t := CurrentGemmTuning()
	dense := wantDense(t, A, C.Cols, -Inf)
	if dense {
		kernelStats.dense.Add(1)
	} else {
		kernelStats.stream.Add(1)
	}
	run := func(C, A Mat, nc, na IntMat) {
		if dense {
			maxMinPathsDense(C, A, B, nc, na, t)
		} else {
			maxMinPathsStream(C, A, B, nc, na)
		}
	}
	if wantShard(t, C.Rows, A.Cols, C.Cols) &&
		!matOverlaps(C, A) && !matOverlaps(C, B) && !overlapsInt(nextC.Data, nextA.Data) {
		par.ForRanges(C.Rows, 0, t.ParMinRows, func(lo, hi int) {
			kernelStats.parShards.Add(1)
			run(C.View(lo, 0, hi-lo, C.Cols), A.View(lo, 0, hi-lo, A.Cols),
				nextC.View(lo, 0, hi-lo, nextC.Cols), nextA.View(lo, 0, hi-lo, nextA.Cols))
		})
		return
	}
	run(C, A, nextC, nextA)
}

// maxMinPathsDense is the packed register-blocked path with next-hop
// maintenance.
func maxMinPathsDense(C, A, B Mat, nextC, nextA IntMat, t GemmTuning) {
	kt, jt := t.KTile, t.JTile
	buf := getPackBuf(kt * jt)
	for k0 := 0; k0 < A.Cols; k0 += kt {
		kh := min(kt, A.Cols-k0)
		for j0 := 0; j0 < C.Cols; j0 += jt {
			jh := min(jt, C.Cols-j0)
			packTile(buf, B, k0, kh, j0, jh)
			maxMinPathsTile(C, A, nextC, nextA, buf[:kh*jh], k0, kh, j0, jh)
		}
	}
	putPackBuf(buf)
	kernelStats.fusedOps.Add(uint64(A.Rows) * uint64(A.Cols) * uint64(C.Cols))
}

// maxMinPathsStream is the -Inf-skip streaming path with next-hop
// maintenance.
func maxMinPathsStream(C, A, B Mat, nextC, nextA IntMat) {
	m := A.Cols
	negInf := -Inf
	var touched uint64
	for i := 0; i < A.Rows; i++ {
		crow := C.Row(i)
		arow := A.Row(i)
		ncrow := nextC.Row(i)
		narow := nextA.Row(i)
		for k := 0; k < m; k++ {
			aik := arow[k]
			if aik == negInf {
				continue
			}
			hop := narow[k]
			brow := B.Row(k)
			cr := crow[:len(brow)]
			nr := ncrow[:len(brow)]
			touched += uint64(len(brow))
			for j, b := range brow {
				v := b
				if aik < b {
					v = aik
				}
				if v > cr[j] {
					cr[j] = v
					nr[j] = hop
				}
			}
		}
	}
	kernelStats.fusedOps.Add(touched)
}

// MaxMinVecMatAdd computes y = y ⊕ (x ⊗ A) over the bottleneck
// semiring for a row vector x (len = A.Rows) and y (len = A.Cols),
// with the same -Inf fast path as MinPlusVecMatAdd: a -Inf entry of x
// bottlenecks every candidate to -Inf, so its whole A-row pass is
// skipped. The SSSP sweeps over widest-path factors hit that
// constantly (ancestor panels unreachable from the source).
func MaxMinVecMatAdd(y, x []float64, A Mat) {
	if len(x) != A.Rows || len(y) != A.Cols {
		panic("semiring: MaxMinVecMatAdd shape mismatch")
	}
	negInf := -Inf
	for k, xk := range x {
		if xk == negInf {
			continue // min(-Inf, a) = -Inf never improves a max
		}
		arow := A.Row(k)
		yy := y[:len(arow)]
		for j, a := range arow {
			v := a
			if xk < a {
				v = xk
			}
			if v > yy[j] {
				yy[j] = v
			}
		}
	}
}

// MaxMinMatVecAdd computes y = y ⊕ (A ⊗ x) over the bottleneck
// semiring for a column vector x (len = A.Cols) and y (len = A.Rows),
// mirroring MinPlusMatVecAdd: an all--Inf x returns immediately, and
// each row's max-reduction runs on four independent accumulators.
func MaxMinMatVecAdd(y []float64, A Mat, x []float64) {
	if len(x) != A.Cols || len(y) != A.Rows {
		panic("semiring: MaxMinMatVecAdd shape mismatch")
	}
	negInf := -Inf
	finite := false
	for _, v := range x {
		if v != negInf {
			finite = true
			break
		}
	}
	if !finite {
		return
	}
	for i := 0; i < A.Rows; i++ {
		arow := A.Row(i)
		xx := x[:len(arow)]
		b0, b1, b2, b3 := y[i], negInf, negInf, negInf
		k := 0
		for ; k+4 <= len(arow); k += 4 {
			a4, x4 := arow[k:k+4:k+4], xx[k:k+4:k+4]
			if v := bottleneck(a4[0], x4[0]); v > b0 {
				b0 = v
			}
			if v := bottleneck(a4[1], x4[1]); v > b1 {
				b1 = v
			}
			if v := bottleneck(a4[2], x4[2]); v > b2 {
				b2 = v
			}
			if v := bottleneck(a4[3], x4[3]); v > b3 {
				b3 = v
			}
		}
		for ; k < len(arow); k++ {
			if v := bottleneck(arow[k], xx[k]); v > b0 {
				b0 = v
			}
		}
		if b1 > b0 {
			b0 = b1
		}
		if b3 > b2 {
			b2 = b3
		}
		if b2 > b0 {
			b0 = b2
		}
		y[i] = b0
	}
}

// bottleneck is the max-min ⊗: the smaller of two capacities. Unlike
// the builtin min it skips NaN and signed-zero handling, which the
// semiring's values (finite or ±Inf) never need.
func bottleneck(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

// MaxMinFloydWarshall computes the max-min closure in place.
func MaxMinFloydWarshall(A Mat) {
	n := A.Rows
	if A.Cols != n {
		panic("semiring: MaxMinFloydWarshall requires a square matrix")
	}
	negInf := -Inf
	for k := 0; k < n; k++ {
		krow := A.Row(k)
		for i := 0; i < n; i++ {
			irow := A.Row(i)
			aik := irow[k]
			if aik == negInf {
				continue
			}
			kr := krow[:len(irow)]
			for j, bkj := range kr {
				v := bkj
				if aik < bkj {
					v = aik
				}
				if v > irow[j] {
					irow[j] = v
				}
			}
		}
	}
}

// MaxMinFloydWarshallPaths is MaxMinFloydWarshall with next-hop tracking.
func MaxMinFloydWarshallPaths(A Mat, next IntMat) {
	n := A.Rows
	if A.Cols != n || next.Rows != n || next.Cols != n {
		panic("semiring: MaxMinFloydWarshallPaths shape mismatch")
	}
	negInf := -Inf
	for k := 0; k < n; k++ {
		krow := A.Row(k)
		for i := 0; i < n; i++ {
			irow := A.Row(i)
			aik := irow[k]
			if aik == negInf {
				continue
			}
			nrow := next.Row(i)
			hop := nrow[k]
			kr := krow[:len(irow)]
			for j, bkj := range kr {
				v := bkj
				if aik < bkj {
					v = aik
				}
				if v > irow[j] {
					irow[j] = v
					nrow[j] = hop
				}
			}
		}
	}
}
