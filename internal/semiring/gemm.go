package semiring

// This file implements the dense min-plus matrix product, the
// "SemiringGemm" kernel of the paper (§5.1.2). All three Floyd-Warshall
// variants (BlockedFw, SuperBfs, SuperFw) funnel their block updates
// through this kernel, so its throughput sets the machine balance of the
// whole FW family.
//
// The kernel computes C = C ⊕ (A ⊗ B), elementwise
//
//	C[i][j] = min(C[i][j], min_k A[i][k] + B[k][j]).
//
// It is an adaptive engine with two kernel families behind one dispatch:
//
//   - Stream: the i-k-j loop with an aik == Inf skip. For a fixed output
//     row C[i] it streams rows of B, pruning a whole B-row pass per Inf
//     entry of A. Distance operands are mostly Inf through the early
//     eliminations, so skipped passes beat any amount of blocking there.
//   - Dense: B tiles are packed into contiguous cache-aligned scratch
//     (pack.go) and a register-blocked micro-kernel (microkernel.go)
//     updates 4 C rows per pass with a 2-way k-unroll and branchless
//     min. Near-dense operands — late eliminations, root separators —
//     have nothing to skip, and amortizing B-row loads over four C rows
//     wins there instead.
//
// Dispatch samples A's density per call (each call is one panel/tile
// update of the supernodal solve) and compares against the autotunable
// GemmTuning thresholds. Large alias-free GEMMs additionally shard
// their i-range across workers, so one huge root-separator update no
// longer runs on a single core.
//
// In-place aliasing: C may alias A or B when the other operand is a
// closed block with a zero diagonal (the panel updates rely on this).
// The packed path snapshots B tiles before each i-sweep, so aliased
// calls read values between the original and final C — every one a real
// path length, by induction — and monotone relaxation still lands on
// exactly the single-pass fixpoint the streaming kernel computes. The
// i-shard path is the one place aliasing would race, so the dispatch
// detects overlap (pack.go) and falls back to the serial engine.

import "repro/internal/par"

// MinPlusMulAdd computes C = C ⊕ A ⊗ B over the tropical semiring.
// A is r×m, B is m×c. C may alias A or B under the rules above.
func MinPlusMulAdd(C, A, B Mat) {
	if A.Rows != C.Rows || B.Cols != C.Cols || A.Cols != B.Rows {
		panic("semiring: MinPlusMulAdd shape mismatch")
	}
	minPlusAdaptive(C, A, B, true)
}

// MinPlusMulAddSerial is MinPlusMulAdd pinned to the calling goroutine:
// the adaptive dense/stream dispatch still applies, but the i-range is
// never sharded across workers. Callers that multiplex many logical
// actors onto goroutines (the dist simulation's ranks) use it to keep
// one GEMM from oversubscribing the scheduler.
func MinPlusMulAddSerial(C, A, B Mat) {
	if A.Rows != C.Rows || B.Cols != C.Cols || A.Cols != B.Rows {
		panic("semiring: MinPlusMulAdd shape mismatch")
	}
	minPlusAdaptive(C, A, B, false)
}

func minPlusAdaptive(C, A, B Mat, allowShard bool) {
	kernelStats.calls.Add(1)
	t := CurrentGemmTuning()
	dense := wantDense(t, A, C.Cols, Inf)
	if dense {
		kernelStats.dense.Add(1)
	} else {
		kernelStats.stream.Add(1)
	}
	run := func(C, A Mat) {
		if dense {
			minPlusDense(C, A, B, t)
		} else {
			minPlusStream(C, A, B, t)
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

// wantDense decides the dense/stream dispatch: the call must be big
// enough to amortize packing, and a strided sample of A must be at
// least DenseMinFinite finite.
func wantDense(t GemmTuning, A Mat, cols int, zero float64) bool {
	if A.Rows < 8 || A.Rows*A.Cols*cols < t.DenseMinOps {
		return false
	}
	return sampleFinite(A, zero) >= t.DenseMinFinite
}

// wantShard decides i-range sharding (the caller still vetoes aliased
// operands).
func wantShard(t GemmTuning, rows, m, cols int) bool {
	return rows >= 2*t.ParMinRows && rows*m*cols >= t.ParMinOps && par.DefaultThreads(0) > 1
}

// minPlusDense is the packed register-blocked path: pack each
// KTile×JTile tile of B once, then sweep all rows of A over it.
func minPlusDense(C, A, B Mat, t GemmTuning) {
	kt, jt := t.KTile, t.JTile
	buf := getPackBuf(kt * jt)
	for k0 := 0; k0 < A.Cols; k0 += kt {
		kh := min(kt, A.Cols-k0)
		for j0 := 0; j0 < C.Cols; j0 += jt {
			jh := min(jt, C.Cols-j0)
			packTile(buf, B, k0, kh, j0, jh)
			minPlusTile(C, A, buf[:kh*jh], k0, kh, j0, jh)
		}
	}
	putPackBuf(buf)
	kernelStats.fusedOps.Add(uint64(A.Rows) * uint64(A.Cols) * uint64(C.Cols))
}

// minPlusStream is the Inf-skip streaming path, tiled over (k, j) when
// the operands exceed GemmSmall so B tiles stay cache-resident across
// the i-sweep.
func minPlusStream(C, A, B Mat, t GemmTuning) {
	if B.Cols <= t.GemmSmall && B.Rows <= t.GemmSmall {
		minPlusStreamDirect(C, A, B)
		return
	}
	for k0 := 0; k0 < A.Cols; k0 += t.KTile {
		kh := min(t.KTile, A.Cols-k0)
		for j0 := 0; j0 < C.Cols; j0 += t.JTile {
			jh := min(t.JTile, C.Cols-j0)
			minPlusStreamDirect(C.View(0, j0, C.Rows, jh), A.View(0, k0, A.Rows, kh), B.View(k0, j0, kh, jh))
		}
	}
}

// minPlusStreamDirect is the untiled i-k-j kernel: the aik == Inf skip
// prunes whole B-row passes, and the rarely-taken store branch keeps
// the common path load-only.
func minPlusStreamDirect(C, A, B Mat) {
	m := A.Cols
	var touched uint64
	for i := 0; i < A.Rows; i++ {
		crow := C.Row(i)
		arow := A.Row(i)
		for k := 0; k < m; k++ {
			aik := arow[k]
			if aik == Inf {
				continue // a ⊗ Inf = Inf never improves c
			}
			brow := B.Row(k)
			// Inner fused add-min. len(brow) == len(crow) by
			// construction; the explicit slice re-bound lets the
			// compiler eliminate bounds checks.
			cr := crow[:len(brow)]
			touched += uint64(len(brow))
			for j, b := range brow {
				if v := aik + b; v < cr[j] {
					cr[j] = v
				}
			}
		}
	}
	kernelStats.fusedOps.Add(touched)
}

// Reference-kernel tile sizes, frozen at the pre-adaptive values so
// benchmark baselines stay comparable across tuning changes.
const (
	refKTile     = 64
	refJTile     = 512
	refGemmSmall = 768
)

// MinPlusMulAddReference is the pre-adaptive seed kernel, byte-for-byte
// the old MinPlusMulAdd: the streaming loop with fixed (k, j) tiling
// and no dispatch, packing, sharding, or counters. Benchmarks use it as
// the baseline the adaptive engine is measured against; it is not on
// any production path.
func MinPlusMulAddReference(C, A, B Mat) {
	if A.Rows != C.Rows || B.Cols != C.Cols || A.Cols != B.Rows {
		panic("semiring: MinPlusMulAddReference shape mismatch")
	}
	if B.Cols <= refGemmSmall && B.Rows <= refGemmSmall {
		minPlusReferenceDirect(C, A, B)
		return
	}
	for k0 := 0; k0 < A.Cols; k0 += refKTile {
		kh := min(refKTile, A.Cols-k0)
		for j0 := 0; j0 < C.Cols; j0 += refJTile {
			jh := min(refJTile, C.Cols-j0)
			minPlusReferenceDirect(C.View(0, j0, C.Rows, jh), A.View(0, k0, A.Rows, kh), B.View(k0, j0, kh, jh))
		}
	}
}

// minPlusReferenceDirect is minPlusStreamDirect without the counter.
func minPlusReferenceDirect(C, A, B Mat) {
	m := A.Cols
	for i := 0; i < A.Rows; i++ {
		crow := C.Row(i)
		arow := A.Row(i)
		for k := 0; k < m; k++ {
			aik := arow[k]
			if aik == Inf {
				continue
			}
			brow := B.Row(k)
			cr := crow[:len(brow)]
			for j, b := range brow {
				if v := aik + b; v < cr[j] {
					cr[j] = v
				}
			}
		}
	}
}

// MinPlusMul computes and returns A ⊗ B (allocating the result).
func MinPlusMul(A, B Mat) Mat {
	C := NewInfMat(A.Rows, B.Cols)
	MinPlusMulAdd(C, A, B)
	return C
}

// MinPlusVecMatAdd computes y = y ⊕ (x ⊗ A) for a row vector x (len =
// A.Rows) and y (len = A.Cols). Used by scalar (non-supernodal) fallbacks.
func MinPlusVecMatAdd(y, x []float64, A Mat) {
	if len(x) != A.Rows || len(y) != A.Cols {
		panic("semiring: MinPlusVecMatAdd shape mismatch")
	}
	for k, xk := range x {
		if xk == Inf {
			continue
		}
		arow := A.Row(k)
		yy := y[:len(arow)]
		for j, a := range arow {
			if v := xk + a; v < yy[j] {
				yy[j] = v
			}
		}
	}
}

// MinPlusMatVecAdd computes y = y ⊕ (A ⊗ x) for a column vector x (len =
// A.Cols) and y (len = A.Rows). Used by the factor's down sweep, where A
// is a whole up panel. Each row is a min-reduction, run on four
// independent accumulators so the compare chain does not serialize the
// loop; min is exact, so the split does not change the result.
func MinPlusMatVecAdd(y []float64, A Mat, x []float64) {
	if len(x) != A.Cols || len(y) != A.Rows {
		panic("semiring: MinPlusMatVecAdd shape mismatch")
	}
	// Zero fast path: an all-Inf x can improve nothing, and reverse
	// sweeps hit that constantly (ancestor panels above vertices with no
	// path to the query target).
	finite := false
	for _, v := range x {
		if v != Inf {
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
		b0, b1, b2, b3 := y[i], Inf, Inf, Inf
		k := 0
		for ; k+4 <= len(arow); k += 4 {
			a4, x4 := arow[k:k+4:k+4], xx[k:k+4:k+4]
			if v := a4[0] + x4[0]; v < b0 {
				b0 = v
			}
			if v := a4[1] + x4[1]; v < b1 {
				b1 = v
			}
			if v := a4[2] + x4[2]; v < b2 {
				b2 = v
			}
			if v := a4[3] + x4[3]; v < b3 {
				b3 = v
			}
		}
		for ; k < len(arow); k++ {
			if v := arow[k] + xx[k]; v < b0 {
				b0 = v
			}
		}
		if b1 < b0 {
			b0 = b1
		}
		if b3 < b2 {
			b2 = b3
		}
		if b2 < b0 {
			b0 = b2
		}
		y[i] = b0
	}
}

// EwiseMinInto computes dst = dst ⊕ src elementwise.
func EwiseMinInto(dst, src Mat) {
	if dst.Rows != src.Rows || dst.Cols != src.Cols {
		panic("semiring: EwiseMinInto shape mismatch")
	}
	for i := 0; i < dst.Rows; i++ {
		drow, srow := dst.Row(i), src.Row(i)
		for j, v := range srow {
			if v < drow[j] {
				drow[j] = v
			}
		}
	}
}
