package semiring

// Fused multi-stage supernodal kernel support.
//
// The staged engine (gemm.go) re-packs its B operand into tiles on
// every MulAdd call. A supernode elimination reuses the same operands
// many times over — the diagonal block feeds every panel update and
// each up-panel section feeds a whole row of the outer-scatter grid —
// so the staged path re-stages identical tiles O(panels²) times per
// supernode. PackedPanel packs an operand ONCE into cache-aligned
// KTile×JTile tiles, and the MulAddPacked entry points run the same
// register-blocked/SIMD micro-kernels directly against those resident
// tiles. Combined with the per-phase timers below, core's elimination
// becomes a fused Diag→Panel→Outer pipeline: the diagonal closure's
// result is packed while still warm, panel results scatter into the
// outer grid against resident tiles, and nothing round-trips through a
// fresh pack of the distance matrix.
//
// Correctness: a PackedPanel is a snapshot of B taken at PackPanel
// time and is immutable afterwards, so the packed operand MUST NOT
// alias the destination C (the apspvet aliascheck analyzer enforces
// this at the call sites). Tile geometry, visit order, and micro-
// kernels are identical to the staged dense path, and dense and stream
// agree exactly for these semirings (min/max over identical candidate
// sets — no rounding differences), so fused results are bitwise equal
// to the staged three-call path; fused_test.go holds that equality
// under fuzzing.

import (
	"sync/atomic"
	"time"
)

// Phase identifies one stage of a supernode elimination for the
// process-wide per-phase timing counters (stats.go).
type Phase uint8

const (
	PhaseDiag Phase = iota
	PhasePanel
	PhaseOuter
)

// AddPhaseTime accumulates wall time into a phase counter. Callers
// time whole elimination stages (two clock reads per stage), not
// individual kernel calls.
func AddPhaseTime(p Phase, d time.Duration) {
	if d <= 0 {
		return
	}
	switch p {
	case PhaseDiag:
		kernelStats.diagNS.Add(uint64(d))
	case PhasePanel:
		kernelStats.panelNS.Add(uint64(d))
	case PhaseOuter:
		kernelStats.outerNS.Add(uint64(d))
	}
}

// PackedPanel is a B operand packed once for reuse across many
// MulAddPacked sweeps. Immutable after PackPanel except for the
// atomic use counter, so concurrent consumers need no locking; Release
// must only be called after every consumer has returned.
type PackedPanel struct {
	src  Mat     // original operand, kept for the stream fallback
	zero float64 // the semiring's "no path" value
	// Geometry is snapshotted at pack time: the process-wide tuning may
	// be swapped between pack and use, and the sweep must match the
	// layout the tiles were packed with.
	kt, jt int
	njb    int
	off    []int // tile offsets, row-major by (kb, jb); len nkb*njb+1
	buf    []float64
	bytes  uint64
	uses   atomic.Uint64
}

// PackPanel packs B into KTile×JTile tiles for the fused pipeline.
// When B samples sparser than FusedMinFinite the panel stays in
// "stream mode": no scratch is taken and consumers run the Inf-skip
// streaming kernel against the original operand — packing a panel of
// mostly-Inf rows would pay full staging cost for work the stream
// kernel skips.
//
// zero is the semiring's annihilator (+Inf for min-plus, -Inf for
// max-min); use Kernels.PackPanel to supply it from a kernel set.
func PackPanel(B Mat, zero float64) *PackedPanel {
	t := CurrentGemmTuning()
	p := &PackedPanel{src: B, zero: zero, kt: t.KTile, jt: t.JTile}
	if B.Rows == 0 || B.Cols == 0 || sampleFinite(B, zero) < t.FusedMinFinite {
		return p
	}
	nkb := (B.Rows + p.kt - 1) / p.kt
	njb := (B.Cols + p.jt - 1) / p.jt
	p.njb = njb
	p.off = make([]int, nkb*njb+1)
	total := 0
	for kb := 0; kb < nkb; kb++ {
		kh := min(p.kt, B.Rows-kb*p.kt)
		for jb := 0; jb < njb; jb++ {
			p.off[kb*njb+jb] = total
			total += kh * min(p.jt, B.Cols-jb*p.jt)
		}
	}
	p.off[nkb*njb] = total
	p.buf = getPackBuf(total)
	for kb := 0; kb < nkb; kb++ {
		k0 := kb * p.kt
		kh := min(p.kt, B.Rows-k0)
		for jb := 0; jb < njb; jb++ {
			j0 := jb * p.jt
			jh := min(p.jt, B.Cols-j0)
			o := p.off[kb*njb+jb]
			packTile(p.buf[o:o+kh*jh], B, k0, kh, j0, jh)
		}
	}
	p.bytes = uint64(total) * 8
	return p
}

// Packed reports whether the panel was eagerly packed (dense mode)
// rather than left in stream mode.
func (p *PackedPanel) Packed() bool { return p.buf != nil }

// Release returns the packed scratch to the pool. The panel must not
// be used after Release.
func (p *PackedPanel) Release() {
	if p.buf != nil {
		putPackBuf(p.buf)
		p.buf = nil
	}
}

// tile returns the packed kh×jh tile at block coordinates (kb, jb).
func (p *PackedPanel) tile(kb, jb, kh, jh int) []float64 {
	o := p.off[kb*p.njb+jb]
	return p.buf[o : o+kh*jh]
}

// dense decides the consumer-side dispatch: sweep the resident tiles
// when the panel is packed and A samples dense enough, else stream.
// There is no DenseMinOps floor here — the pack is already paid, so
// even a small A sweep against resident tiles beats re-staging.
func (p *PackedPanel) dense(A Mat) bool {
	return p.buf != nil && sampleFinite(A, p.zero) >= CurrentGemmTuning().DenseMinFinite
}

// countUse bumps the reuse counter: every dense sweep after the first
// re-reads tiles the staged path would have re-packed.
func (p *PackedPanel) countUse() {
	if p.uses.Add(1) > 1 {
		kernelStats.packedReuseBytes.Add(p.bytes)
	}
}

func packedShapeCheck(C, A Mat, P *PackedPanel, name string) {
	if A.Rows != C.Rows || A.Cols != P.src.Rows || P.src.Cols != C.Cols {
		panic("semiring: " + name + " shape mismatch")
	}
}

// fusedRowBlock is the C/A row-panel height of the packed sweeps. The
// staged dense path interleaves packing with the sweep, so it walks all
// of C once per k-block; with the tiles already resident the fused
// sweep can instead finish a whole row panel across every (kb, jb)
// tile before advancing, keeping the C and A panels L2-resident while
// the packed tiles stream. Row blocking only reorders WHICH (i, j)
// cells are visited when — each cell still sees its k candidates in
// ascending kb order — so results stay bitwise identical.
const fusedRowBlock = 128

// rowBlocks invokes fn over successive (i0, ih) row panels.
func rowBlocks(rows int, fn func(i0, ih int)) {
	for i0 := 0; i0 < rows; i0 += fusedRowBlock {
		fn(i0, min(fusedRowBlock, rows-i0))
	}
}

// MinPlusMulAddPacked computes C = C ⊕ (A ⊗ P) over (min, +) against a
// pre-packed B operand. Serial by design: fused callers own the
// parallel decomposition (one packed panel feeds many concurrent
// destination sweeps). C may alias A under the usual closed
// zero-diagonal contract; C must not alias the packed operand.
func MinPlusMulAddPacked(C, A Mat, P *PackedPanel) {
	packedShapeCheck(C, A, P, "MinPlusMulAddPacked")
	kernelStats.calls.Add(1)
	if !P.dense(A) {
		kernelStats.stream.Add(1)
		minPlusStream(C, A, P.src, CurrentGemmTuning())
		return
	}
	kernelStats.dense.Add(1)
	P.countUse()
	rowBlocks(A.Rows, func(i0, ih int) {
		Ci, Ai := C.View(i0, 0, ih, C.Cols), A.View(i0, 0, ih, A.Cols)
		for kb := 0; kb*P.kt < A.Cols; kb++ {
			k0 := kb * P.kt
			kh := min(P.kt, A.Cols-k0)
			for jb := 0; jb*P.jt < C.Cols; jb++ {
				j0 := jb * P.jt
				jh := min(P.jt, C.Cols-j0)
				minPlusTile(Ci, Ai, P.tile(kb, jb, kh, jh), k0, kh, j0, jh)
			}
		}
	})
	kernelStats.fusedOps.Add(uint64(A.Rows) * uint64(A.Cols) * uint64(C.Cols))
}

// MaxMinMulAddPacked is MinPlusMulAddPacked over the bottleneck
// (max, min) semiring.
func MaxMinMulAddPacked(C, A Mat, P *PackedPanel) {
	packedShapeCheck(C, A, P, "MaxMinMulAddPacked")
	kernelStats.calls.Add(1)
	if !P.dense(A) {
		kernelStats.stream.Add(1)
		maxMinStream(C, A, P.src)
		return
	}
	kernelStats.dense.Add(1)
	P.countUse()
	rowBlocks(A.Rows, func(i0, ih int) {
		Ci, Ai := C.View(i0, 0, ih, C.Cols), A.View(i0, 0, ih, A.Cols)
		for kb := 0; kb*P.kt < A.Cols; kb++ {
			k0 := kb * P.kt
			kh := min(P.kt, A.Cols-k0)
			for jb := 0; jb*P.jt < C.Cols; jb++ {
				j0 := jb * P.jt
				jh := min(P.jt, C.Cols-j0)
				maxMinTile(Ci, Ai, P.tile(kb, jb, kh, jh), k0, kh, j0, jh)
			}
		}
	})
	kernelStats.fusedOps.Add(uint64(A.Rows) * uint64(A.Cols) * uint64(C.Cols))
}

// MinPlusMulAddPathsPacked is the next-hop-carrying variant: on strict
// improvement via k, nextC[i][j] inherits nextA[i][k] (same k-ascending
// tie-break as every other Paths kernel, so results are bitwise and
// hop-wise identical to the staged path).
func MinPlusMulAddPathsPacked(C, A Mat, P *PackedPanel, nextC, nextA IntMat) {
	packedShapeCheck(C, A, P, "MinPlusMulAddPathsPacked")
	if nextC.Rows != C.Rows || nextC.Cols != C.Cols || nextA.Rows != A.Rows || nextA.Cols != A.Cols {
		panic("semiring: MinPlusMulAddPathsPacked next-hop shape mismatch")
	}
	kernelStats.calls.Add(1)
	if !P.dense(A) {
		kernelStats.stream.Add(1)
		minPlusPathsStream(C, A, P.src, nextC, nextA)
		return
	}
	kernelStats.dense.Add(1)
	P.countUse()
	rowBlocks(A.Rows, func(i0, ih int) {
		Ci, Ai := C.View(i0, 0, ih, C.Cols), A.View(i0, 0, ih, A.Cols)
		nCi, nAi := nextC.View(i0, 0, ih, nextC.Cols), nextA.View(i0, 0, ih, nextA.Cols)
		for kb := 0; kb*P.kt < A.Cols; kb++ {
			k0 := kb * P.kt
			kh := min(P.kt, A.Cols-k0)
			for jb := 0; jb*P.jt < C.Cols; jb++ {
				j0 := jb * P.jt
				jh := min(P.jt, C.Cols-j0)
				minPlusPathsTile(Ci, Ai, nCi, nAi, P.tile(kb, jb, kh, jh), k0, kh, j0, jh)
			}
		}
	})
	kernelStats.fusedOps.Add(uint64(A.Rows) * uint64(A.Cols) * uint64(C.Cols))
}

// MaxMinMulAddPathsPacked is the bottleneck next-hop variant.
func MaxMinMulAddPathsPacked(C, A Mat, P *PackedPanel, nextC, nextA IntMat) {
	packedShapeCheck(C, A, P, "MaxMinMulAddPathsPacked")
	if nextC.Rows != C.Rows || nextC.Cols != C.Cols || nextA.Rows != A.Rows || nextA.Cols != A.Cols {
		panic("semiring: MaxMinMulAddPathsPacked next-hop shape mismatch")
	}
	kernelStats.calls.Add(1)
	if !P.dense(A) {
		kernelStats.stream.Add(1)
		maxMinPathsStream(C, A, P.src, nextC, nextA)
		return
	}
	kernelStats.dense.Add(1)
	P.countUse()
	rowBlocks(A.Rows, func(i0, ih int) {
		Ci, Ai := C.View(i0, 0, ih, C.Cols), A.View(i0, 0, ih, A.Cols)
		nCi, nAi := nextC.View(i0, 0, ih, nextC.Cols), nextA.View(i0, 0, ih, nextA.Cols)
		for kb := 0; kb*P.kt < A.Cols; kb++ {
			k0 := kb * P.kt
			kh := min(P.kt, A.Cols-k0)
			for jb := 0; jb*P.jt < C.Cols; jb++ {
				j0 := jb * P.jt
				jh := min(P.jt, C.Cols-j0)
				maxMinPathsTile(Ci, Ai, nCi, nAi, P.tile(kb, jb, kh, jh), k0, kh, j0, jh)
			}
		}
	})
	kernelStats.fusedOps.Add(uint64(A.Rows) * uint64(A.Cols) * uint64(C.Cols))
}
