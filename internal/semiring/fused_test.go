package semiring

// Differential and fuzz coverage for the fused packed-panel pipeline:
// PackPanel + MulAddPacked must be BITWISE equal to the staged MulAdd
// path and to the naive triple loop, for every semiring variant
// (min-plus, max-min, and both index-carrying Paths forms), across
// packed-dense, pack-refused (stream-mode panel), and consumer-stream
// dispatch, including masked-tail widths (cols mod 8 and mod 16 ≠ 0).
// The suite runs under -race in `make gemm-smoke`.

import (
	"math/rand"
	"testing"
	"time"
)

// fusedTunings force each fused dispatch decision in turn.
func fusedTunings() map[string]GemmTuning {
	base := DefaultGemmTuning()
	base.ParMinRows, base.ParMinOps = 1<<30, 1<<62 // keep staged reference serial

	dense := base
	dense.FusedMinFinite, dense.DenseMinFinite, dense.DenseMinOps = 0, 0, 1
	packRefused := base
	packRefused.FusedMinFinite = 2 // unreachable: panel stays in stream mode
	packRefused.DenseMinFinite, packRefused.DenseMinOps = 0, 1
	consumerStream := base
	consumerStream.FusedMinFinite = 0
	consumerStream.DenseMinFinite = 2 // packed, but every consumer streams
	tiny := dense
	tiny.KTile, tiny.JTile = 5, 9 // odd tiles: k-unroll and j remainders
	return map[string]GemmTuning{
		"pack-dense": dense, "pack-refused": packRefused,
		"consumer-stream": consumerStream, "tiny-tiles": tiny,
	}
}

// fusedShapes stress the vector kernels' masked tails (cols 77, 40, 9,
// 19 are ≢ 0 mod 8 and mod 16) alongside lane-exact widths.
var fusedShapes = [][3]int{
	{4, 64, 512}, {9, 65, 77}, {16, 7, 16}, {12, 16, 9},
	{8, 31, 40}, {5, 2, 19}, {33, 40, 96}, {1, 1, 1},
}

// TestFusedMatchesStagedAndNaive holds the tentpole equality: the fused
// pipeline (pack once, sweep many) is bitwise identical to the staged
// per-call path and the naive reference — values for min-plus/max-min,
// values AND hops for the Paths variants. Each panel is consumed twice
// to exercise the reuse path, not just first use.
func TestFusedMatchesStagedAndNaive(t *testing.T) {
	for name, tn := range fusedTunings() {
		t.Run(name, func(t *testing.T) {
			withTuning(t, tn)
			rng := rand.New(rand.NewSource(31))
			for _, s := range fusedShapes {
				for _, d := range []float64{0, 0.3, 1.0} {
					A := diffMat(rng, s[0], s[1], d, Inf)
					B := diffMat(rng, s[1], s[2], d, Inf)
					C := diffMat(rng, s[0], s[2], 0.5, Inf)
					C2 := diffMat(rng, s[0], s[2], 0.5, Inf)
					nextA := diffHops(rng, s[0], s[1])
					nextC0 := diffHops(rng, s[0], s[2])

					// min-plus
					naive := C.Clone()
					naiveMinPlus(naive, A, B)
					staged := C.Clone()
					MinPlusMulAdd(staged, A, B)
					P := PackPanel(B, Inf)
					fused, fused2 := C.Clone(), C2.Clone()
					MinPlusMulAddPacked(fused, A, P)
					MinPlusMulAddPacked(fused2, A, P) // reuse
					if !fused.Equal(naive) || !fused.Equal(staged) {
						t.Fatalf("min-plus fused differs (%v, d=%.1f)", s, d)
					}
					stagedRef := C2.Clone()
					MinPlusMulAdd(stagedRef, A, B)
					if !fused2.Equal(stagedRef) {
						t.Fatalf("min-plus fused reuse differs (%v, d=%.1f)", s, d)
					}

					// min-plus paths
					wantC, wantN := C.Clone(), cloneIntMat(nextC0)
					naiveMinPlusPaths(wantC, A, B, wantN, nextA)
					gotC, gotN := C.Clone(), cloneIntMat(nextC0)
					MinPlusMulAddPathsPacked(gotC, A, P, gotN, nextA)
					if !gotC.Equal(wantC) || !intMatEqual(gotN, wantN) {
						t.Fatalf("min-plus paths fused differs (%v, d=%.1f)", s, d)
					}
					P.Release()

					// max-min (negated operands map Inf → -Inf)
					nA, nB, nC := negate(A), negate(B), negate(C)
					naiveMM := nC.Clone()
					naiveMaxMin(naiveMM, nA, nB)
					PM := PackPanel(nB, -Inf)
					fusedMM := nC.Clone()
					MaxMinMulAddPacked(fusedMM, nA, PM)
					if !fusedMM.Equal(naiveMM) {
						t.Fatalf("max-min fused differs (%v, d=%.1f)", s, d)
					}

					// max-min paths
					wantMC, wantMN := nC.Clone(), cloneIntMat(nextC0)
					naiveMaxMinPaths(wantMC, nA, nB, wantMN, nextA)
					gotMC, gotMN := nC.Clone(), cloneIntMat(nextC0)
					MaxMinMulAddPathsPacked(gotMC, nA, PM, gotMN, nextA)
					if !gotMC.Equal(wantMC) || !intMatEqual(gotMN, wantMN) {
						t.Fatalf("max-min paths fused differs (%v, d=%.1f)", s, d)
					}
					PM.Release()
				}
			}
		})
	}
}

// TestFusedReuseCounters locks in the fused observability: a packed
// panel's first dense sweep counts pack bytes, every later sweep counts
// the same bytes as reuse, and stream-mode panels count neither.
func TestFusedReuseCounters(t *testing.T) {
	withTuning(t, fusedTunings()["pack-dense"])
	rng := rand.New(rand.NewSource(37))
	A := diffMat(rng, 16, 16, 1, Inf)
	B := diffMat(rng, 16, 16, 1, Inf)

	before := ReadKernelCounters()
	P := PackPanel(B, Inf)
	if !P.Packed() {
		t.Fatal("dense panel not packed")
	}
	const reuses = 4
	for i := 0; i < reuses; i++ {
		MinPlusMulAddPacked(diffMat(rng, 16, 16, 0.5, Inf), A, P)
	}
	P.Release()
	d := ReadKernelCounters().Sub(before)
	if d.Calls != reuses || d.DenseCalls != reuses {
		t.Fatalf("counted %+v, want %d dense calls", d, reuses)
	}
	if d.PackedBytes != 16*16*8 {
		t.Fatalf("packed %d bytes, want %d", d.PackedBytes, 16*16*8)
	}
	if d.PackedReuseBytes != (reuses-1)*16*16*8 {
		t.Fatalf("reuse bytes %d, want %d", d.PackedReuseBytes, (reuses-1)*16*16*8)
	}

	SetGemmTuning(fusedTunings()["pack-refused"])
	before = ReadKernelCounters()
	PS := PackPanel(B, Inf)
	if PS.Packed() {
		t.Fatal("pack-refused tuning still packed")
	}
	MinPlusMulAddPacked(diffMat(rng, 16, 16, 0.5, Inf), A, PS)
	PS.Release()
	d = ReadKernelCounters().Sub(before)
	if d.StreamCalls != 1 || d.PackedBytes != 0 || d.PackedReuseBytes != 0 {
		t.Fatalf("stream-mode panel counted %+v", d)
	}
}

// TestPhaseCounters checks the per-phase timers accumulate where they
// claim.
func TestPhaseCounters(t *testing.T) {
	before := ReadKernelCounters()
	AddPhaseTime(PhaseDiag, 3*time.Microsecond)
	AddPhaseTime(PhasePanel, 5*time.Microsecond)
	AddPhaseTime(PhaseOuter, 7*time.Microsecond)
	AddPhaseTime(PhaseOuter, -time.Microsecond) // ignored
	d := ReadKernelCounters().Sub(before)
	if d.DiagNS != 3000 || d.PanelNS != 5000 || d.OuterNS != 7000 {
		t.Fatalf("phase ns %d/%d/%d", d.DiagNS, d.PanelNS, d.OuterNS)
	}
}

// FuzzFusedDifferential fuzzes shapes, densities, and weights through
// the fused pipeline under every fused tuning, against the staged path.
func FuzzFusedDifferential(f *testing.F) {
	f.Add(int64(1), uint8(8), uint8(9), uint8(10), uint8(128))
	f.Add(int64(2), uint8(1), uint8(1), uint8(1), uint8(0))
	f.Add(int64(3), uint8(33), uint8(5), uint8(17), uint8(255))
	f.Add(int64(4), uint8(9), uint8(65), uint8(77), uint8(200))
	f.Fuzz(func(t *testing.T, seed int64, r, m, c, dens uint8) {
		rows, mid, cols := int(r%40)+1, int(m%40)+1, int(c%40)+1
		d := float64(dens) / 255
		rng := rand.New(rand.NewSource(seed))
		A := diffMat(rng, rows, mid, d, Inf)
		B := diffMat(rng, mid, cols, d, Inf)
		C := diffMat(rng, rows, cols, 0.5, Inf)
		nextA := diffHops(rng, rows, mid)
		nextC0 := diffHops(rng, rows, cols)
		for name, tn := range fusedTunings() {
			prev := SetGemmTuning(tn)
			staged := C.Clone()
			MinPlusMulAdd(staged, A, B)
			P := PackPanel(B, Inf)
			fused := C.Clone()
			MinPlusMulAddPacked(fused, A, P)
			wantC, wantN := C.Clone(), cloneIntMat(nextC0)
			MinPlusMulAddPaths(wantC, A, B, wantN, nextA)
			gotC, gotN := C.Clone(), cloneIntMat(nextC0)
			MinPlusMulAddPathsPacked(gotC, A, P, gotN, nextA)
			P.Release()
			SetGemmTuning(prev)
			if !fused.Equal(staged) {
				t.Fatalf("tuning %s: fused differs from staged (%d×%d×%d, d=%.2f)",
					name, rows, mid, cols, d)
			}
			if !gotC.Equal(wantC) || !intMatEqual(gotN, wantN) {
				t.Fatalf("tuning %s: fused paths differ from staged (%d×%d×%d, d=%.2f)",
					name, rows, mid, cols, d)
			}
		}
	})
}

// TestMaxMinVecMatAdd checks the bottleneck sweep kernels against the
// generic 1×n MulAdd route they replace.
func TestMaxMinVecMatAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	A := diffMat(rng, 7, 12, 0.6, -Inf)
	x := make([]float64, 7)
	y := make([]float64, 12)
	for i := range x {
		x[i] = rng.Float64() * 5
	}
	x[3] = -Inf
	for j := range y {
		y[j] = rng.Float64()
	}
	want := append([]float64(nil), y...)
	for j := 0; j < 12; j++ {
		for i := 0; i < 7; i++ {
			v := x[i]
			if a := A.At(i, j); a < v {
				v = a
			}
			if v > want[j] {
				want[j] = v
			}
		}
	}
	got := append([]float64(nil), y...)
	MaxMinVecMatAdd(got, x, A)
	for j := range want {
		if got[j] != want[j] {
			t.Fatalf("MaxMinVecMatAdd[%d] = %v, want %v", j, got[j], want[j])
		}
	}
}

func TestMaxMinMatVecAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	A := diffMat(rng, 9, 6, 0.6, -Inf)
	x := make([]float64, 6)
	y := make([]float64, 9)
	for i := range x {
		x[i] = rng.Float64() * 5
	}
	x[2] = -Inf
	for j := range y {
		y[j] = rng.Float64()
	}
	want := append([]float64(nil), y...)
	for i := 0; i < 9; i++ {
		for j := 0; j < 6; j++ {
			v := x[j]
			if a := A.At(i, j); a < v {
				v = a
			}
			if v > want[i] {
				want[i] = v
			}
		}
	}
	got := append([]float64(nil), y...)
	MaxMinMatVecAdd(got, A, x)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("MaxMinMatVecAdd[%d] = %v, want %v", i, got[i], want[i])
		}
	}

	// All-zero x must early-return without touching y.
	for j := range x {
		x[j] = -Inf
	}
	got2 := append([]float64(nil), y...)
	MaxMinMatVecAdd(got2, A, x)
	for i := range y {
		if got2[i] != y[i] {
			t.Fatal("all--Inf MatVecAdd modified y")
		}
	}
}

// Inf fast-path regression benchmarks (satellite audit): the all-Inf
// variants must run far faster than the dense ones — if a kernel loses
// its zero skip, the "AllInf" number collapses onto the dense number.

func benchFusedSetup(b *testing.B, density float64) (Mat, Mat, Mat, *PackedPanel) {
	b.Helper()
	prev := SetGemmTuning(fusedTunings()["pack-dense"])
	b.Cleanup(func() { SetGemmTuning(prev) })
	rng := rand.New(rand.NewSource(47))
	A := diffMat(rng, 256, 256, density, Inf)
	B := diffMat(rng, 256, 256, 1, Inf)
	C := diffMat(rng, 256, 256, 0.5, Inf)
	P := PackPanel(B, Inf)
	b.Cleanup(P.Release)
	return C, A, B, P
}

func BenchmarkFusedMinPlusDense(b *testing.B) {
	C, A, _, P := benchFusedSetup(b, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MinPlusMulAddPacked(C, A, P)
	}
}

func BenchmarkFusedMinPlusAllInfA(b *testing.B) {
	C, A, _, P := benchFusedSetup(b, 0)
	// A is all-Inf: the row-level skip must make the sweep near-free
	// even though the dispatch is forced dense.
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MinPlusMulAddPacked(C, A, P)
	}
}

func BenchmarkMaxMinMatVecAddDense(b *testing.B) {
	rng := rand.New(rand.NewSource(53))
	A := diffMat(rng, 512, 512, 1, -Inf)
	x := make([]float64, 512)
	y := make([]float64, 512)
	for i := range x {
		x[i] = rng.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MaxMinMatVecAdd(y, A, x)
	}
}

func BenchmarkMaxMinMatVecAddAllInf(b *testing.B) {
	rng := rand.New(rand.NewSource(53))
	A := diffMat(rng, 512, 512, 1, -Inf)
	x := make([]float64, 512)
	y := make([]float64, 512)
	for i := range x {
		x[i] = -Inf
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MaxMinMatVecAdd(y, A, x)
	}
}

func BenchmarkMinPlusPathsPackedDense(b *testing.B) {
	C, A, _, P := benchFusedSetup(b, 1)
	rng := rand.New(rand.NewSource(59))
	nextA := diffHops(rng, 256, 256)
	nextC := diffHops(rng, 256, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MinPlusMulAddPathsPacked(C, A, P, nextC, nextA)
	}
}

func BenchmarkMinPlusPathsPackedAllInfA(b *testing.B) {
	C, A, _, P := benchFusedSetup(b, 0)
	rng := rand.New(rand.NewSource(59))
	nextA := diffHops(rng, 256, 256)
	nextC := diffHops(rng, 256, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MinPlusMulAddPathsPacked(C, A, P, nextC, nextA)
	}
}
