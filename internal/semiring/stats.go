package semiring

// Kernel-level observability: process-wide atomic counters updated by
// the adaptive GEMM entry points. The counters make the dispatch
// heuristic observable in production — core.Profile snapshots them per
// solve and serve exposes the cumulative values at /metrics — so a
// mis-tuned density threshold shows up as a skewed dense/stream ratio
// instead of a silent slowdown.
//
// Update cost is a handful of atomic adds per MulAdd call (calls are
// per-panel, thousands per solve, each doing ≥10⁵ fused ops), so the
// counters stay on unconditionally. The per-phase timers are coarser
// still: two clock reads per supernode elimination stage.

import "sync/atomic"

// kernelStats is the process-wide counter block.
var kernelStats struct {
	calls            atomic.Uint64
	dense            atomic.Uint64
	stream           atomic.Uint64
	parShards        atomic.Uint64
	fusedOps         atomic.Uint64
	packedBytes      atomic.Uint64
	packedReuseBytes atomic.Uint64
	diagNS           atomic.Uint64
	panelNS          atomic.Uint64
	outerNS          atomic.Uint64
}

// KernelCounters is a snapshot of the adaptive GEMM counters.
type KernelCounters struct {
	// Calls counts adaptive MulAdd invocations (all semirings, with and
	// without path tracking, packed and staged).
	Calls uint64 `json:"calls"`
	// DenseCalls counts calls dispatched to the packed register-blocked
	// path; StreamCalls counts calls dispatched to the Inf-skip
	// streaming path. DenseCalls + StreamCalls == Calls.
	DenseCalls  uint64 `json:"dense_calls"`
	StreamCalls uint64 `json:"stream_calls"`
	// ParallelShards counts i-range shards spawned for large GEMMs
	// (zero when every call ran serially).
	ParallelShards uint64 `json:"parallel_shards"`
	// FusedOps counts fused add-min relaxations attempted: r·m·c per
	// dense call, one B-row pass per finite A entry for stream calls.
	// The dense/stream asymmetry is the point — it measures work the
	// Inf skip avoided.
	FusedOps uint64 `json:"fused_ops"`
	// PackedBytes counts bytes copied into packed B tiles (each tile
	// counted once, at pack time).
	PackedBytes uint64 `json:"packed_bytes"`
	// PackedReuseBytes counts packed bytes REUSED by the fused pipeline:
	// every MulAddPacked sweep over an already-packed panel after the
	// first adds the panel's size. This is exactly the staging traffic
	// the staged three-call path would have re-copied, i.e. the memory
	// the fusion saved.
	PackedReuseBytes uint64 `json:"packed_reuse_bytes"`
	// DiagNS / PanelNS / OuterNS are wall nanoseconds spent in the three
	// elimination phases (diagonal FW closure, panel updates, outer
	// scatter). Concurrent supernodes overlap, so these are per-phase
	// wall footprints, not summed CPU time; their ratio is what kernel
	// tuning steers.
	DiagNS  uint64 `json:"diag_ns"`
	PanelNS uint64 `json:"panel_ns"`
	OuterNS uint64 `json:"outer_ns"`
}

// ReadKernelCounters returns the current cumulative counter values.
func ReadKernelCounters() KernelCounters {
	return KernelCounters{
		Calls:            kernelStats.calls.Load(),
		DenseCalls:       kernelStats.dense.Load(),
		StreamCalls:      kernelStats.stream.Load(),
		ParallelShards:   kernelStats.parShards.Load(),
		FusedOps:         kernelStats.fusedOps.Load(),
		PackedBytes:      kernelStats.packedBytes.Load(),
		PackedReuseBytes: kernelStats.packedReuseBytes.Load(),
		DiagNS:           kernelStats.diagNS.Load(),
		PanelNS:          kernelStats.panelNS.Load(),
		OuterNS:          kernelStats.outerNS.Load(),
	}
}

// Sub returns the counter delta k − prev. Deltas are exact when no
// other solve runs concurrently; under concurrent solves they attribute
// the union of both (the counters are process-wide).
func (k KernelCounters) Sub(prev KernelCounters) KernelCounters {
	return KernelCounters{
		Calls:            k.Calls - prev.Calls,
		DenseCalls:       k.DenseCalls - prev.DenseCalls,
		StreamCalls:      k.StreamCalls - prev.StreamCalls,
		ParallelShards:   k.ParallelShards - prev.ParallelShards,
		FusedOps:         k.FusedOps - prev.FusedOps,
		PackedBytes:      k.PackedBytes - prev.PackedBytes,
		PackedReuseBytes: k.PackedReuseBytes - prev.PackedReuseBytes,
		DiagNS:           k.DiagNS - prev.DiagNS,
		PanelNS:          k.PanelNS - prev.PanelNS,
		OuterNS:          k.OuterNS - prev.OuterNS,
	}
}

// DenseRatio returns the fraction of calls dispatched to the dense
// packed path (0 when no calls were made).
func (k KernelCounters) DenseRatio() float64 {
	if k.Calls == 0 {
		return 0
	}
	return float64(k.DenseCalls) / float64(k.Calls)
}

// HasVectorKernel reports whether the dense min-plus path runs a SIMD
// micro-kernel on this machine (amd64 with AVX2 or AVX-512) rather than
// the scalar register-blocked one.
func HasVectorKernel() bool { return useAVX2 || useAVX512 }

// HasAVX512 reports whether the 16-lane AVX-512 kernels (including the
// vectorized max-min and index-carrying Paths variants) are active.
func HasAVX512() bool { return useAVX512 }
