package main

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/bench"
)

// machine identifies the host behind a result file the way every
// BENCH_*.json of this repository does, plus what the bandwidth probe
// adds, so compare never mixes an AVX-512 run with an AVX2 one or a
// 2-thread run with a 1-thread one.
type machine struct {
	bench.MachineInfo
	LLCMB     float64 `json:"llc_mb"`
	StreamGBs float64 `json:"stream_gbs,omitempty"`
	StreamMB  float64 `json:"stream_array_mb,omitempty"`
}

func currentMachine() machine {
	return machine{MachineInfo: bench.CurrentMachine(), LLCMB: float64(llcBytes()) / (1 << 20)}
}

// llcBytes reads the largest cache cpu0 reports (0 when sysfs has none).
func llcBytes() int64 {
	var best int64
	paths, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*/size")
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		s := strings.TrimSpace(string(raw))
		mult := int64(1)
		switch {
		case strings.HasSuffix(s, "K"):
			mult, s = 1<<10, strings.TrimSuffix(s, "K")
		case strings.HasSuffix(s, "M"):
			mult, s = 1<<20, strings.TrimSuffix(s, "M")
		}
		if v, err := strconv.ParseInt(s, 10, 64); err == nil && v*mult > best {
			best = v * mult
		}
	}
	return best
}

// streamBandwidth measures sustainable copy bandwidth on two arrays of
// four times the last-level cache each, clamped to 64..256 MiB, best
// of three passes. The upper clamp is for virtual machines that report
// the whole host's L3 (260 MiB on the reference box, where first-touching
// two 1 GiB arrays takes 9-18 s and measures the same 11 GB/s as 256 MiB
// ones). Bytes moved are computed (one read + one write per element),
// not counted by hardware.
func streamBandwidth() (gbs, arrayMB float64) {
	bytes := min(max(4*llcBytes(), 64<<20), 256<<20)
	n := int(bytes / 8)
	a := make([]float64, n)
	b := make([]float64, n)
	for i := 0; i < n; i += 512 {
		b[i] = 1 // one write per page makes it real memory, not the shared zero page
	}
	copy(a, b) // first touch of a, untimed
	best := time.Duration(1<<63 - 1)
	for rep := 0; rep < 3; rep++ {
		t0 := time.Now()
		copy(a, b)
		if d := time.Since(t0); d < best {
			best = d
		}
	}
	sink = a[n/2]
	return 2 * float64(bytes) / best.Seconds() / 1e9, float64(bytes) / (1 << 20)
}

// sink keeps measured results alive so the compiler cannot drop the
// calls that produced them.
var sink float64

// rssPeakMB reads the process's resident-set high-water mark (VmHWM).
func rssPeakMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) >= 1 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}
