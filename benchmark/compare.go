package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
)

// compareMain diffs two result files: per workload and end-to-end
// metric, medians and quartiles of both sides, the ratio with its
// base, and a verdict against the bound BENCHMARK.json records. It
// returns a non-zero exit code on a regression or a higher failed
// share, and refuses files from different machines.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark compare A.json B.json")
		return 2
	}
	a, err := readResults(args[0])
	if err != nil {
		return compareFailed(err)
	}
	b, err := readResults(args[1])
	if err != nil {
		return compareFailed(err)
	}
	bounds, err := readBounds(filepath.Join(findRoot(), "BENCHMARK.json"))
	if err != nil {
		return compareFailed(err)
	}
	return compare(a, b, bounds)
}

func compareFailed(err error) int {
	fmt.Fprintln(os.Stderr, "benchmark compare:", err)
	return 2
}

func readResults(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultFile
	if err := json.Unmarshal(data, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}

// readBounds returns the regression bound of every end-to-end metric.
func readBounds(path string) (map[string]float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	bounds := map[string]float64{}
	for _, m := range doc.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	return bounds, nil
}

// values collects one metric of one workload over a file's runs of one
// pass.
func (rf *resultFile) values(workload, name string, trace bool) []float64 {
	var out []float64
	for _, r := range rf.Runs {
		if m, ok := r.Metrics[name]; ok && r.Workload == workload && r.Trace == trace {
			out = append(out, m.Value)
		}
	}
	return out
}

// failedShare is failed over attempted ops across a file's runs.
func (rf *resultFile) failedShare() float64 {
	failed, attempted := 0, 0
	for _, r := range rf.Runs {
		failed, attempted = failed+r.Failed, attempted+r.Attempted
	}
	return ratio(float64(failed), float64(attempted))
}

// exactCounts are the traced-pass counts that must repeat exactly for
// one seed on one commit, however noisy the clock is.
var exactCounts = []string{"order.topsep", "order.planned_ops", "order.etree_levels", "symbolic.supernodes", "symbolic.median_block", "core.factor_bytes", "wal.bytes_per_batch"}

func compare(a, b *resultFile, bounds map[string]float64) int {
	if a.Machine.VectorISA != b.Machine.VectorISA || a.Machine.GOMAXPROCS != b.Machine.GOMAXPROCS {
		fmt.Fprintf(os.Stderr, "benchmark compare: refusing to diff results from different machines: ISA %s vs %s, GOMAXPROCS %d vs %d\n",
			a.Machine.VectorISA, b.Machine.VectorISA, a.Machine.GOMAXPROCS, b.Machine.GOMAXPROCS)
		return 2
	}
	regressed := 0
	fmt.Printf("%-15s %-14s %6s %34s %34s %20s  %s\n", "workload", "metric", "bound", "A median [q1..q3] (n)", "B median [q1..q3] (n)", "B/A", "verdict")
	for _, w := range workloads {
		for _, d := range endToEnd {
			av, bv := a.values(w.name, d.name, false), b.values(w.name, d.name, false)
			if len(av) == 0 || len(bv) == 0 {
				continue
			}
			aq1, am, aq3 := quartiles(av)
			bq1, bm, bq3 := quartiles(bv)
			bound := bounds[d.name]
			worse := bm/am - 1 // share of A's median by which B is worse
			if d.better == "higher" {
				worse = 1 - bm/am
			}
			verdict := "within bound"
			switch {
			case max(spread(av), spread(bv)) > bound:
				verdict = fmt.Sprintf("unresolved (spread %.3f > bound)", max(spread(av), spread(bv)))
			case worse > bound:
				verdict = "REGRESSED"
				regressed++
			case worse < -bound:
				verdict = "better"
			}
			fmt.Printf("%-15s %-14s %6.3f %12.5g [%9.4g..%9.4g] (%d) %12.5g [%9.4g..%9.4g] (%d) %8.3fx of %-8.4g  %s\n",
				w.name, d.name, bound, am, aq1, aq3, len(av), bm, bq1, bq3, len(bv), bm/am, am, verdict)
		}
		for _, name := range exactCounts {
			av, bv := a.values(w.name, name, true), b.values(w.name, name, true)
			if len(av) > 0 && len(bv) > 0 && !(same(av) && same(bv) && av[0] == bv[0]) {
				fmt.Printf("%-15s %-14s count differs: A %v, B %v\n", w.name, name, av, bv)
				regressed++
			}
		}
	}
	fa, fb := a.failedShare(), b.failedShare()
	fmt.Printf("failed share: A %.6f, B %.6f\n", fa, fb)
	if fb > fa {
		fmt.Println("B fails a higher share of its ops than A")
		regressed++
	}
	if regressed > 0 {
		return 1
	}
	return 0
}

func same(xs []float64) bool {
	return !slices.ContainsFunc(xs, func(x float64) bool { return x != xs[0] })
}
