// Command benchmark is the repository's end-to-end benchmark: graph in
// -> factor -> served queries -> live updates -> warm boot, on four
// workloads, with a traced pass that attributes the time to layers.
//
//	benchmark --workload road_hot --seed 1 --seconds 24 --trace 0   one run (what BENCHMARK.json's command does)
//	benchmark [--seed 1] [--runs 1]                                 all workloads, both passes, a result file
//	benchmark compare A.json B.json                                 two result files against the recorded bounds
//
// See README.md beside this file.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
)

var bg = context.Background()

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	var (
		name    = flag.String("workload", "", "run this one workload and print its result as the last line (default: all four, both passes)")
		seed    = flag.Int64("seed", 1, "seed of the op script: keys, op order, update batches")
		seconds = flag.Float64("seconds", 24, "measured window of one run, shared out among the phases")
		trace   = flag.Int("trace", 0, "1 = the traced pass: per-layer metrics and benchmark/out/trace-<workload>.json")
		scale   = flag.String("scale", "full", "full, or tiny for the few-hundred-vertex graphs of the smoke test")
		fixed   = flag.Bool("fixed", false, "exact repetition and round counts instead of time budgets, so counts repeat")
		runs    = flag.Int("runs", 1, "all-workload mode: repeat with seeds seed, seed+1, ...")
		out     = flag.String("out", "", "all-workload mode: result file (default benchmark/out/result-seed<seed>.json)")
		detail  = flag.String("detail", "", "one-workload mode: also write the full result (sample counts, op counts) here")
	)
	flag.Parse()
	if *scale != "full" && *scale != "tiny" {
		fatal(fmt.Errorf("unknown scale %q", *scale))
	}
	root := findRoot()
	cfg := config{
		seed: *seed, seconds: *seconds, trace: *trace != 0, tiny: *scale == "tiny", fixed: *fixed,
		workDir: filepath.Join(root, ".bench_build", "work"),
		outDir:  filepath.Join(root, "benchmark", "out"),
	}
	if *name == "" {
		if *out == "" {
			*out = filepath.Join(cfg.outDir, fmt.Sprintf("result-seed%d.json", *seed))
		}
		if err := runAll(cfg, *runs, *out); err != nil {
			fatal(err)
		}
		return
	}
	if cfg.w = findWorkload(*name); cfg.w == nil {
		fatal(fmt.Errorf("unknown workload %q", *name))
	}
	res, err := runWorkload(cfg)
	if err != nil {
		fatal(err)
	}
	if *detail != "" {
		if err := writeJSON(*detail, res); err != nil {
			fatal(err)
		}
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	line, err := driverLine(res, defs)
	if err != nil {
		fatal(err)
	}
	printMetrics(os.Stdout, res, defs)
	fmt.Println(line)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

// findRoot walks up from the working directory to the checkout root,
// the directory that holds BENCHMARK.json.
func findRoot() string {
	dir, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	for d := dir; ; d = filepath.Dir(d) {
		if _, err := os.Stat(filepath.Join(d, "BENCHMARK.json")); err == nil {
			return d
		}
		if d == filepath.Dir(d) {
			return dir
		}
	}
}

// driverLine renders the one-line result the benchmark contract asks
// for: exactly the named metrics, value and unit each.
func driverLine(res *result, defs []metricDef) (string, error) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]mv, len(defs))
	for _, d := range defs {
		m, ok := res.Metrics[d.name]
		if !ok {
			return "", fmt.Errorf("%s: metric %s was not measured", res.Workload, d.name)
		}
		metrics[d.name] = mv{m.Value, d.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, metrics})
	return string(line), err
}

func printMetrics(w *os.File, res *result, defs []metricDef) {
	pass := "untraced"
	if res.Trace {
		pass = "traced"
	}
	fmt.Fprintf(w, "%s seed %d (%s): ops_attempted %d, ops_failed %d\n", res.Workload, res.Seed, pass, res.Attempted, res.Failed)
	kinds := make([]string, 0, len(res.Ops))
	for k := range res.Ops {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		fmt.Fprintf(w, "  ops.%s %d\n", k, res.Ops[k])
	}
	sharded := findWorkload(res.Workload).sharded
	for _, d := range defs {
		if m, ok := res.Metrics[d.name]; ok && (sharded || !shardOnly[d.name]) {
			fmt.Fprintf(w, "  %-28s %14.6g %-6s n=%d\n", d.name, m.Value, d.unit, m.N)
		}
	}
	for _, e := range res.Errors {
		fmt.Fprintf(w, "  error: %s\n", e)
	}
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// resultFile is what the all-workload mode writes and compare reads.
type resultFile struct {
	Machine machine   `json:"machine"`
	Seed    int64     `json:"seed"`
	Seconds float64   `json:"seconds"`
	Runs    []*result `json:"runs"`
}

// runAll runs every workload, untraced then traced, each in a child
// process of its own so rss_peak_mb is per workload and pass.
func runAll(cfg config, runs int, out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	rf := resultFile{Machine: currentMachine(), Seed: cfg.seed, Seconds: cfg.seconds}
	if !cfg.tiny {
		rf.Machine.StreamGBs, rf.Machine.StreamMB = streamBandwidth()
	}
	detail := filepath.Join(cfg.workDir, fmt.Sprintf("detail-%d.json", os.Getpid()))
	defer os.Remove(detail)
	for i := 0; i < runs; i++ {
		for _, w := range workloads {
			for trace := 0; trace <= 1; trace++ {
				args := []string{
					"--workload", w.name, "--seed", fmt.Sprint(cfg.seed + int64(i)), "--seconds", fmt.Sprint(cfg.seconds),
					"--trace", fmt.Sprint(trace), "--detail", detail,
				}
				if cfg.tiny {
					args = append(args, "--scale", "tiny")
				}
				if cfg.fixed {
					args = append(args, "--fixed")
				}
				cmd := exec.Command(self, args...)
				cmd.Stderr = os.Stderr
				stdout, err := cmd.Output()
				if err != nil {
					return fmt.Errorf("%s (trace %d): %w", w.name, trace, err)
				}
				var res result
				data, err := os.ReadFile(detail)
				if err == nil {
					err = json.Unmarshal(data, &res)
				}
				if err != nil {
					return fmt.Errorf("%s (trace %d): %w\n%s", w.name, trace, err, stdout)
				}
				rf.Runs = append(rf.Runs, &res)
				defs := endToEnd
				if trace == 1 {
					defs = perLayer
				}
				printMetrics(os.Stdout, &res, defs)
			}
		}
	}
	if err := writeJSON(out, rf); err != nil {
		return err
	}
	fmt.Printf("machine: %s GOMAXPROCS=%d nproc=%d isa=%s stream=%.1f GB/s (arrays of %.0f MB, LLC %.0f MB)\nresult file: %s\n",
		rf.Machine.GoVersion, rf.Machine.GOMAXPROCS, rf.Machine.NumCPU, rf.Machine.VectorISA,
		rf.Machine.StreamGBs, rf.Machine.StreamMB, rf.Machine.LLCMB, out)
	for _, r := range rf.Runs {
		if !r.Correct {
			return fmt.Errorf("%s seed %d: %d of %d ops failed", r.Workload, r.Seed, r.Failed, r.Attempted)
		}
	}
	return nil
}
