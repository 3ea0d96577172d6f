package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"testing"
)

func tinyRun(t *testing.T, w *workload, trace bool) *result {
	t.Helper()
	dir := t.TempDir()
	res, err := runWorkload(config{w: w, seed: 7, trace: trace, tiny: true, fixed: true, workDir: dir, outDir: dir})
	if err != nil {
		t.Fatalf("%s (trace %v): %v", w.name, trace, err)
	}
	if res.Failed != 0 || !res.Correct {
		t.Fatalf("%s (trace %v): %d of %d ops failed: %v", w.name, trace, res.Failed, res.Attempted, res.Errors)
	}
	return res
}

// TestTinyWorkloads runs all four workloads at smoke-test scale, both
// passes, and checks that every named metric is reported and that the
// counts of one seed repeat exactly.
func TestTinyWorkloads(t *testing.T) {
	nameRE := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			plain := tinyRun(t, w, false)
			traced := tinyRun(t, w, true)
			again := tinyRun(t, w, true)
			for _, c := range []struct {
				res  *result
				defs []metricDef
			}{{plain, endToEnd}, {traced, perLayer}} {
				if _, err := driverLine(c.res, c.defs); err != nil {
					t.Error(err)
				}
				for _, d := range c.defs {
					m, ok := c.res.Metrics[d.name]
					if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
						t.Errorf("%s: metric %s missing or not finite (%v)", w.name, d.name, m.Value)
					}
					if !nameRE.MatchString(d.name) {
						t.Errorf("metric name %q", d.name)
					}
				}
			}
			for _, d := range endToEnd {
				if plain.Metrics[d.name].Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, d.name, plain.Metrics[d.name].Value)
				}
			}
			for _, name := range append([]string{"semiring.fused_ops", "semiring.calls", "core.cache_hit_ratio", "core.cache_size", "serve.sssp_bytes"}, exactCounts...) {
				if a, b := traced.Metrics[name].Value, again.Metrics[name].Value; a != b {
					t.Errorf("%s: %s differs between two runs of one seed: %v, %v", w.name, name, a, b)
				}
			}
			if !reflect.DeepEqual(traced.Ops, again.Ops) || !reflect.DeepEqual(traced.Ops, plain.Ops) {
				t.Errorf("%s: op counts differ between runs of one seed: %v, %v, %v", w.name, plain.Ops, traced.Ops, again.Ops)
			}
			if got := traced.Metrics["shard.hop_dist_us"].N > 0; got != w.sharded {
				t.Errorf("%s: shard.hop_dist_us measured = %v, want %v", w.name, got, w.sharded)
			}
		})
	}
}

// TestOracleCatchesWrongAnswer makes sure the correctness log is not
// vacuous: a reply that is off by one part in a million must fail.
func TestOracleCatchesWrongAnswer(t *testing.T) {
	w := findWorkload("road_hot")
	g := w.graph(true)
	orc := newOracle(g, 1)
	s := newScript(w, g, 1)
	batch := s.updateBatch()
	orc.batches = append(orc.batches, batch)
	// After the batch, the first edge's endpoints are at most its new
	// weight apart; claim they are farther than any path allows.
	orc.log(sample{kind: opDist, src: []int{batch[0].U}, dst: []int{batch[0].V}, got: []float64{batch[0].W * 1.000001}})
	if wrong, _ := orc.verify(); wrong != 1 {
		t.Fatalf("oracle accepted a wrong distance (wrong = %d)", wrong)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json in step with the metric and
// workload names the program reports.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit, Better, Why string }
	var doc struct {
		Workloads []entry `json:"workloads"`
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []entry, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
		}
		for i, d := range want {
			if got[i].Name != d.name || got[i].Unit != d.unit || got[i].Better != d.better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the program %+v", kind, i, got[i], d)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the program %q: %q", i, doc.Workloads[i], w.name, w.why)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1,2,4,7,11,16,22,29,37,46], n=4) == [3.5, 13.5, 31.0]
	q1, q2, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Fatalf("quartiles = %v %v %v", q1, q2, q3)
	}
}
