package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed interval recorded by the benchmark around a call
// into a layer. Spans live in memory until the run ends.
type span struct {
	Name   string             `json:"name"`
	Parent int                `json:"parent"` // index of the causing span, -1 for a root
	Start  int64              `json:"start_ns"`
	End    int64              `json:"end_ns"`
	Self   int64              `json:"self_ns"` // End-Start minus the children's durations
	Counts map[string]float64 `json:"counts,omitempty"`
}

// tracer records spans for one workload. A nil tracer records nothing,
// so the untraced pass pays one nil check per boundary.
type tracer struct {
	workload string
	t0       time.Time
	spans    []span
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, t0: time.Now()}
}

// begin opens a span under parent (-1 for a root) and returns its id.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Parent: parent, Start: int64(time.Since(t.t0))})
	return len(t.spans) - 1
}

// end closes span id, attaching the counts measured at this boundary.
func (t *tracer) end(id int, counts map[string]float64) {
	if t == nil {
		return
	}
	t.spans[id].End = int64(time.Since(t.t0))
	t.spans[id].Counts = counts
}

// spanSummary aggregates the spans that share a name.
type spanSummary struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

// finish computes self times and the per-name summary.
func (t *tracer) finish() []spanSummary {
	for i := range t.spans {
		t.spans[i].Self = t.spans[i].End - t.spans[i].Start
	}
	for _, s := range t.spans {
		if s.Parent >= 0 {
			t.spans[s.Parent].Self -= s.End - s.Start
		}
	}
	byName := map[string]*spanSummary{}
	for _, s := range t.spans {
		sum := byName[s.Name]
		if sum == nil {
			sum = &spanSummary{Name: s.Name}
			byName[s.Name] = sum
		}
		sum.Count++
		sum.TotalMS += float64(s.End-s.Start) / 1e6
		sum.SelfMS += float64(s.Self) / 1e6
	}
	out := make([]spanSummary, 0, len(byName))
	for _, sum := range byName {
		out = append(out, *sum)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfMS > out[j].SelfMS })
	return out
}

// write stores the spans and their summary in dir/trace-<workload>.json.
func (t *tracer) write(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+t.workload+".json")
	doc := struct {
		Workload string        `json:"workload"`
		Summary  []spanSummary `json:"summary"`
		Spans    []span        `json:"spans"`
	}{t.workload, t.finish(), t.spans}
	data, err := json.Marshal(doc)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
