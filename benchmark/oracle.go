package main

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/apsp"
	"repro/internal/core"
	"repro/internal/graph"
)

// sampleEvery is the sampling rate of the correctness log: one reply
// in this many is kept and checked after the timed phases.
const sampleEvery = 50

// batchChecked is how many pairs of a sampled /dist/batch reply are
// checked (each needs its own Dijkstra run).
const batchChecked = 4

// sample is one logged reply: the answers the service gave for some
// (source, target) pairs while a known number of updates were visible.
type sample struct {
	gen  int // updates acknowledged before this reply
	kind opKind
	src  []int // one source per answer; a single source for a full row
	dst  []int // one target per answer; nil for a full /sssp row
	got  []float64
}

// oracle logs a seeded sample of replies and the update batches in
// acknowledgement order. The single closed-loop client makes the edge
// weights behind every reply known, so each sample can be checked
// against Dijkstra on the overlay graph of its generation.
type oracle struct {
	n       int
	base    []graph.Edge
	batches [][]core.EdgeDelta // batch i takes generation i to i+1
	samples []sample
	rng     *rand.Rand
}

func newOracle(g *graph.Graph, seed int64) *oracle {
	return &oracle{n: g.N, base: g.Edges(), rng: rand.New(rand.NewSource(seed ^ 0x5eed0fac1e))}
}

// pick reports whether the next reply is sampled.
func (o *oracle) pick() bool { return o.rng.Intn(sampleEvery) == 0 }

func (o *oracle) log(s sample) {
	s.gen = len(o.batches)
	o.samples = append(o.samples, s)
}

// verify checks every logged sample and returns how many were wrong,
// with a description of the first mismatch.
func (o *oracle) verify() (wrong int, first string) {
	edges := append([]graph.Edge(nil), o.base...)
	index := make(map[[2]int]int, len(edges))
	for i, e := range edges {
		index[[2]int{e.U, e.V}] = i
	}
	si := 0
	for gen := 0; gen <= len(o.batches) && si < len(o.samples); gen++ {
		if gen > 0 {
			for _, d := range o.batches[gen-1] {
				edges[index[[2]int{d.U, d.V}]].W = d.W
			}
		}
		if o.samples[si].gen != gen {
			continue
		}
		g := graph.MustFromEdges(o.n, edges)
		rows := map[int][]float64{}
		row := func(src int) []float64 {
			if r, ok := rows[src]; ok {
				return r
			}
			r, err := apsp.DijkstraSSSP(g, src)
			if err != nil {
				panic(err) // the script never writes a negative weight
			}
			rows[src] = r
			return r
		}
		for ; si < len(o.samples) && o.samples[si].gen == gen; si++ {
			s := o.samples[si]
			if msg := checkSample(s, row); msg != "" {
				if wrong == 0 {
					first = fmt.Sprintf("generation %d %s: %s", gen, opNames[s.kind], msg)
				}
				wrong++
			}
		}
	}
	return wrong, first
}

func checkSample(s sample, row func(int) []float64) string {
	if s.dst == nil {
		want := row(s.src[0])
		if len(s.got) != len(want) {
			return fmt.Sprintf("row of %d has %d entries, want %d", s.src[0], len(s.got), len(want))
		}
		for v, d := range s.got {
			if !sameDist(d, want[v]) {
				return fmt.Sprintf("dist(%d,%d) = %v, oracle %v", s.src[0], v, d, want[v])
			}
		}
		return ""
	}
	for i, d := range s.got {
		if want := row(s.src[i])[s.dst[i]]; !sameDist(d, want) {
			return fmt.Sprintf("dist(%d,%d) = %v, oracle %v", s.src[i], s.dst[i], d, want)
		}
	}
	return ""
}

// sameDist compares two distances up to floating-point reassociation
// (label meets, etree sweeps and Dijkstra add the same weights in
// different orders).
func sameDist(a, b float64) bool {
	if math.IsInf(a, 1) || math.IsInf(b, 1) {
		return math.IsInf(a, 1) && math.IsInf(b, 1)
	}
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b))
}
