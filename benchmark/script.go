package main

import (
	"encoding/json"
	"math/rand"
	"strconv"

	"repro/internal/core"
	"repro/internal/graph"
)

// op is one scripted client operation with its request already encoded.
type op struct {
	kind  opKind
	u, v  int              // dist: the pair; sssp: u is the source
	pairs [][2]int         // batch
	edges []core.EdgeDelta // update
	path  string           // GET target
	body  []byte           // POST body
}

// script generates the traffic of one run from its seed: op kinds,
// keys and update batches. The program under test sees only the
// generated requests.
type script struct {
	w     *workload
	rng   *rand.Rand
	n     int
	keys  []int // popularity rank -> vertex
	zipf  *rand.Zipf
	edges []graph.Edge     // base edges
	last  []core.EdgeDelta // previous update batch (restore mode)
	odd   bool             // next update restores last
}

func newScript(w *workload, g *graph.Graph, seed int64) *script {
	rng := rand.New(rand.NewSource(seed))
	s := &script{w: w, rng: rng, n: g.N, keys: rng.Perm(g.N), edges: g.Edges()}
	if w.zipf > 0 {
		s.zipf = rand.NewZipf(rng, w.zipf, 1, uint64(g.N-1))
	}
	return s
}

// vertex draws one key: Zipf over a seeded popularity ranking, or
// uniform.
func (s *script) vertex() int {
	if s.zipf != nil {
		return s.keys[s.zipf.Uint64()]
	}
	return s.rng.Intn(s.n)
}

// round returns the next round of the script: the workload's op mix in
// a seeded order.
func (s *script) round() []op {
	var kinds []opKind
	for k, c := range s.w.round {
		for i := 0; i < c; i++ {
			kinds = append(kinds, opKind(k))
		}
	}
	s.rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	ops := make([]op, len(kinds))
	for i, k := range kinds {
		ops[i] = s.op(k)
	}
	return ops
}

func (s *script) op(k opKind) op {
	o := op{kind: k}
	switch k {
	case opDist:
		o.u, o.v = s.vertex(), s.vertex()
		o.path = "/dist?u=" + strconv.Itoa(o.u) + "&v=" + strconv.Itoa(o.v)
	case opSSSP:
		o.u = s.vertex()
		o.path = "/sssp?src=" + strconv.Itoa(o.u)
	case opBatch:
		o.pairs = make([][2]int, s.w.batchPairs)
		for i := range o.pairs {
			o.pairs[i] = [2]int{s.vertex(), s.vertex()}
		}
		o.path = "/dist/batch"
		o.body = mustJSON(map[string]any{"pairs": o.pairs})
	case opUpdate:
		o.edges = s.updateBatch()
		o.path = "/admin/update"
		o.body = mustJSON(map[string]any{"edges": o.edges})
	}
	return o
}

// updateBatch returns the next /admin/update batch. In restore mode
// every second batch puts the previous batch's edges back to their base
// weights, so updates alternate pure decrease and pure increase.
func (s *script) updateBatch() []core.EdgeDelta {
	if !s.w.restore {
		batch, _ := s.drawEdges(s.w.updateEdges, 0.5, 1.0)
		return batch
	}
	if s.odd {
		s.odd = false
		return s.last
	}
	batch, base := s.drawEdges(s.w.updateEdges, 0.5, 0.4)
	s.last, s.odd = base, true
	return batch
}

// drawEdges draws k distinct base edges and returns them twice: with
// new absolute weights of lo..lo+width times the base weight, and with
// the base weights.
func (s *script) drawEdges(k int, lo, width float64) (batch, base []core.EdgeDelta) {
	seen := map[int]bool{}
	for len(batch) < k && len(seen) < len(s.edges) {
		i := s.rng.Intn(len(s.edges))
		if seen[i] {
			continue
		}
		seen[i] = true
		e := s.edges[i]
		batch = append(batch, core.EdgeDelta{U: e.U, V: e.V, W: e.W * (lo + width*s.rng.Float64())})
		base = append(base, core.EdgeDelta{U: e.U, V: e.V, W: e.W})
	}
	return batch, base
}

func mustJSON(v any) []byte {
	data, err := json.Marshal(v)
	if err != nil {
		panic(err) // plain ints and finite floats always encode
	}
	return data
}
