package main

import (
	"repro/internal/gen"
	"repro/internal/graph"
)

// opKind is one kind of client operation.
type opKind int

const (
	opDist opKind = iota
	opBatch
	opSSSP
	opUpdate
	numOpKinds
)

var opNames = [numOpKinds]string{"dist", "batch", "sssp", "update"}

// workload is one set of inputs: a graph class, a deployment shape, a
// key distribution and an op mix. The five phases (set-up, build, warm
// boot, traffic, verify) are the same for all of them.
type workload struct {
	name string
	why  string
	// graph builds the input; tiny selects the few-hundred-vertex
	// variant of the same class the smoke test runs.
	graph func(tiny bool) *graph.Graph
	// sharded deploys shard.Coordinator over two durable workers
	// instead of one durable serve.Server.
	sharded bool
	// cacheSize is serve.Options.CacheSize (0 = the server's default).
	cacheSize int
	// zipf is the Zipf exponent of the vertex keys (0 = uniform).
	zipf float64
	// round is the op mix: how many ops of each kind one round of the
	// script holds. Rounds repeat until the traffic budget is spent.
	round [numOpKinds]int
	// batchPairs is the size of one /dist/batch request.
	batchPairs int
	// updateEdges is the size of one /admin/update batch.
	updateEdges int
	// restore makes every second update set the previous batch's edges
	// back to their base weights, so updates alternate pure decrease and
	// pure increase; otherwise each batch rescales random edges by
	// 0.5..1.5 of their base weight (mixed).
	restore bool
	// bootBatches journaled batches of bootEdges edges each sit behind
	// the checkpoint a warm boot replays.
	bootBatches int
	bootEdges   int
}

// The workload names are final: later issues cite them.
var workloads = []workload{
	{
		name: "road_hot",
		why:  "tiny separators, Zipf keys, 95% /dist: ordering dominates the build and HTTP dominates a query; kernels idle",
		graph: func(tiny bool) *graph.Graph {
			if tiny {
				return gen.RoadNetwork(14, 14, 0.35, 112)
			}
			return gen.RoadNetwork(80, 80, 0.35, 112)
		},
		zipf:        1.2,
		round:       [numOpKinds]int{opDist: 950, opBatch: 25, opSSSP: 24, opUpdate: 1},
		batchPairs:  256,
		updateEdges: 8,
		bootBatches: 32,
		bootEdges:   8,
	},
	{
		name: "mesh3d_cold",
		why:  "240-vertex separators, uniform keys over a 256-label cache: min-plus kernels dominate the build, label build a query",
		graph: func(tiny bool) *graph.Graph {
			if tiny {
				return gen.Grid3D(6, 6, 5, gen.WeightUniform, 113)
			}
			return gen.Grid3D(17, 16, 15, gen.WeightUniform, 113)
		},
		cacheSize: 256,
		// Few, small batches: the batch handler looks every pair up twice
		// (distance, then reachability), and each second lookup is a hit.
		round:       [numOpKinds]int{opDist: 285, opBatch: 5, opSSSP: 9, opUpdate: 1},
		batchPairs:  8,
		updateEdges: 8,
		bootBatches: 8,
		bootEdges:   2,
	},
	{
		name: "hypercube_bulk",
		why:  "expander (nested dissection buys nothing): dense kernels are the build and every update; reads are rows and batches",
		graph: func(tiny bool) *graph.Graph {
			if tiny {
				return gen.Hypercube(7, gen.WeightUniform, 121)
			}
			return gen.Hypercube(11, gen.WeightUniform, 121)
		},
		// Uniform keys: every update rebuilds the whole factor and empties
		// the label cache, and the reads between two updates touch too few
		// labels to refill it, so point and batch reads are firmly cold.
		// (Zipf keys leave about half of them warm, and a median that
		// flips between the two modes from seed to seed.)
		round:       [numOpKinds]int{opDist: 30, opBatch: 6, opSSSP: 9, opUpdate: 1},
		batchPairs:  8,
		updateEdges: 8,
		bootBatches: 1,
		bootEdges:   8,
	},
	{
		name: "road_write",
		why:  "road graph behind coordinator + 2 durable workers, one update per 25 reads: 2PC fan-out, fsync, COW patch, cache invalidation",
		graph: func(tiny bool) *graph.Graph {
			if tiny {
				return gen.RoadNetwork(14, 14, 0.35, 112)
			}
			return gen.RoadNetwork(80, 80, 0.35, 112)
		},
		sharded:     true,
		zipf:        1.2,
		round:       [numOpKinds]int{opDist: 22, opBatch: 2, opSSSP: 1, opUpdate: 1},
		batchPairs:  64,
		updateEdges: 8,
		restore:     true,
		bootBatches: 32,
		bootEdges:   8,
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}
