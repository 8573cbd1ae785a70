package main

import (
	"pdbscan/internal/core"
)

// workload is one seeded input set and the op the benchmark times on it.
type workload struct {
	name string
	why  string // the reason it was chosen; BENCHMARK.json repeats it
	run  func(*bench) error
}

// The workloads. Every one runs with Workers 0 (GOMAXPROCS), from a single
// process, with at most two concurrent clients.
var workloads = []workload{
	{
		// ss-varden-3d, n = 10^6, rows shuffled; eps 2000, minPts 100; method
		// auto (exact), Shards auto. Op: Clusterer.Run with the same Config,
		// the steady state of a parameter sweep. Set-up: NewClustererFlat and
		// the first Run (time to first labels, including the lazy grid build,
		// neighbor lists, partition and arena fill). At ~100 points per cell
		// the grid build dominates set-up and MarkCore the op; the streaming,
		// spill and serving layers do nothing.
		name: "batch-3d",
		why:  "the paper's d>=3 setting: 1M 3D points at ~100 per cell through sharded Clusterer.Run; grid build dominates set-up, MarkCore the op; stream, spill and serving idle",
		run:  runBatch,
	},
	{
		// drift-2d, window 20 000, 200 new points per tick, eps 4, minPts 10.
		// Op: InsertFlat(200) + Window(20 000) + Run. Set-up: insert the first
		// window and the first (full) Run. About 2% of cells are dirty per
		// tick, so the time goes to grid.Dynamic and core.RunIncremental and
		// none to the batch grid build.
		name: "stream-2d",
		why:  "writes next to reads on one StreamingClusterer: ~2% dirty cells per tick, so time goes to grid.Dynamic and core.RunIncremental and none to the batch grid build",
		run:  runStream,
	},
	{
		// uniform-2d (1 point per unit area, ~2 points per cell at eps 2),
		// n = 250 000, eps 2, minPts 10; a store of 16 shards; a residency
		// budget of a quarter of the dataset. Op: a Spill run on
		// OpenStoreClusterer. Set-up: NewClustererFlat + WriteStore +
		// OpenStoreClusterer. Most of the op is per-window work outside every
		// pipeline phase.
		name: "spill-2d",
		why:  "the only workload through cellstore and RunOutOfCore: sparse, distance-heavy 2D at ~2 points per cell, 16 shards under a quarter-dataset residency budget",
		run:  runSpill,
	},
	{
		// serve.New on a loopback listener; 2 closed-loop clients (each waits
		// for its labels before sending again); 200 000 ss-varden-2d points,
		// eps 1000, minPts 100. Op: POST /v1/sessions (batch, JSON points) +
		// POST .../runs {"wait":true} + DELETE, with pre-encoded request
		// bodies; responses are decoded and checked outside the clock.
		// Set-up: server start and one warm-up exchange.
		name: "http-2d",
		why:  "the dbscand path: 2 closed-loop clients send 200k-point JSON sessions over loopback; the only workload with request decode, result encode and engine queueing",
		run:  runHTTP,
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

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// exactParams are the pipeline strategies the public path resolves for
// method auto at every workload here: scan-based MarkCore and BCP
// connectivity (MethodExact at d = 3, 2d-grid-bcp at d = 2).
func exactParams(minPts int) core.Params {
	return core.Params{MinPts: minPts, Mark: core.MarkScan, Graph: core.GraphBCP}
}
