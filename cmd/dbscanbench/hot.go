package main

import (
	"fmt"
	"runtime"
	"time"

	"pdbscan/internal/core"
	"pdbscan/internal/geom"
	"pdbscan/internal/grid"
	"pdbscan/internal/parallel"
)

// hotRun is one measured configuration of the hot-path experiment: the
// steady state of repeated Clusterer.Run calls (specialized kernels, warmed
// scratch arena, cell-major payload) over prebuilt cells.
type hotRun struct {
	Method      string  `json:"method"`
	D           int     `json:"d"`
	N           int     `json:"n"`
	NsPerOp     int64   `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	Clusters    int     `json:"clusters"`
}

// hotReport is the BENCH_hot.json schema: clustering-phase latency and
// allocation counts across methods and dimensionalities, over prebuilt cell
// structures (grid construction excluded — it is paid once per Clusterer,
// not per run).
type hotReport struct {
	Seed    int64    `json:"seed"`
	Threads int      `json:"threads"`
	Runs    []hotRun `json:"runs"`
}

// hotConfig is one method x dimension cell of the experiment matrix.
type hotConfig struct {
	name  string
	d     int
	scale int // divisor applied to o.n (non-headline cells run smaller)
	mark  core.MarkStrategy
	graph core.GraphStrategy
	rho   float64
}

// expHot measures the clustering phase (MarkCore + ClusterCore +
// ClusterBorder over prepared cells) of repeated core.Run calls with a
// warmed arena, one row per method x dimension. With -json it records
// BENCH_hot.json.
func expHot(o options) {
	const minPts = 100
	threads := effectiveThreads(o.threads)
	ex := parallel.NewPool(o.threads)
	rep := hotReport{Seed: o.seed, Threads: threads}

	matrix := []hotConfig{
		{name: "2d-grid-bcp", d: 2, scale: 1, mark: core.MarkScan, graph: core.GraphBCP},
		{name: "2d-grid-usec", d: 2, scale: 5, mark: core.MarkScan, graph: core.GraphUSEC},
		{name: "exact", d: 2, scale: 5, mark: core.MarkScan, graph: core.GraphBCP},
		{name: "exact-qt", d: 2, scale: 5, mark: core.MarkQuadtree, graph: core.GraphQuadtree},
		{name: "approx", d: 2, scale: 5, mark: core.MarkScan, graph: core.GraphApprox, rho: 0.01},
		{name: "exact", d: 3, scale: 5, mark: core.MarkScan, graph: core.GraphBCP},
		{name: "exact-qt", d: 3, scale: 5, mark: core.MarkQuadtree, graph: core.GraphQuadtree},
		{name: "approx", d: 3, scale: 5, mark: core.MarkScan, graph: core.GraphApprox, rho: 0.01},
		{name: "exact", d: 5, scale: 5, mark: core.MarkScan, graph: core.GraphBCP},
		{name: "approx", d: 5, scale: 5, mark: core.MarkScan, graph: core.GraphApprox, rho: 0.01},
	}

	tbl := newTable(fmt.Sprintf("hot path: minPts=%d threads=%d (specialized kernels, pooled scratch, cell-major payload)", minPts, threads),
		"method", "d", "n", "ns/op", "allocs/op", "clusters")

	// Cell structures are shared per (d, n): they depend only on points/eps.
	type cellKey struct{ d, n int }
	cellCache := map[cellKey]*grid.Cells{}

	for _, hc := range matrix {
		n := o.n / hc.scale
		if n < 10000 {
			n = min(10000, o.n)
		}
		key := cellKey{hc.d, n}
		cells, ok := cellCache[key]
		if !ok {
			pts := loadDataset(fmt.Sprintf("ss-varden-%dd", hc.d), n, o.seed)
			shuffleRows(pts, uint64(o.seed))
			eps := hotEps(hc.d)
			cells = grid.BuildGrid(ex, pts, eps)
			if pts.D <= 3 {
				cells.ComputeNeighborsEnum(ex)
			} else {
				cells.ComputeNeighborsKD(ex)
			}
			cellCache[key] = cells
		}

		params := core.Params{
			MinPts: minPts, Rho: hc.rho, Mark: hc.mark, Graph: hc.graph, Exec: ex,
			Arena: core.NewArena(),
		}
		run := measureHot(cells, params)
		run.Method, run.D, run.N = hc.name, hc.d, n
		rep.Runs = append(rep.Runs, run)
		tbl.add(hc.name, fmt.Sprint(hc.d), fmt.Sprint(n),
			fmtDur(time.Duration(run.NsPerOp)), fmt.Sprintf("%.0f", run.AllocsPerOp), fmt.Sprint(run.Clusters))
	}
	tbl.print()

	if o.jsonPath != "" {
		writeJSON(o.jsonPath, rep)
		fmt.Printf("wrote %s\n", o.jsonPath)
	}
}

// shuffleRows deterministically permutes the dataset's row order
// (Fisher-Yates over a splitmix64 stream). The synthetic generators emit
// points cluster-by-cluster, an input order so spatially sorted that the
// per-point state reached through Order (core flags, labels) is already
// cache-local. Real ingestion orders carry no such correlation between
// array position and space; the shuffle restores that.
func shuffleRows(pts geom.Points, seed uint64) {
	state := seed*0x9e3779b97f4a7c15 + 1
	next := func() uint64 {
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	d := pts.D
	for i := pts.N - 1; i > 0; i-- {
		j := int(next() % uint64(i+1))
		for k := 0; k < d; k++ {
			pts.Data[i*d+k], pts.Data[j*d+k] = pts.Data[j*d+k], pts.Data[i*d+k]
		}
	}
}

// hotEps returns the experiment eps per dimension (matched to the seed
// spreader's coordinate range so cluster structure is non-trivial).
func hotEps(d int) float64 {
	switch d {
	case 2:
		return 1000
	case 3:
		return 2000
	default:
		return 4000
	}
}

// measureHot times repeated core.Run calls over prepared cells and reports
// per-op latency and allocation counts. One warmup run is excluded (it pays
// lazy builds and the arena's first fill); measurement then loops until both
// a minimum op count and a minimum wall time are reached.
func measureHot(cells *grid.Cells, params core.Params) hotRun {
	res, err := core.Run(cells, params)
	if err != nil {
		fatalf("hot: %v", err)
	}
	clusters := res.NumClusters

	const minOps = 3
	const minWall = 1500 * time.Millisecond
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	ops := 0
	for ops < minOps || time.Since(start) < minWall {
		if _, err := core.Run(cells, params); err != nil {
			fatalf("hot: %v", err)
		}
		ops++
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&ms1)
	return hotRun{
		NsPerOp:     elapsed.Nanoseconds() / int64(ops),
		AllocsPerOp: float64(ms1.Mallocs-ms0.Mallocs) / float64(ops),
		BytesPerOp:  float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(ops),
		Clusters:    clusters,
	}
}
