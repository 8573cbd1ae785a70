package main

import (
	"time"

	"pdbscan"
	"pdbscan/internal/core"
	"pdbscan/internal/geom"
	"pdbscan/internal/grid"
	"pdbscan/internal/parallel"
)

const (
	batchPoints = 1_000_000
	batchEps    = 2000.0
	batchMinPts = 100
	batchSetups = 5 // set-ups per run; setup_s is their median
)

func runBatch(b *bench) error {
	n := b.size(batchPoints, 20_000)
	pts := vardenMix(n, 3, b.seed)
	shuffleRows(pts, uint64(b.seed))
	cfg := pdbscan.Config{MinPts: batchMinPts} // method auto, Workers 0, Shards auto
	b.prov["dataset"] = "ss-varden-3d, fixed density mix, rows shuffled"
	b.prov["n"], b.prov["d"], b.prov["eps"], b.prov["min_pts"] = n, pts.D, batchEps, batchMinPts

	// Reference: a fresh Clusterer forced onto the monolithic path.
	refCfg := cfg
	refCfg.Eps, refCfg.Shards = batchEps, 1
	res, err := pdbscan.ClusterFlat(pts.Data, pts.D, refCfg)
	if err != nil {
		return err
	}
	ref := fromResult(res)

	var c *pdbscan.Clusterer
	setups, segment := b.plan(batchSetups)
	for i := 0; i < setups; i++ {
		c = nil
		freshHeap()
		start := time.Now()
		nc, err := pdbscan.NewClustererFlat(pts.Data, pts.D, batchEps)
		if err != nil {
			return err
		}
		res, err := nc.Run(cfg)
		if err != nil {
			return err
		}
		b.setupDone(start)
		if err := sameClustering(fromResult(res), ref); err != nil {
			b.problem("set-up %d: %v", i, err)
		}
		c = nc
	}
	shards := c.LastRunStats().Shards
	b.prov["shards"] = shards

	var last *pdbscan.Result
	m0 := readMem()
	ops := loop(segment, 1, func(int) {
		start := time.Now()
		res, err := c.Run(cfg)
		lat := time.Since(start)
		if err == nil {
			err = sameClustering(fromResult(res), ref)
		}
		if err == nil {
			last = res
		}
		b.opDone(false, lat, err)
	})
	b.perOp(m0, readMem(), ops)
	if !b.trace {
		return nil
	}
	untraced := ref // when every untraced op failed, compare with the reference
	if last != nil {
		untraced = fromResult(last)
	}
	c, last = nil, nil
	return batchTraced(b, pts, shards, untraced)
}

// batchTraced repeats the batch path one layer call at a time: BuildGrid,
// ComputeNeighborsEnum and MakePartition in set-up, then the sharded
// pipeline (or the monolithic one where the public path falls back to it)
// per op. Its labels must equal the untraced run's.
func batchTraced(b *bench, pts geom.Points, shards int, untraced clustering) error {
	tr := b.tr
	var cells *grid.Cells
	var part *grid.Partition
	var arena *core.Arena
	runCore := func(at *tracerAt) (*core.Result, error) {
		p := exactParams(batchMinPts)
		p.Exec, p.Arena = parallel.NewPool(0), arena
		var res *core.Result
		var err error
		if part == nil {
			at.coreCall(b, "core.Run", &p, func() { res, err = core.Run(cells, p) })
		} else {
			at.coreCall(b, "core.RunSharded", &p, func() { res, err = core.RunSharded(cells, p, part) })
		}
		return res, err
	}
	for i := 0; i < batchSetups; i++ {
		cells, part, arena = nil, nil, nil
		freshHeap()
		ex := parallel.NewPool(0)
		at := tr.op("setup")
		at.call("grid.BuildGrid", func() { cells = grid.BuildGrid(ex, pts, batchEps) })
		at.call("grid.ComputeNeighborsEnum", func() { cells.ComputeNeighborsEnum(ex) })
		arena = core.NewArena()
		if shards > 1 {
			var err error
			at.call("grid.MakePartition", func() { part, err = grid.MakePartition(ex, cells, shards) })
			if err != nil {
				return err
			}
			if part.NumShards <= 1 {
				part = nil // the public path runs monolithic here too
			}
		}
		res, err := runCore(at)
		at.end()
		if err != nil {
			return err
		}
		if err := sameClustering(fromCore(res), untraced); err != nil {
			b.problem("traced set-up %d: %v", i, err)
		}
		b.count("grid.cells", float64(cells.NumCells()))
		b.count("grid.neighbor_refs", float64(neighborRefs(cells)))
		b.count("core.shards", float64(numShards(part)))
	}
	loop(b.tracedSegment(), 1, func(int) {
		at := tr.op("op")
		res, err := runCore(at)
		lat := at.end()
		if err == nil {
			err = sameClustering(fromCore(res), untraced)
			b.count("core.core_points", float64(countTrue(res.Core)))
			b.count("core.clusters", float64(res.NumClusters))
		}
		b.opDone(true, lat, err)
	})
	return nil
}

// neighborRefs is the total length of the cells' neighbor lists.
func neighborRefs(c *grid.Cells) int {
	n := 0
	for _, nb := range c.Neighbors {
		n += len(nb)
	}
	return n
}

func numShards(p *grid.Partition) int {
	if p == nil {
		return 1
	}
	return p.NumShards
}
