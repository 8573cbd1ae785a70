package main

import (
	"fmt"
	"path/filepath"
	"time"

	"pdbscan"
	"pdbscan/internal/cellstore"
	"pdbscan/internal/core"
	"pdbscan/internal/dataset"
	"pdbscan/internal/geom"
	"pdbscan/internal/grid"
	"pdbscan/internal/parallel"
)

const (
	spillPoints = 250_000
	spillEps    = 2.0
	spillMinPts = 10
	spillShards = 16
	spillSetups = 5 // set-ups per run; setup_s is their median
)

func runSpill(b *bench) error {
	n := b.size(spillPoints, 20_000)
	pts, err := dataset.Generate("uniform-2d", n, b.seed)
	if err != nil {
		return err
	}
	budget := int64(pts.N) * int64(pts.D) * 8 / 4
	b.prov["dataset"] = "uniform-2d"
	b.prov["n"], b.prov["d"], b.prov["eps"], b.prov["min_pts"] = n, pts.D, spillEps, spillMinPts
	b.prov["store_shards"], b.prov["max_resident_bytes"] = spillShards, budget
	cfg := pdbscan.Config{MinPts: spillMinPts, Spill: true, MaxResidentBytes: budget}

	var ram, ooc *pdbscan.Clusterer
	setups, segment := b.plan(spillSetups)
	for i := 0; i < setups; i++ {
		if ooc != nil {
			if err := ooc.Close(); err != nil {
				return err
			}
		}
		ram, ooc = nil, nil
		freshHeap()
		path := filepath.Join(b.dir, fmt.Sprintf("public-%d.cellstore", i))
		start := time.Now()
		ram, err = pdbscan.NewClustererFlat(pts.Data, pts.D, spillEps)
		if err != nil {
			return err
		}
		if err := ram.WriteStore(path, spillShards); err != nil {
			return err
		}
		ooc, err = pdbscan.OpenStoreClusterer(path)
		if err != nil {
			return err
		}
		b.setupDone(start)
	}
	defer ooc.Close()

	// Reference: the in-RAM run of the same points.
	res, err := ram.Run(pdbscan.Config{MinPts: spillMinPts})
	if err != nil {
		return err
	}
	ref := fromResult(res)
	ram = nil

	var last *pdbscan.Result
	m0 := readMem()
	ops := loop(segment, 1, func(int) {
		start := time.Now()
		res, err := ooc.Run(cfg)
		lat := time.Since(start)
		if err == nil {
			err = sameClustering(fromResult(res), ref)
		}
		if st := ooc.LastRunStats(); err == nil && st.PeakResidentBytes > budget {
			err = fmt.Errorf("peak window %d bytes over the %d-byte budget", st.PeakResidentBytes, budget)
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
	return spillTraced(b, pts, budget, untraced)
}

// spillTraced repeats the spill path one layer call at a time: BuildGrid,
// ComputeNeighborsEnum, MakePartition, cellstore.Write and cellstore.Open in
// set-up (what WriteStore and OpenStoreClusterer call), then RunOutOfCore
// per op. Its labels must equal the untraced run's.
func spillTraced(b *bench, pts geom.Points, budget int64, untraced clustering) error {
	tr := b.tr
	var store *cellstore.Store
	defer func() {
		if store != nil {
			store.Close()
		}
	}()
	for i := 0; i < spillSetups; i++ {
		if store != nil {
			if err := store.Close(); err != nil {
				return err
			}
			store = nil
		}
		freshHeap()
		path := filepath.Join(b.dir, fmt.Sprintf("traced-%d.cellstore", i))
		ex := parallel.NewPool(0)
		var cells *grid.Cells
		var part *grid.Partition
		var err error
		at := tr.op("setup")
		at.call("grid.BuildGrid", func() { cells = grid.BuildGrid(ex, pts, spillEps) })
		at.call("grid.ComputeNeighborsEnum", func() { cells.ComputeNeighborsEnum(ex) })
		at.call("grid.MakePartition", func() { part, err = grid.MakePartition(ex, cells, spillShards) })
		if err == nil {
			at.call("cellstore.Write", func() { err = cellstore.Write(path, cells, part) })
		}
		if err == nil {
			at.call("cellstore.Open", func() { store, err = cellstore.Open(path) })
		}
		at.end()
		if err != nil {
			return err
		}
		b.count("grid.cells", float64(cells.NumCells()))
		b.count("grid.neighbor_refs", float64(neighborRefs(cells)))
		b.count("core.shards", float64(store.NumShards()))
	}

	arena := core.NewArena()
	loop(b.tracedSegment(), 1, func(int) {
		at := tr.op("op")
		var res *core.Result
		var st *core.OOCStats
		var err error
		p := exactParams(spillMinPts)
		p.Exec, p.Arena = parallel.NewPool(0), arena
		at.coreCall(b, "core.RunOutOfCore", &p, func() { res, st, err = core.RunOutOfCore(store, p, budget) })
		lat := at.end()
		if err == nil {
			err = sameClustering(fromCore(res), untraced)
			if err == nil && st.PeakResidentBytes > budget {
				err = fmt.Errorf("peak window %d bytes over the %d-byte budget", st.PeakResidentBytes, budget)
			}
			b.count("core.core_points", float64(countTrue(res.Core)))
			b.count("core.clusters", float64(res.NumClusters))
			b.count("cellstore.mapped_mb", mib(st.BytesMapped))
			b.count("cellstore.peak_resident_mb", mib(st.PeakResidentBytes))
			b.count("cellstore.resident_shards", float64(st.ShardsResidentPeak))
		}
		b.opDone(true, lat, err)
	})
	return nil
}
