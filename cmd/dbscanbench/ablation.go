package main

import (
	"fmt"
	"time"

	"pdbscan/internal/core"
	"pdbscan/internal/grid"
	"pdbscan/internal/parallel"
)

// expAblation isolates the design choices DESIGN.md calls out, holding
// everything else fixed:
//
//  1. NeighborCells: offset enumeration vs k-d tree (Section 5.1) across
//     dimensions;
//  2. MarkCore: scan vs quadtree RangeCount (Sections 4.3 / 5.2) with the
//     cell-graph strategy fixed to BCP;
//  3. bucketing batch count (Section 4.4), from one batch (= plain parallel
//     processing of the sorted order) to very fine batches (= almost
//     sequential, maximal pruning).
func expAblation(o options) {
	// --- 1: neighbor finding ---
	t := newTable("Ablation 1: NeighborCells enumeration vs k-d tree (time to compute all neighbor lists)",
		"dataset", "enum", "kd-tree", "cells")
	for _, dsName := range []string{"ss-simden-3d", "ss-simden-5d", "ss-simden-7d"} {
		eps := map[string]float64{"ss-simden-3d": 1000, "ss-simden-5d": 1000, "ss-simden-7d": 2000}[dsName]
		pts := loadDataset(dsName, o.n, o.seed)
		cEnum := grid.BuildGrid(parallel.Default(), pts, eps)
		start := time.Now()
		cEnum.ComputeNeighborsEnum(parallel.Default())
		enumTime := time.Since(start)
		cKD := grid.BuildGrid(parallel.Default(), pts, eps)
		start = time.Now()
		cKD.ComputeNeighborsKD(parallel.Default())
		kdTime := time.Since(start)
		t.add(dsName, fmtDur(enumTime), fmtDur(kdTime), fmt.Sprintf("%d", cEnum.NumCells()))
	}
	t.print()

	// --- 2: MarkCore strategy (graph fixed to BCP) ---
	t = newTable("Ablation 2: MarkCore scan vs quadtree (full pipeline, GraphBCP fixed)",
		"dataset", "minPts", "mark=scan", "mark=quadtree")
	for _, cfg := range []struct {
		name   string
		eps    float64
		minPts int
	}{
		{"ss-simden-5d", 1000, 100},
		{"ss-simden-5d", 1000, 1000},
		{"geolife", 40, 100},
		{"uniform-5d", 100, 100},
	} {
		pts := loadDataset(cfg.name, o.n, o.seed)
		cells := grid.BuildGrid(parallel.Default(), pts, cfg.eps)
		cells.ComputeNeighbors(parallel.Default(), nil)
		times := map[core.MarkStrategy]time.Duration{}
		for _, mark := range []core.MarkStrategy{core.MarkScan, core.MarkQuadtree} {
			start := time.Now()
			if _, err := core.Run(cells, core.Params{
				MinPts: cfg.minPts, Mark: mark, Graph: core.GraphBCP,
			}); err != nil {
				panic(err)
			}
			times[mark] = time.Since(start)
		}
		t.add(cfg.name, fmt.Sprintf("%d", cfg.minPts),
			fmtDur(times[core.MarkScan]), fmtDur(times[core.MarkQuadtree]))
	}
	t.print()

	// --- 3: bucketing batch count ---
	buckets := []int{1, 4, 16, 64, 256}
	headers := []string{"dataset", "no-bucketing"}
	for _, b := range buckets {
		headers = append(headers, fmt.Sprintf("buckets=%d", b))
	}
	t = newTable("Ablation 3: bucketing batch count (GraphBCP)", headers...)
	for _, cfg := range []struct {
		name   string
		eps    float64
		minPts int
	}{
		{"ss-varden-3d", 2000, 100},
		{"geolife", 40, 100},
	} {
		pts := loadDataset(cfg.name, o.n, o.seed)
		cells := grid.BuildGrid(parallel.Default(), pts, cfg.eps)
		cells.ComputeNeighborsEnum(parallel.Default())
		cells2 := cells
		run := func(bucketing bool, nb int) time.Duration {
			start := time.Now()
			if _, err := core.Run(cells2, core.Params{
				MinPts: cfg.minPts, Graph: core.GraphBCP,
				Bucketing: bucketing, Buckets: nb,
			}); err != nil {
				panic(err)
			}
			return time.Since(start)
		}
		cells3 := []string{cfg.name, fmtDur(run(false, 0))}
		for _, b := range buckets {
			cells3 = append(cells3, fmtDur(run(true, b)))
		}
		t.add(cells3...)
	}
	t.print()
}
