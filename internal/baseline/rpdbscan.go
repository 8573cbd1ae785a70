package baseline

import (
	"sync"

	"pdbscan/internal/geom"
	"pdbscan/internal/grid"
	"pdbscan/internal/parallel"
	"pdbscan/internal/prim"
	"pdbscan/internal/unionfind"
)

// RPDBSCANSim simulates the cost structure of RP-DBSCAN (Song & Lee, the
// state-of-the-art distributed comparator of Table 2) inside one process:
//
//  1. cells are assigned to `parts` partitions pseudo-randomly (random
//     partitioning);
//  2. each partition, on its own goroutine with its own private buffers,
//     *copies* the points of its cells plus a halo of neighboring cells
//     (the data duplication a real cluster pays as network shuffle), marks
//     core points, and unions cells locally (cell-graph BCP restricted to
//     pairs whose lower-indexed cell is owned by the partition);
//  3. a merge phase resolves cross-partition cell pairs in a global
//     union-find (the "cell merging" step of RP-DBSCAN).
//
// Unlike the real RP-DBSCAN, the result is exact (the connectivity tests are
// exact BCPs); the simulation reproduces the partition/duplicate/merge work
// shape rather than the approximation.
func RPDBSCANSim(ex *parallel.Pool, pts geom.Points, eps float64, minPts int, parts int) *Result {
	if parts < 1 {
		parts = 1
	}
	cells := grid.BuildGrid(ex, pts, eps)
	cells.ComputeNeighbors(ex, nil)
	numCells := cells.NumCells()
	eps2 := eps * eps

	// (1) Random cell -> partition assignment.
	partOf := make([]int32, numCells)
	ex.For(numCells, func(g int) {
		partOf[g] = int32(prim.Mix64(uint64(g)^0xdb5c4a) % uint64(parts))
	})

	core := make([]bool, pts.N)
	uf := unionfind.New(numCells)
	var crossMu sync.Mutex
	var crossPairs [][2]int32 // cell pairs crossing partitions, for phase 3

	// (2) Per-partition local phase.
	var wg sync.WaitGroup
	for part := 0; part < parts; part++ {
		wg.Add(1)
		go func(part int32) {
			defer wg.Done()
			// Duplicate owned + halo points into partition-private storage
			// (the simulated shuffle cost).
			local := make(map[int32][]float64, 16)
			copyCell := func(g int32) {
				if _, ok := local[g]; ok {
					return
				}
				ps := cells.PointsOf(int(g))
				buf := make([]float64, 0, len(ps)*pts.D)
				for _, p := range ps {
					buf = append(buf, pts.At(int(p))...)
				}
				local[g] = buf
			}
			var localPairs [][2]int32
			for g := int32(0); g < int32(numCells); g++ {
				if partOf[g] != part {
					continue
				}
				copyCell(g)
				for _, h := range cells.Neighbors[g] {
					copyCell(h)
					if h < g {
						if partOf[h] == part {
							localPairs = append(localPairs, [2]int32{g, h})
						} else {
							crossMu.Lock()
							crossPairs = append(crossPairs, [2]int32{g, h})
							crossMu.Unlock()
						}
					}
				}
			}
			// Mark core points of owned cells against the local copies.
			for g := int32(0); g < int32(numCells); g++ {
				if partOf[g] != part {
					continue
				}
				gPts := cells.PointsOf(int(g))
				if len(gPts) >= minPts {
					for _, p := range gPts {
						core[p] = true
					}
					continue
				}
				for _, p := range gPts {
					q := pts.At(int(p))
					count := len(gPts)
					for _, h := range cells.Neighbors[g] {
						if count >= minPts {
							break
						}
						buf := local[h]
						for o := 0; o+pts.D <= len(buf); o += pts.D {
							if geom.DistSq(q, buf[o:o+pts.D]) <= eps2 {
								count++
								if count >= minPts {
									break
								}
							}
						}
					}
					if count >= minPts {
						core[p] = true
					}
				}
			}
			// Local cell unions (both cells owned by this partition).
			for _, pr := range localPairs {
				if connectedScanLocal(pts, cells, core, local, pr[0], pr[1], eps2) {
					uf.Union(pr[0], pr[1])
				}
			}
		}(int32(part))
	}
	wg.Wait()

	// (3) Merge phase: cross-partition pairs.
	ex.ForGrain(len(crossPairs), 4, func(i int) {
		g, h := crossPairs[i][0], crossPairs[i][1]
		if uf.SameSet(g, h) {
			return
		}
		if connectedScan(pts, cells, core, g, h, eps2) {
			uf.Union(g, h)
		}
	})

	// Labels: densify over core cells, then a border pass.
	coreCellFlag := make([]bool, numCells)
	ex.For(numCells, func(g int) {
		for _, p := range cells.PointsOf(g) {
			if core[p] {
				coreCellFlag[g] = true
				break
			}
		}
	})
	roots, dense := unionfind.DenseRoots(ex, uf, func(g int32) bool { return coreCellFlag[g] })
	labels := make([]int32, pts.N)
	ex.ForGrain(pts.N, 16, func(i int) {
		if core[i] {
			labels[i] = dense[uf.Find(cells.CellOf[i])]
			return
		}
		labels[i] = -1
		q := pts.At(i)
		g := cells.CellOf[i]
		try := func(h int32) {
			for _, p := range cells.PointsOf(int(h)) {
				if core[p] && geom.DistSq(q, pts.At(int(p))) <= eps2 {
					l := dense[uf.Find(h)]
					if labels[i] == -1 || l < labels[i] {
						labels[i] = l
					}
					return
				}
			}
		}
		try(g)
		for _, h := range cells.Neighbors[g] {
			try(h)
		}
	})
	return &Result{Core: core, Labels: labels, NumClusters: len(roots)}
}

// connectedScanLocal is the partition-local BCP over copied buffers.
func connectedScanLocal(pts geom.Points, cells *grid.Cells, core []bool, local map[int32][]float64, g, h int32, eps2 float64) bool {
	d := pts.D
	gPts := cells.PointsOf(int(g))
	hBuf := local[h]
	hPts := cells.PointsOf(int(h))
	for _, p := range gPts {
		if !core[p] {
			continue
		}
		q := pts.At(int(p))
		for k, r := range hPts {
			if !core[r] {
				continue
			}
			if geom.DistSq(q, hBuf[k*d:(k+1)*d]) <= eps2 {
				return true
			}
		}
	}
	return false
}

// connectedScan is the direct BCP between two cells' core points.
func connectedScan(pts geom.Points, cells *grid.Cells, core []bool, g, h int32, eps2 float64) bool {
	for _, p := range cells.PointsOf(int(g)) {
		if !core[p] {
			continue
		}
		q := pts.At(int(p))
		for _, r := range cells.PointsOf(int(h)) {
			if core[r] && geom.DistSq(q, pts.At(int(r))) <= eps2 {
				return true
			}
		}
	}
	return false
}
