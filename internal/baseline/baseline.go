// Package baseline implements the comparison algorithms of Section 7.1:
//
//   - Sequential: the original Ester et al. DBSCAN with k-d tree range
//     queries (the classic queue-expansion algorithm);
//   - PDSDBSCAN: Patwary et al.'s parallel disjoint-set DBSCAN — every point
//     issues a pointwise eps-range query against a k-d tree and core points
//     union with their core neighbors (the paper notes its queries get more
//     expensive as eps grows; ours reproduces that cost shape);
//   - HPDBSCAN: Götz et al.'s grid-partitioned DBSCAN — pointwise queries
//     against grid neighbor cells with a union-find merge;
//   - RPDBSCANSim: an in-process simulation of the RP-DBSCAN partition/merge
//     structure (random cell partitioning, per-partition local clustering
//     with halo duplication, then a cross-partition merge phase). See
//     DESIGN.md for the substitution rationale.
//
// Border-point semantics follow the original implementations: a border point
// receives a single cluster label (the standard-definition multi-membership
// is only produced by the main pipeline).
package baseline

import (
	"pdbscan/internal/geom"
	"pdbscan/internal/grid"
	"pdbscan/internal/kdtree"
	"pdbscan/internal/parallel"
	"pdbscan/internal/unionfind"
)

// Result is the common output of the baseline algorithms.
type Result struct {
	Core        []bool
	Labels      []int32 // -1 = noise; border points get one cluster
	NumClusters int
}

// Sequential runs the classic DBSCAN algorithm (Ester et al.) with a k-d
// tree index: scan points, expand each unvisited core point's cluster with a
// FIFO queue of eps-neighborhood queries. O(n * query) work, sequential.
func Sequential(ex *parallel.Pool, pts geom.Points, eps float64, minPts int) *Result {
	tree := kdtree.Build(ex, pts)
	n := pts.N
	labels := make([]int32, n)
	core := make([]bool, n)
	for i := range labels {
		labels[i] = -1
	}
	visited := make([]bool, n)
	var numClusters int32
	var queue []int32
	var nbrs []int32
	for i := 0; i < n; i++ {
		if visited[i] {
			continue
		}
		visited[i] = true
		nbrs = tree.RangeQuery(pts.At(i), eps, nbrs[:0])
		if len(nbrs) < minPts {
			continue // noise for now; may become border later
		}
		cluster := numClusters
		numClusters++
		core[i] = true
		labels[i] = cluster
		queue = append(queue[:0], nbrs...)
		for len(queue) > 0 {
			q := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			if labels[q] == -1 {
				labels[q] = cluster // border or core; set below
			}
			if visited[q] {
				continue
			}
			visited[q] = true
			qn := tree.RangeQuery(pts.At(int(q)), eps, nil)
			if len(qn) >= minPts {
				core[q] = true
				labels[q] = cluster
				queue = append(queue, qn...)
			}
		}
	}
	return &Result{Core: core, Labels: labels, NumClusters: int(numClusters)}
}

// PDSDBSCAN is the parallel disjoint-set DBSCAN baseline: parallel pointwise
// eps-queries on a k-d tree, a union-find over points (ours is lock-free
// where the original is lock-based), and a border pass.
func PDSDBSCAN(ex *parallel.Pool, pts geom.Points, eps float64, minPts int) *Result {
	tree := kdtree.Build(ex, pts)
	n := pts.N
	core := make([]bool, n)
	ex.For(n, func(i int) {
		core[i] = tree.CountAtLeast(pts.At(i), eps, minPts)
	})
	uf := unionfind.New(n)
	ex.ForGrain(n, 16, func(i int) {
		if !core[i] {
			return
		}
		nbrs := tree.RangeQuery(pts.At(i), eps, nil)
		for _, q := range nbrs {
			if core[q] {
				uf.Union(int32(i), q)
			}
		}
	})
	return finishPointUF(ex, pts, eps, core, uf, func(i int) []int32 {
		return tree.RangeQuery(pts.At(i), eps, nil)
	})
}

// HPDBSCAN is the grid-partitioned baseline: identical structure to
// PDSDBSCAN but with pointwise queries answered by scanning the grid
// neighbor cells (the local clustering + merge of the original collapses to
// a shared union-find in shared memory).
func HPDBSCAN(ex *parallel.Pool, pts geom.Points, eps float64, minPts int) *Result {
	cells := grid.BuildGrid(ex, pts, eps)
	cells.ComputeNeighbors(ex, nil)
	n := pts.N
	eps2 := eps * eps
	k := geom.NewKernel(pts)
	core := make([]bool, n)
	// Pointwise core test by scanning own + neighbor cells through the
	// dimension-specialized kernel, nearest-counted first via the cell's own
	// points then neighbors, with early termination at minPts.
	ex.ForGrain(n, 16, func(i int) {
		g := cells.CellOf[i]
		count := k.CountWithin(int32(i), cells.PointsOf(int(g)), eps2, minPts)
		if count >= minPts {
			core[i] = true
			return
		}
		for _, h := range cells.Neighbors[g] {
			count += k.CountWithin(int32(i), cells.PointsOf(int(h)), eps2, minPts-count)
			if count >= minPts {
				core[i] = true
				return
			}
		}
	})
	uf := unionfind.New(n)
	ex.ForGrain(n, 16, func(i int) {
		if !core[i] {
			return
		}
		g := cells.CellOf[i]
		unionCell := func(h int32) {
			for _, p := range cells.PointsOf(int(h)) {
				if core[p] && k.DistSq(int32(i), p) <= eps2 {
					uf.Union(int32(i), p)
				}
			}
		}
		unionCell(g)
		for _, h := range cells.Neighbors[g] {
			unionCell(h)
		}
	})
	query := func(i int) []int32 {
		g := cells.CellOf[i]
		var out []int32
		collect := func(h int32) {
			for _, p := range cells.PointsOf(int(h)) {
				if k.DistSq(int32(i), p) <= eps2 {
					out = append(out, p)
				}
			}
		}
		collect(g)
		for _, h := range cells.Neighbors[g] {
			collect(h)
		}
		return out
	}
	return finishPointUF(ex, pts, eps, core, uf, query)
}

// finishPointUF densifies point-level union-find components into cluster
// labels and attaches border points to the cluster of one core neighbor.
func finishPointUF(ex *parallel.Pool, pts geom.Points, eps float64, core []bool, uf *unionfind.UF, query func(i int) []int32) *Result {
	n := pts.N
	roots, dense := unionfind.DenseRoots(ex, uf, func(i int32) bool { return core[i] })
	labels := make([]int32, n)
	ex.ForGrain(n, 16, func(i int) {
		if core[i] {
			labels[i] = dense[uf.Find(int32(i))]
			return
		}
		labels[i] = -1
		best := int32(-1)
		for _, q := range query(i) {
			if core[q] {
				l := dense[uf.Find(q)]
				if best == -1 || l < best {
					best = l
				}
			}
		}
		labels[i] = best
	})
	return &Result{Core: core, Labels: labels, NumClusters: len(roots)}
}
