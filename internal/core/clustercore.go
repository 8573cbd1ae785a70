package core

import (
	"pdbscan/internal/delaunay"
	"pdbscan/internal/prim"
)

// connectFunc is a cell-pair connectivity predicate. The workerScratch
// carries the caller's per-worker buffers for predicates that need scratch
// (BCP's filtered point lists); predicates that don't ignore it.
type connectFunc func(g, h int32, ws *workerScratch) bool

// clusterCore implements Algorithm 3: build the cell graph over core cells,
// maintaining connected components on the fly in a lock-free union-find so
// that connectivity queries between already-connected cells are pruned, and
// optionally processing cells in size-sorted batches (bucketing).
func (st *pipeline) clusterCore() {
	st.initUF(st.cells.NumCells())
	if len(st.coreCells) == 0 {
		return
	}
	if st.p.Graph == GraphDelaunay {
		st.clusterCoreDelaunay()
		return
	}

	connect := st.connectFn()

	// SortBySize (Algorithm 3, line 3): non-increasing core-point count, so
	// large cells connect their surroundings early and prune later queries.
	st.rs.order = int32Buf(st.rs.order, len(st.coreCells))
	order := st.rs.order
	copy(order, st.coreCells)
	prim.Sort(st.ex, order, st.coreSizeLess)

	process := func(g int32, ws *workerScratch) {
		for _, h := range st.cells.Neighbors[g] {
			// Each unordered pair is examined by the higher-index cell.
			if h >= g {
				continue
			}
			st.processPair(g, h, connect, ws)
		}
	}

	if st.p.Bucketing {
		// Process the sorted cells in batches: sequential across batches,
		// parallel within, so the pruning from earlier (larger) cells is
		// visible to later batches (Section 4.4, bucketing).
		nb := st.p.Buckets
		if nb > len(order) {
			nb = len(order)
		}
		bsize := (len(order) + nb - 1) / nb
		for lo := 0; lo < len(order); lo += bsize {
			if st.cancelled() {
				return // partial union-find; Run bails at the phase boundary
			}
			hi := lo + bsize
			if hi > len(order) {
				hi = len(order)
			}
			batch := order[lo:hi]
			st.ex.BlockedFor(len(batch), 1, func(lo, hi int) {
				ws := st.getWS()
				for i := lo; i < hi; i++ {
					if st.cancelled() {
						break
					}
					process(batch[i], ws)
				}
				st.putWS(ws)
			})
		}
	} else {
		st.ex.BlockedFor(len(order), 1, func(lo, hi int) {
			ws := st.getWS()
			for i := lo; i < hi; i++ {
				if st.cancelled() {
					break
				}
				process(order[i], ws)
			}
			st.putWS(ws)
		})
	}
}

// coreSizeLess is the SortBySize ordering of Algorithm 3: core-point count
// descending, ties by cell index. One definition, shared by the monolithic
// traversal and the per-shard sort, so the two paths cannot diverge.
func (st *pipeline) coreSizeLess(a, b int32) bool {
	ca, cb := len(st.corePts[a]), len(st.corePts[b])
	if ca != cb {
		return ca > cb
	}
	return a < b
}

// connectFn returns the cell-pair connectivity predicate of the configured
// graph strategy, allocating whatever lazy per-cell state the strategy needs.
// The predicate is a pure deterministic function of the cell pair (given the
// core point sets), which is what lets the sharded and incremental paths
// evaluate edges in any order — or skip already-connected ones — and still
// land on the exact connected components of the full edge set. Not valid for
// GraphDelaunay, whose connectivity is a whole-triangulation computation
// rather than a per-pair predicate.
func (st *pipeline) connectFn() connectFunc {
	switch st.p.Graph {
	case GraphBCP:
		return st.bcpConnected
	case GraphQuadtree:
		st.rs.coreTrees = lazyTreeBuf(st.rs.coreTrees, st.cells.NumCells())
		st.coreTrees = st.rs.coreTrees
		return st.quadtreeConnected
	case GraphApprox:
		st.rs.coreTrees = lazyTreeBuf(st.rs.coreTrees, st.cells.NumCells())
		st.coreTrees = st.rs.coreTrees
		return st.approxConnected
	case GraphUSEC:
		st.initUSEC()
		return st.usecConnected
	}
	panic("core: no per-pair connectivity predicate for this graph strategy")
}

// processPair evaluates the cell-graph edge between core cell g and its
// neighbor h (in either cell order): skip non-core cells, filter by the core
// bounding boxes, prune pairs already connected in the union-find, and union
// on a positive connectivity answer. Shared verbatim by the monolithic batch
// traversal and the sharded intra-shard and boundary-merge passes, so every
// path applies the identical edge function.
func (st *pipeline) processPair(g, h int32, connect connectFunc, ws *workerScratch) {
	if len(st.corePts[g]) == 0 || len(st.corePts[h]) == 0 {
		return // not a core cell pair
	}
	// Core bounding boxes must be within eps for any core pair to qualify
	// (the neighbor relation was computed from full cells).
	if st.k.BoxBoxDistSqAt(st.coreBBLo, st.coreBBHi, g, h) > st.eps2 {
		return
	}
	// Reduced connectivity queries: skip if already connected.
	if st.uf.SameSet(g, h) {
		return
	}
	if connect(g, h, ws) {
		st.uf.Union(g, h)
	}
}

// bcpConnected decides cell connectivity with a bichromatic closest pair
// computation over core points, using the two optimizations of Section 4.4:
// (1) filter out points farther than eps from the other cell's core bounding
// box, and (2) iterate over fixed-size blocks of the two point sets, aborting
// as soon as any pair within eps is found. The filtered lists live in the
// worker's pooled scratch — no allocation per pair.
func (st *pipeline) bcpConnected(g, h int32, ws *workerScratch) bool {
	d := st.cells.Pts.D
	eps2 := st.eps2
	gPts := st.corePts[g]
	hPts := st.corePts[h]
	gLo, gHi := st.coreBBLo[int(g)*d:(int(g)+1)*d], st.coreBBHi[int(g)*d:(int(g)+1)*d]
	hLo, hHi := st.coreBBLo[int(h)*d:(int(h)+1)*d], st.coreBBHi[int(h)*d:(int(h)+1)*d]

	// Filter: only points within eps of the other cell's core box can be in
	// a qualifying pair. A full-cell core list is exactly the dense payload
	// row range [CellStart[g], CellStart[g+1]), so the filter — and, when
	// both filters keep everything, the blocked early-termination scan —
	// streams the payload with no index list at all. The range forms
	// evaluate the same points in the same order as the list forms.
	cs := st.cells.CellStart
	gFull := len(gPts) == int(cs[g+1]-cs[g])
	hFull := len(hPts) == int(cs[h+1]-cs[h])
	if gFull {
		ws.gf = st.k.FilterNearRangeInto(ws.gf[:0], cs[g], cs[g+1], hLo, hHi, eps2)
	} else {
		ws.gf = st.k.FilterNearInto(ws.gf[:0], gPts, hLo, hHi, eps2)
	}
	if len(ws.gf) == 0 {
		return false
	}
	if hFull {
		ws.hf = st.k.FilterNearRangeInto(ws.hf[:0], cs[h], cs[h+1], gLo, gHi, eps2)
	} else {
		ws.hf = st.k.FilterNearInto(ws.hf[:0], hPts, gLo, gHi, eps2)
	}
	if len(ws.hf) == 0 {
		return false
	}
	if gFull && hFull && len(ws.gf) == len(gPts) && len(ws.hf) == len(hPts) {
		return st.k.AnyPairWithinRanges(cs[g], cs[g+1], cs[h], cs[h+1], eps2)
	}
	return st.k.AnyPairWithin(ws.gf, ws.hf, eps2)
}

// quadtreeConnected queries the larger cell's core quadtree with each core
// point of the smaller cell, terminating on the first non-zero range count
// (the exact quadtree connectivity of Section 5.2).
func (st *pipeline) quadtreeConnected(g, h int32, _ *workerScratch) bool {
	// Query from the smaller side into the bigger tree.
	if len(st.corePts[g]) > len(st.corePts[h]) {
		g, h = h, g
	}
	tree := st.coreTree(h)
	for _, p := range st.corePts[g] {
		if tree.AnyWithin(st.at(p), st.eps) {
			return true
		}
	}
	return false
}

// approxConnected is quadtreeConnected with Gan–Tao's approximate range
// query: connect when a point is certainly within eps, never connect when
// everything is beyond eps(1+rho), either answer in between.
func (st *pipeline) approxConnected(g, h int32, _ *workerScratch) bool {
	if len(st.corePts[g]) > len(st.corePts[h]) {
		g, h = h, g
	}
	tree := st.coreTree(h)
	for _, p := range st.corePts[g] {
		if tree.ApproxAnyWithin(st.at(p), st.eps, st.p.Rho) {
			return true
		}
	}
	return false
}

// clusterCoreDelaunay implements the triangulation-based cell graph
// (Section 4.4): triangulate all core points, keep inter-cell edges of
// length at most eps (parallel filter), and union the endpoints' cells.
func (st *pipeline) clusterCoreDelaunay() {
	st.delaunayUnion(st.coreCells)
}

// delaunayUnion triangulates the core points of the given cells and unions
// the cells joined by an inter-cell edge of length at most eps. The cell list
// is the whole core-cell set for the monolithic path and one shard's owned
// core cells for the sharded path: the triangulation of any point subset
// still contains its Euclidean MST, whose edges realize every eps-connection
// within the subset, so per-shard triangulations plus exact cross-boundary
// BCP edges reach exactly the exact-DBSCAN components.
func (st *pipeline) delaunayUnion(cellList []int32) {
	// Gather the core points of the listed cells.
	total := 0
	for _, g := range cellList {
		total += len(st.corePts[g])
	}
	if total == 0 || st.cancelled() {
		// A triangulation is a whole-computation step with no per-cell
		// boundary to stop at; skip it outright on a cancelled run.
		return
	}
	// The triangulation runs over the original store (CellOf is keyed by
	// original index), so gather the core rows' original indices.
	all := make([]int32, 0, total)
	for _, g := range cellList {
		for _, r := range st.corePts[g] {
			all = append(all, st.cells.Order[r])
		}
	}
	edges := delaunay.Triangulate(st.ex, st.cells.Pts, all)
	cellEdges := delaunay.FilterCellEdges(st.ex, edges, st.cells.Pts, st.cells.CellOf, st.eps)
	st.ex.For(len(cellEdges), func(i int) {
		st.uf.Union(cellEdges[i].U, cellEdges[i].V)
	})
}
