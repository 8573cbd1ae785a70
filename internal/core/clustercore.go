package core

import "pdbscan/internal/delaunay"

// connectFunc is a cell-pair connectivity predicate. The workerScratch
// carries the caller's per-worker buffers for predicates that need scratch
// (BCP's filtered point lists); predicates that don't ignore it.
type connectFunc func(g, h int32, ws *workerScratch) bool

// coreSizeLess is the SortBySize ordering of Algorithm 3 (line 3): core-point
// count descending, ties by cell index, so large cells connect their
// surroundings early and prune later queries. The graph step sorts every
// window's owned core cells by it.
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
// on a positive connectivity answer. Shared verbatim by the intra-shard and
// cross-shard steps of both sharded sources, so every batch path applies the
// identical edge function. The predicate always sees the cell with the higher
// global id first, as the incremental path's edge walk does: the approximate
// query may answer differently in the two directions, so every path must ask
// the same one.
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
	ug, uh := st.gid(g), st.gid(h)
	if st.uf.SameSet(ug, uh) {
		return
	}
	if ug < uh {
		g, h = h, g
	}
	if connect(g, h, ws) {
		st.uf.Union(ug, uh)
	}
}

// gid returns the global cell id (the union-find key) of cell g.
func (st *pipeline) gid(g int32) int32 { return st.cellLo + g }

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

// delaunayUnion is the triangulation-based cell graph (Section 4.4): it
// triangulates the core points of the given cells — one shard's owned core
// cells, every core cell when the shard is the only one — keeps inter-cell
// edges of length at most eps (parallel filter), and unions the endpoints'
// cells. The triangulation of any point subset still contains its Euclidean
// MST, whose edges realize every eps-connection within the subset, so
// per-shard triangulations plus exact cross-boundary BCP edges reach exactly
// the exact-DBSCAN components.
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
		st.uf.Union(st.gid(cellEdges[i].U), st.gid(cellEdges[i].V))
	})
}
