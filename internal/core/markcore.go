package core

import "sort"

// markCellCore is Algorithm 2 for cell g: it decides the core flag of every
// point in cell g (writing both true and false, so the incremental pipeline
// can re-mark a dirty cell over stale flags).
//
// Under a sample mask (Params.Sample, the DBSCAN++ mode) only sampled points
// get a core decision — computed against the full counting set, so it equals
// the exact decision — and every unsampled point's flag is written false.
//
// A cell of at least MinPts points is all-core. In a smaller cell each point
// counts its eps-neighbors, starting from the cell's own size, until the
// count reaches MinPts. The core decision is a pure threshold on that count,
// so neither the visit order nor a whole-cell count can change a flag.
//
//   - Visit order. Neighbors whose point bounding box lies beyond eps of g's
//     are dropped wholesale, and the rest are visited nearest first, so the
//     count reaches MinPts after the fewest distance evaluations. Grid cells
//     rank a neighbor by its lattice offset from g (latticeKey), an integer
//     key with 28 values in 3D, sorted in O(len) (orderByLattice). Box cells
//     have no lattice and sort by box-box distance.
//   - Whole-cell counts. One kernel call bounds the squared distances from
//     the point to the neighbor's point box. A box beyond eps is skipped; a
//     box whose max is at most eps²·(1−1e-12) lies inside the eps-ball and
//     adds its cell's size with no scan. The max is summed from the same
//     per-axis differences, in the same order, as the scan's d2, and
//     rounding is monotone, so no point of the box computes a larger d2.
//     Fused multiply-adds, where a compiler emits them, move either side by
//     a few ulps, far less than the margin. So the shortcut counts exactly
//     the points the scan (or, under MarkQuadtree, the quadtree) would.
//   - No fallback. The order costs O(len) per cell, so no list length makes
//     an unordered walk cheaper; on batch-3d's cells the id-order walk did
//     four times the distance evaluations.
func (st *pipeline) markCellCore(g int, ws *workerScratch) {
	c := st.cells
	minPts := st.p.MinPts
	eps2 := st.eps2
	size := c.CellSize(g)
	pts := c.RowsOf(g)
	orig := c.PointsOf(g) // pts[i] is payload row of original point orig[i]
	sample := st.p.Sample
	if size >= minPts {
		// Every pair inside a cell is within eps (cell diameter <= eps).
		// Flags and the sample mask are keyed by original index, so this
		// shortcut never touches the payload at all.
		if sample != nil {
			for _, p := range orig {
				st.coreFlags[p] = sample[p]
			}
			return
		}
		for _, p := range orig {
			st.coreFlags[p] = true
		}
		return
	}
	var ord []int32
	switch {
	case len(c.Neighbors[g]) == 0: // isolated: nothing to order
	case c.Coords != nil:
		ord = st.orderByLattice(g, ws)
	default:
		ord = st.orderByBoxDist(g, ws)
	}

	inside := eps2 * (1 - 1e-12)
	for i, p := range pts {
		op := orig[i]
		if sample != nil && !sample[op] {
			st.coreFlags[op] = false
			continue
		}
		count := size // the cell's own points are all within eps
		for _, h := range ord {
			if count >= minPts {
				break
			}
			mn, mx := st.k.PointBoxMinMaxDistSqAt(p, c.BBLo, c.BBHi, h)
			if mn > eps2 {
				continue // h lies outside this point's eps-ball
			}
			if mx <= inside {
				count += c.CellSize(int(h)) // h lies inside it
				continue
			}
			count += st.rangeCount(p, h, eps2, minPts-count)
		}
		st.coreFlags[op] = count >= minPts
	}
}

// shortNeighborList is the longest neighbor list the orderings sort by
// insertion; it covers every 2D grid list. orderByLattice sorts longer lists
// with a counting sort, sortNeighborsByDist with sort.Sort.
const shortNeighborList = 24

// orderByLattice returns the neighbors of grid cell g whose point bounding
// box lies within eps of g's, ordered by latticeKey and then by cell id (the
// lists are ascending, and both sorts are stable). The result aliases the
// worker's scratch.
func (st *pipeline) orderByLattice(g int, ws *workerScratch) []int32 {
	c := st.cells
	d := c.Pts.D
	gc := c.Coords[g*d : g*d+d]
	ord, keys := ws.nbrOrder[:0], ws.nbrKey[:0]
	maxKey := int32(0)
	for _, h := range c.Neighbors[g] {
		if st.k.BoxBoxDistSqAt(c.BBLo, c.BBHi, int32(g), h) > st.eps2 {
			continue
		}
		key := st.latticeKey(gc, c.Coords[int(h)*d:int(h)*d+d])
		ord = append(ord, h)
		keys = append(keys, key)
		maxKey = max(maxKey, key)
	}
	ws.nbrOrder, ws.nbrKey = ord, keys // keep grown capacity
	if len(ord) <= shortNeighborList {
		for i := 1; i < len(ord); i++ {
			kj, hj := keys[i], ord[i]
			j := i
			for j > 0 && keys[j-1] > kj {
				keys[j], ord[j] = keys[j-1], ord[j-1]
				j--
			}
			keys[j], ord[j] = kj, hj
		}
		return ord
	}
	// Counting sort: bucket starts from a prefix sum over the key counts.
	start := int32Buf(ws.nbrBucket, int(maxKey)+2)
	clear(start)
	for _, k := range keys {
		start[k+1]++
	}
	for k := 1; k < len(start); k++ {
		start[k] += start[k-1]
	}
	out := int32Buf(ws.nbrSorted, len(ord))
	for i, h := range ord {
		out[start[keys[i]]] = h
		start[keys[i]]++
	}
	ws.nbrBucket, ws.nbrSorted = start, out
	return out
}

// orderByBoxDist returns the neighbors of cell g whose point bounding box
// lies within eps of g's, by ascending box-box distance and then cell id. The
// result aliases the worker's scratch.
func (st *pipeline) orderByBoxDist(g int, ws *workerScratch) []int32 {
	c := st.cells
	ord, dist := ws.nbrOrder[:0], ws.nbrDist[:0]
	for _, h := range c.Neighbors[g] {
		if d2 := st.k.BoxBoxDistSqAt(c.BBLo, c.BBHi, int32(g), h); d2 <= st.eps2 {
			ord = append(ord, h)
			dist = append(dist, d2)
		}
	}
	sortNeighborsByDist(ws, ord, dist)
	ws.nbrOrder, ws.nbrDist = ord, dist // keep grown capacity
	return ord
}

// latticeKey ranks the neighbor cell at lattice coordinates hc by its offset
// o = hc − gc from the cell at gc: first by the gap between the two cubes,
// Σ max(|o_j|−1, 0)² in side lengths squared, then by the L1 offset Σ|o_j|.
// Per axis |o_j| is at most the lattice reach r, and a gap of more than d
// would put the cubes beyond eps, so keys fall in [0, (d+1)·(d·r+1)); the
// clamps only guard that bound against a list built with other rounding.
func (st *pipeline) latticeKey(gc, hc []int32) int32 {
	hc = hc[:len(gc)]
	reach := st.latticeReach
	gap, l1 := 0, 0
	for j, x := range gc {
		o := int(hc[j]) - int(x)
		o = min(max(o, -o), reach)
		t := max(o-1, 0)
		gap += t * t
		l1 += o
	}
	return int32(min(gap, len(gc))*st.latticeSpan + l1)
}

// rangeCount counts points of neighbor cell h within sqrt(eps2) of point p,
// stopping at need, through the configured MarkCore strategy.
func (st *pipeline) rangeCount(p, h int32, eps2 float64, need int) int {
	if st.p.Mark == MarkQuadtree {
		return st.allTree(h).CountWithin(st.at(p), st.eps)
	}
	// Cell h's points are the contiguous payload rows
	// [CellStart[h], CellStart[h+1]): stream them instead of gathering.
	return st.k.CountWithinRange(p, st.cells.CellStart[h], st.cells.CellStart[h+1], eps2, need)
}

// sortNeighborsByDist sorts (ord, dist) by ascending distance, ties by cell
// index (a deterministic total order): insertion sort for short lists, an
// allocation-free sort.Sort via the worker's sorter otherwise.
func sortNeighborsByDist(ws *workerScratch, ord []int32, dist []float64) {
	if len(ord) <= shortNeighborList {
		for i := 1; i < len(ord); i++ {
			dj, hj := dist[i], ord[i]
			j := i
			for j > 0 && (dist[j-1] > dj || (dist[j-1] == dj && ord[j-1] > hj)) {
				dist[j], ord[j] = dist[j-1], ord[j-1]
				j--
			}
			dist[j], ord[j] = dj, hj
		}
		return
	}
	ws.sorter.ord, ws.sorter.dist = ord, dist
	sort.Sort(&ws.sorter)
	ws.sorter.ord, ws.sorter.dist = nil, nil
}

// nbrSorter sorts a neighbor list by ascending distance, ties by cell index.
type nbrSorter struct {
	ord  []int32
	dist []float64
}

func (s *nbrSorter) Len() int { return len(s.ord) }
func (s *nbrSorter) Less(i, j int) bool {
	if s.dist[i] != s.dist[j] {
		return s.dist[i] < s.dist[j]
	}
	return s.ord[i] < s.ord[j]
}
func (s *nbrSorter) Swap(i, j int) {
	s.ord[i], s.ord[j] = s.ord[j], s.ord[i]
	s.dist[i], s.dist[j] = s.dist[j], s.dist[i]
}
