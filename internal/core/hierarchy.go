package core

import (
	"fmt"
	"math"
	"slices"

	"pdbscan/internal/grid"
	"pdbscan/internal/prim"
)

// This file builds the eps-bounded HDBSCAN* hierarchy: per-point core
// distances and the minimum spanning forest of the mutual-reachability graph,
// both restricted to the Clusterer's build radius eps. Thresholding the
// sorted forest answers DBSCAN* for every eps' <= eps from one build
// (de Berg et al., "Faster DBSCAN and HDBSCAN in Low-Dimensional Euclidean
// Spaces"); the root package's Hierarchy type owns the query side.
//
// Everything is kept in the squared-distance domain. The core distance is
// stored as cd2(p) = the MinPts-th smallest squared distance from p (counting
// p itself), or +Inf when fewer than MinPts points lie within eps; an edge's
// weight is w2(p,q) = max(cd2(p), cd2(q), d2(p,q)). A threshold query at
// radius r then tests cd2 <= r*r and w2 <= r*r — bit-for-bit the same
// float64 predicate (d2 <= eps2) the batch pipeline evaluates, which is what
// makes CutEps exactly label-equivalent to a from-scratch run rather than
// merely close up to sqrt rounding.

// MREdge is one edge of the mutual-reachability minimum spanning forest,
// with endpoints A < B and squared weight W2 = max(cd2(A), cd2(B), d2(A,B)).
type MREdge struct {
	W2   float64
	A, B int32
}

// HierarchyData is the output of ComputeHierarchy: the squared core
// distances (+Inf for points with fewer than MinPts neighbors within the
// build eps) and the mutual-reachability MSF edges sorted ascending by
// (W2, A, B). Both slices are freshly allocated — they escape into the
// caller's Hierarchy and outlive the run's arena scratch.
type HierarchyData struct {
	CoreDist2 []float64
	Edges     []MREdge
}

// lessEdge is the strict total order on candidate edges: by weight, ties by
// (A, B). Candidate pairs are enumerated exactly once, so no two candidates
// compare equal; a strict total order makes the minimum spanning forest
// unique, which in turn makes the per-block Kruskal compaction exact (the
// cycle property with strict order: an edge that is the order-maximum on a
// cycle within any subset of the edges is the order-maximum on that cycle in
// the full graph too, so it is never in the MSF) and the whole build
// deterministic — independent of worker count and block boundaries.
func lessEdge(x, y MREdge) bool {
	if x.W2 != y.W2 {
		return x.W2 < y.W2
	}
	if x.A != y.A {
		return x.A < y.A
	}
	return x.B < y.B
}

// edgeChunk is the per-block candidate-edge budget between Kruskal
// compactions. After a compaction the buffer holds at most n-1 edges (an
// MSF), so per-block memory stays O(n + edgeChunk) no matter how many
// candidate pairs the block enumerates.
const edgeChunk = 1 << 16

// ComputeHierarchy computes the squared core distances and the
// mutual-reachability MSF over prepared cells. Params are interpreted as for
// Run; only MinPts, Exec, Arena, Timings and PhaseHook matter (the graph is
// built by direct cell scans, not a Graph strategy). Cancellation mirrors
// Run: the build stops at the next phase or cell boundary and returns the
// context's error with no partial output.
//
// The build scans payload rows like every other phase and keeps cd2 in row
// space until the end; edges carry original endpoints (one Order lookup per
// Prim vertex, not per pair), and Prim's ties break by original index, so
// the output does not depend on the payload order.
func ComputeHierarchy(cells *grid.Cells, p Params) (*HierarchyData, error) {
	if err := validateCells(cells, &p); err != nil {
		return nil, err
	}
	if p.Sample != nil {
		return nil, fmt.Errorf("core: sampled-core mode does not apply to hierarchy builds")
	}
	rs := p.Arena.getRun()
	defer p.Arena.putRun(rs)
	st := newPipeline(cells, p, rs)
	if err := st.phase("coredist"); err != nil {
		return nil, err
	}
	cd2 := st.coreDistances()
	if err := st.phase("edges"); err != nil {
		return nil, err
	}
	parts := st.mrEdgeParts(cd2)
	if err := st.phase("mst"); err != nil {
		return nil, err
	}
	edges := st.mergeMSF(parts)
	// Scatter the row-space core distances to original order.
	out := make([]float64, cells.Pts.N) // escapes into HierarchyData; never pooled
	st.ex.For(len(cd2), func(r int) { out[cells.Order[r]] = cd2[r] })
	if err := st.phase("done"); err != nil {
		return nil, err
	}
	return &HierarchyData{CoreDist2: out, Edges: edges}, nil
}

// coreDistances computes cd2 for every payload row: the MinPts-th smallest
// squared distance within the cell's eps-neighborhood (own cell plus grid
// neighbors), +Inf when fewer than MinPts candidates are within eps. Unlike
// markCore there is no all-core cell shortcut — the actual k-th distance is
// needed, not just the threshold decision.
func (st *pipeline) coreDistances() []float64 {
	c := st.cells
	numCells := c.NumCells()
	cd2 := make([]float64, len(c.Order))
	st.ex.BlockedFor(numCells, 1, func(lo, hi int) {
		ws := st.getWS()
		for g := lo; g < hi; g++ {
			if st.cancelled() {
				break // partial cd2; ComputeHierarchy bails at the next boundary
			}
			st.cellCoreDistances(g, ws, cd2)
		}
		st.putWS(ws)
	})
	return cd2
}

// cellCoreDistances fills cd2 for the rows of cell g. Neighbor cells are
// ordered by ascending box-box distance (orderByBoxDist) so that once a
// point's bounded max-heap is full, any cell whose box lies beyond the
// current k-th distance — and every cell after it — can be skipped.
func (st *pipeline) cellCoreDistances(g int, ws *workerScratch, cd2 []float64) {
	c := st.cells
	minPts := st.p.MinPts
	eps2 := st.eps2
	pts := c.RowsOf(g)

	ord := st.orderByBoxDist(g, ws)
	dist := ws.nbrDist // the box distances of ord

	for _, p := range pts {
		h := ws.kthHeap[:0]
		// Own cell first: includes p itself at distance 0, matching the
		// paper's "counting the point itself" core definition.
		for _, q := range pts {
			d2 := st.k.DistSq(p, q)
			if d2 <= eps2 {
				h = heapPushBounded(h, d2, minPts)
			}
		}
		for i, nb := range ord {
			bound := eps2
			if len(h) == minPts && h[0] < bound {
				bound = h[0]
			}
			// Cells are visited in ascending box order: when the heap is
			// full, a box beyond the current k-th distance ends the scan.
			if dist[i] > bound {
				if len(h) == minPts {
					break
				}
				continue // dist[i] <= eps2 by the prepass; only a full heap prunes
			}
			if st.k.PointBoxDistSqAt(p, c.BBLo, c.BBHi, nb) > bound {
				continue
			}
			for _, q := range c.RowsOf(int(nb)) {
				d2 := st.k.DistSq(p, q)
				if d2 <= eps2 {
					h = heapPushBounded(h, d2, minPts)
				}
			}
		}
		if len(h) == minPts {
			cd2[p] = h[0]
		} else {
			cd2[p] = math.Inf(1)
		}
		ws.kthHeap = h // keep grown capacity
	}
}

// heapPushBounded maintains a max-heap of the k smallest values seen: push
// while below capacity, replace the root when a smaller value arrives. The
// root h[0] is the current k-th smallest.
func heapPushBounded(h []float64, v float64, k int) []float64 {
	if len(h) < k {
		h = append(h, v)
		i := len(h) - 1
		for i > 0 {
			par := (i - 1) / 2
			if h[par] >= h[i] {
				break
			}
			h[par], h[i] = h[i], h[par]
			i = par
		}
		return h
	}
	if v >= h[0] {
		return h
	}
	h[0] = v
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < len(h) && h[l] > h[m] {
			m = l
		}
		if r < len(h) && h[r] > h[m] {
			m = r
		}
		if m == i {
			return h
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// mrEdgeParts enumerates the mutual-reachability candidate edges per block of
// cells and reduces each block to the MSF of its own candidates via chunked
// local Kruskal (filter-Kruskal style). Each unordered pair is enumerated by
// exactly one block — own-cell pairs by index order, cross-cell pairs by the
// lower cell — so the concatenation of the parts is a duplicate-free edge
// set whose MSF equals the MSF of all candidates (each block keeps a
// superset of the global MSF edges among its candidates, by the cycle
// property under the strict total order).
func (st *pipeline) mrEdgeParts(cd2 []float64) [][]MREdge {
	c := st.cells
	numCells := c.NumCells()
	n := c.Pts.N
	nb := st.ex.NumBlocks(numCells, 1)
	parts := make([][]MREdge, nb)
	st.ex.BlockedForIdx(numCells, 1, func(b, lo, hi int) {
		ws := st.getWS()
		buf := ws.mrEdges[:0]
		limit := edgeChunk
		compact := func() {
			slices.SortFunc(buf, func(x, y MREdge) int {
				if lessEdge(x, y) {
					return -1
				}
				return 1
			})
			ws.mrUF.Reset(n)
			keep := buf[:0]
			for _, e := range buf {
				if ws.mrUF.Find(e.A) != ws.mrUF.Find(e.B) {
					ws.mrUF.Union(e.A, e.B)
					keep = append(keep, e)
				}
			}
			buf = keep
		}
		for g := lo; g < hi; g++ {
			if st.cancelled() {
				break // partial parts; the next phase boundary discards them
			}
			buf = st.cellMREdges(g, cd2, ws, buf)
			if len(buf) >= limit {
				compact()
				limit = len(buf) + edgeChunk
			}
		}
		compact()
		out := make([]MREdge, len(buf))
		copy(out, buf)
		parts[b] = out
		ws.mrEdges = buf[:0] // keep grown capacity
		st.putWS(ws)
	})
	return parts
}

// cellMREdges appends cell g's surviving candidate edges to buf. The
// candidate pairs are those where both endpoints have a finite core distance
// (cd2 <= eps2) and d2 <= eps2 — only such pairs can ever connect at a
// queryable threshold, and every pair within eps shares a cell or a
// neighboring cell, so the grid realizes the whole graph.
//
// Rather than buffering every candidate pair (quadratic in the ball
// occupancy, and each buffered edge later pays a comparison sort in the
// Kruskal compaction), each cell-local subgraph — the own-cell clique and
// each cross-cell bipartite graph, owned by the lower cell — is reduced on
// the fly to a minimum spanning forest by a dense Prim scan. Prim touches
// each candidate pair exactly once with a compare-and-store (no sort, no
// union-find) and emits at most |subgraph|-1 edges. Any MSF of a subgraph
// preserves that subgraph's connectivity at every weight threshold, and
// threshold connectivity is union-monotone across subgraphs, so the union of
// the per-subgraph forests supports the exact same CutEps answers as the
// full candidate set; the deterministic tie-breaks below (first-seen edge
// wins, minimum (key, id) vertex next) make the emitted set independent of
// worker count, and the final total-order Kruskal does the rest.
func (st *pipeline) cellMREdges(g int, cd2 []float64, ws *workerScratch, buf []MREdge) []MREdge {
	c := st.cells
	eps2 := st.eps2
	pts := c.RowsOf(g)

	// Own-cell clique over the core-capable points.
	own := ws.primOwn[:0]
	for _, p := range pts {
		if cd2[p] <= eps2 {
			own = append(own, p)
		}
	}
	ws.primOwn = own
	buf = st.primForest(own, 0, cd2, ws, buf)

	for _, nb := range c.Neighbors[g] {
		if nb <= int32(g) {
			continue // the lower cell of the pair owns the enumeration
		}
		if st.k.BoxBoxDistSqAt(c.BBLo, c.BBHi, int32(g), nb) > eps2 {
			continue
		}
		// Bipartite subgraph: cell g's side first, then the neighbor's.
		// Points whose box distance to the far cell exceeds eps cannot have
		// a cross edge and would only be isolated Prim vertices.
		verts := ws.primVerts[:0]
		for _, p := range own {
			if st.k.PointBoxDistSqAt(p, c.BBLo, c.BBHi, nb) <= eps2 {
				verts = append(verts, p)
			}
		}
		split := len(verts)
		if split == 0 {
			ws.primVerts = verts
			continue
		}
		for _, q := range c.RowsOf(int(nb)) {
			if cd2[q] <= eps2 && st.k.PointBoxDistSqAt(q, c.BBLo, c.BBHi, int32(g)) <= eps2 {
				verts = append(verts, q)
			}
		}
		ws.primVerts = verts
		if len(verts) == split {
			continue
		}
		buf = st.primForest(verts, split, cd2, ws, buf)
	}
	return buf
}

// primForest appends a minimum spanning forest of one cell-local subgraph to
// buf via a dense Prim scan with forest restarts. verts lists the subgraph's
// payload rows; split selects the edge set: split == 0 means the complete
// graph on verts (own-cell pairs, still subject to d2 <= eps2), split > 0
// means the bipartite graph between verts[:split] and verts[split:]
// (cross-cell pairs). Pairs beyond eps are absent (weight +Inf). Each
// candidate pair's distance is computed exactly once — when its first
// endpoint joins the tree.
//
// Determinism: the next vertex is the unattached one with the minimum
// (key, original index), and a key is only replaced by a strictly smaller
// weight, so the emitted edge set depends solely on the subgraph, not on
// worker count, scan history, or payload order. Restarts (key +Inf) start a
// new tree without emitting.
func (st *pipeline) primForest(verts []int32, split int, cd2 []float64, ws *workerScratch, buf []MREdge) []MREdge {
	m := len(verts)
	if m < 2 {
		return buf
	}
	eps2 := st.eps2
	key := ws.primKey
	if cap(key) < m {
		key = make([]float64, m)
	}
	key = key[:m]
	from := ws.primFrom
	if cap(from) < m {
		from = make([]int32, m)
	}
	from = from[:m]
	id := ws.primID
	if cap(id) < m {
		id = make([]int32, m)
	}
	id = id[:m]
	side := ws.primSide
	if cap(side) < m {
		side = make([]bool, m)
	}
	side = side[:m]
	order := st.cells.Order
	for i := range key {
		key[i] = math.Inf(1)
		from[i] = -1
		id[i] = order[verts[i]]
		side[i] = i >= split
	}
	ws.primKey, ws.primFrom, ws.primID, ws.primSide = key, from, id, side

	for step := 0; step < m; step++ {
		best := step
		for j := step + 1; j < m; j++ {
			if key[j] < key[best] || (key[j] == key[best] && id[j] < id[best]) {
				best = j
			}
		}
		if best != step {
			verts[step], verts[best] = verts[best], verts[step]
			key[step], key[best] = key[best], key[step]
			from[step], from[best] = from[best], from[step]
			id[step], id[best] = id[best], id[step]
			side[step], side[best] = side[best], side[step]
		}
		v := verts[step]
		cv := cd2[v]
		if from[step] >= 0 {
			buf = append(buf, makeMREdge(from[step], id[step], key[step], 0, 0))
		}
		// Relax the unattached vertices against v. In the bipartite case
		// only the opposite side is adjacent.
		for j := step + 1; j < m; j++ {
			if split > 0 && side[j] == side[step] {
				continue
			}
			d2 := st.k.DistSq(v, verts[j])
			if d2 > eps2 {
				continue
			}
			w := d2
			if cv > w {
				w = cv
			}
			if cq := cd2[verts[j]]; cq > w {
				w = cq
			}
			if w < key[j] {
				key[j] = w
				from[j] = id[step]
			}
		}
	}
	return buf
}

func makeMREdge(p, q int32, d2, cp, cq float64) MREdge {
	w := d2
	if cp > w {
		w = cp
	}
	if cq > w {
		w = cq
	}
	if p > q {
		p, q = q, p
	}
	return MREdge{W2: w, A: p, B: q}
}

// mergeMSF concatenates the per-block MSFs, sorts them in parallel by the
// total order, and runs one serial Kruskal pass to the final forest. The
// input is at most (blocks × (n-1)) edges, so this tail is cheap relative to
// the enumeration phase.
func (st *pipeline) mergeMSF(parts [][]MREdge) []MREdge {
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	all := make([]MREdge, 0, total)
	for _, p := range parts {
		all = append(all, p...)
	}
	prim.Sort(st.ex, all, lessEdge)
	n := st.cells.Pts.N
	st.rs.uf.Reset(n)
	uf := &st.rs.uf
	kept := all[:0]
	for _, e := range all {
		if uf.Find(e.A) != uf.Find(e.B) {
			uf.Union(e.A, e.B)
			kept = append(kept, e)
		}
	}
	edges := make([]MREdge, len(kept))
	copy(edges, kept)
	return edges
}
