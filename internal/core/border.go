package core

import "sync"

// borderSet collects the multi-cluster border points of one run. Their
// membership lists are rare and escape into the Result, so they are freshly
// allocated and merged under a mutex, once per cell that has any.
type borderSet struct {
	mu sync.Mutex
	m  map[int32][]int32
}

// borderCell is Algorithm 4 (ClusterBorder) for the non-core points of cell
// g, the body every run's border step shares: each non-core point checks the
// core points of its own cell and of all neighboring cells, and joins the
// cluster of each core point within eps. labels[op] receives a point's
// smallest cluster, and a point in two or more clusters lands in out keyed
// by op+keyOff (keyOff translates a window's local flag indices to the
// run's).
//
// Only cells with fewer than minPts points can contain non-core points, so
// the early return mirrors the paper's `|g| < minPts` guard in exact runs.
// Under a sample mask (DBSCAN++ mode) big cells hold unsampled non-core
// points too, so every cell is a border candidate; to keep that affordable
// the candidate cells are resolved once per cell, not once per point, by
// borderCellCandidates. In the interior of a cluster every neighbor carries
// the same label as the cell itself, so the whole cell resolves to one sure
// label and zero distance work; only cells near cluster boundaries scan, and
// only against the few candidates that survive the cell-level pass.
func (st *pipeline) borderCell(g int, labels []int32, ws *workerScratch, out *borderSet, keyOff int32) {
	c := st.cells
	if st.p.Sample == nil && c.CellSize(g) >= st.p.MinPts {
		return // all points are core (exact runs only; under a sample
		// mask big cells hold unsampled non-core points)
	}
	built := false
	var multiP []int32   // points of g in 2+ clusters
	var multiM [][]int32 // their membership lists (freshly allocated)
	pts := c.RowsOf(g)
	orig := c.PointsOf(g) // pts[i] is payload row of original point orig[i]
	for i, p := range pts {
		op := orig[i]
		if st.coreFlags[op] {
			continue
		}
		if !built {
			st.borderCellCandidates(int32(g), labels, ws)
			built = true
		}
		if len(ws.sure) == 0 && len(ws.cand) == 0 {
			break // no reachable cores anywhere near this cell
		}
		found := append(ws.found[:0], ws.sure...)
		for _, h := range ws.cand {
			found = st.borderScanCell(p, h, labels, found)
		}
		ws.found = found // keep grown capacity
		if len(found) > 0 {
			labels[op] = found[0]
			if len(found) > 1 {
				multiP = append(multiP, op)
				multiM = append(multiM, append([]int32(nil), found...))
			}
		}
	}
	if len(multiP) == 0 {
		return
	}
	out.mu.Lock()
	for i, op := range multiP {
		out.m[op+keyOff] = multiM[i]
	}
	out.mu.Unlock()
}

// borderCellCandidates resolves, once per cell, which neighboring core cells
// the non-core points of cell g must scan. It fills ws.sure with the
// ascending set of labels certain for every point of g and ws.cand with the
// cells that need per-point distance checks:
//
//   - a neighbor whose core bounding box is beyond eps of g's point bounding
//     box is dropped for every point at once;
//   - a neighbor whose core bounding box is within eps of every point of g
//     (box-box maximum distance <= eps) contributes its label as "sure" —
//     applied to all non-core points with no distance computations. The own
//     cell is always sure when it has cores: both boxes lie inside one cell,
//     whose diameter is at most eps by construction;
//   - all cores of one cell share one cluster, so a neighbor whose label is
//     already sure needs no per-point scan either, and is dropped.
func (st *pipeline) borderCellCandidates(g int32, labels []int32, ws *workerScratch) {
	c := st.cells
	d := c.Pts.D
	gLo := c.BBLo[int(g)*d : int(g)*d+d]
	gHi := c.BBHi[int(g)*d : int(g)*d+d]
	sure := ws.sure[:0]
	cand := ws.cand[:0]
	consider := func(h int32) {
		core := st.corePts[h]
		if len(core) == 0 {
			return
		}
		lbl := st.coreLabelOf(h, labels) // one cluster per cell
		if containsLabel(sure, lbl) {
			return
		}
		hLo := st.coreBBLo[int(h)*d : int(h)*d+d]
		hHi := st.coreBBHi[int(h)*d : int(h)*d+d]
		if st.k.BoxBoxDistSq(gLo, gHi, hLo, hHi) > st.eps2 {
			return // beyond eps for every point of g
		}
		if boxBoxMaxDistSq(gLo, gHi, hLo, hHi) <= st.eps2 {
			sure = insertLabel(sure, lbl)
			// Drop already-queued cells made redundant by the new sure label.
			keep := cand[:0]
			for _, q := range cand {
				if st.coreLabelOf(q, labels) != lbl {
					keep = append(keep, q)
				}
			}
			cand = keep
			return
		}
		cand = append(cand, h)
	}
	consider(g)
	for _, h := range c.Neighbors[g] {
		consider(h)
	}
	ws.sure, ws.cand = sure, cand // keep grown capacity
}

// borderScanCell checks non-core point p against the core points of cell h
// and inserts h's cluster label into the ascending set found when some core
// point lies within eps.
func (st *pipeline) borderScanCell(p, h int32, labels []int32, found []int32) []int32 {
	core := st.corePts[h]
	// The whole cell belongs to one cluster; if we already have its label,
	// no need to scan the points again.
	lbl := st.coreLabelOf(h, labels)
	if containsLabel(found, lbl) {
		return found
	}
	// Skip cells whose core bounding box is beyond eps.
	if st.k.PointBoxDistSqAt(p, st.coreBBLo, st.coreBBHi, h) > st.eps2 {
		return found
	}
	// Full-cell core lists are dense payload row ranges; stream them.
	var hit bool
	if cs := st.cells.CellStart; len(core) == int(cs[h+1]-cs[h]) {
		hit = st.k.AnyWithinRange(p, cs[h], cs[h+1], st.eps2)
	} else {
		hit = st.k.AnyWithin(p, core, st.eps2)
	}
	if hit {
		return insertLabel(found, lbl)
	}
	return found
}

// coreLabelOf returns the cluster label of core cell h (all cores of one cell
// share a cluster), resolving the representative through Order — labels are
// keyed by original index while core lists hold payload rows.
func (st *pipeline) coreLabelOf(h int32, labels []int32) int32 {
	return labels[st.cells.Order[st.corePts[h][0]]]
}

// boxBoxMaxDistSq returns the squared maximum distance between two
// axis-aligned boxes: an upper bound on the distance from any point of one
// to any point of the other.
func boxBoxMaxDistSq(alo, ahi, blo, bhi []float64) float64 {
	s := 0.0
	for j := range alo {
		diff := ahi[j] - blo[j]
		if other := bhi[j] - alo[j]; other > diff {
			diff = other
		}
		s += diff * diff
	}
	return s
}

func containsLabel(set []int32, l int32) bool {
	for _, v := range set {
		if v == l {
			return true
		}
	}
	return false
}

// insertLabel inserts l into the ascending set if absent.
func insertLabel(set []int32, l int32) []int32 {
	i := 0
	for i < len(set) && set[i] < l {
		i++
	}
	if i < len(set) && set[i] == l {
		return set
	}
	set = append(set, 0)
	copy(set[i+1:], set[i:])
	set[i] = l
	return set
}
