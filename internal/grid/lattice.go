package grid

import (
	"math/bits"
	"slices"
	"sort"
	"sync"

	"pdbscan/internal/parallel"
	"pdbscan/internal/prim"
)

// Lattice order. BuildGrid and BuildCellMajor number their cells ascending by
// lattice coordinate, compared key axis by key axis: the split axis first (the
// axis latticeAxis picks and MakePartition cuts along), then the other axes in
// increasing index order. A lattice row is the run of cells that share every
// key coordinate but the last, so each row is a contiguous id range, and so is
// every span of last coordinates within it. The neighbor sweep reads a cell's
// candidates off those ranges, and every shard of a Partition is one range.

// keyAxis returns the k-th key axis of the lattice order whose primary axis is
// axis: axis itself, then the other axes ascending.
func keyAxis(k, axis int) int {
	switch {
	case k == 0:
		return axis
	case k <= axis:
		return k - 1
	}
	return k
}

// LatticeCmp compares two cells' lattice coordinates (rows of Coords, or of a
// cell store's coordinates) in the lattice order whose primary axis is axis:
// -1 if a comes first, +1 if b does, 0 if they are equal.
func LatticeCmp(a, b []int32, axis int) int {
	for k := range a {
		j := keyAxis(k, axis)
		if a[j] != b[j] {
			if a[j] < b[j] {
				return -1
			}
			return 1
		}
	}
	return 0
}

// coordWidths returns, per axis, the bit width of the largest coordinate in
// coords (row-major, d per cell, every entry >= 0): the key width of that
// axis's radix passes.
func coordWidths(coords []int32, d int) []int {
	maxes := make([]int32, d)
	for i := 0; i < len(coords); i += d {
		for j, v := range coords[i : i+d] {
			maxes[j] = max(maxes[j], v)
		}
	}
	widths := make([]int, d)
	for j, v := range maxes {
		widths[j] = bits.Len32(uint32(v))
	}
	return widths
}

// latticeAxis picks the split axis of a set of cells: the axis with the most
// distinct occupied coordinates (slabs), so a shard count clamps as little as
// possible — a sparse axis can span a huge coordinate range yet offer only a
// couple of slabs to cut between. Ties go to the wider span, then the lower
// axis. It returns the axis and its slab count. coords holds the cells'
// relative coordinates (row-major, every entry >= 0, at least one cell) and
// widths their coordWidths; one radix sort per axis. The choice depends only
// on the occupied lattice, not on how the cells are numbered.
func latticeAxis(ex *parallel.Pool, coords []int32, d int, widths []int) (axis, slabs int) {
	m := len(coords) / d
	keys := make([]uint64, m)
	none := make([]struct{}, m)
	slabs, bestSpan := -1, uint64(0)
	for j := 0; j < d; j++ {
		ex.For(m, func(g int) { keys[g] = uint64(coords[g*d+j]) })
		prim.RadixSortPairs(ex, keys, none, widths[j])
		s := 1
		for i := 1; i < m; i++ {
			if keys[i] != keys[i-1] {
				s++
			}
		}
		if span := keys[m-1] - keys[0]; s > slabs || (s == slabs && span > bestSpan) {
			axis, slabs, bestSpan = j, s, span
		}
	}
	return axis, slabs
}

// latticeOrder returns the permutation that sorts the cells into the lattice
// order whose primary axis is axis: perm[k] is the k-th cell. It runs LSD
// radix passes over the key axes, least significant first, packing as many
// axes into one 64-bit key as fit. coords and widths are as for latticeAxis.
func latticeOrder(ex *parallel.Pool, coords []int32, d, axis int, widths []int) []int32 {
	m := len(coords) / d
	perm := make([]int32, m)
	ex.For(m, func(i int) { perm[i] = int32(i) })
	keys := make([]uint64, m)
	for hi := d; hi > 0; {
		lo, w := hi-1, widths[keyAxis(hi-1, axis)]
		for lo > 0 && w+widths[keyAxis(lo-1, axis)] <= 64 {
			lo--
			w += widths[keyAxis(lo, axis)]
		}
		ex.For(m, func(i int) {
			row := coords[int(perm[i])*d : (int(perm[i])+1)*d]
			var key uint64
			for k := lo; k < hi; k++ {
				j := keyAxis(k, axis)
				key = key<<widths[j] | uint64(row[j])
			}
			keys[i] = key
		})
		prim.RadixSortPairs(ex, keys, perm, w)
		hi = lo
	}
	return perm
}

// sweepGrain is the fewest cells a block of the neighbor sweep takes: each
// block places its row pointers with binary searches.
const sweepGrain = 64

// sweepNeighbors fills Neighbors for the listed cells (nil: every cell; a
// list must be ascending) of a lattice-ordered construction and leaves every
// other entry nil.
//
// A cell's candidate neighbors lie in the (2⌈√d⌉+1)^(d−1) lattice rows whose
// key coordinates but the last are within axisReach of its own, and within
// each row they form one contiguous id range. A parallel block keeps, per row
// offset, a pointer to the matching row and a pointer into it. Binary
// searches place the row pointers for the block's first cell, and the pointer
// into a row each time the cell enters a new row; from there both only move
// forward, because each row's target ascends with the cell. Rows and
// candidates are pruned by the offset-gap bound of the offset enumeration
// (Dynamic.enumNeighborsOf), and each candidate is decided by the k-d path's
// exact cube-distance test, BoxBoxDistSq <= eps²(1+1e-12): its per-axis terms
// are computed once per cell from the same float64 cube corners and summed in
// the same axis order, so the sets equal the k-d ones bit for bit. Rows are
// visited in lattice order, so each list comes out ascending. A block's lists
// share one exact-size slab, copied from a scratch buffer the blocks recycle,
// each list sliced to its own capacity so an append to one cannot overwrite
// the next.
func (c *Cells) sweepNeighbors(ex *parallel.Pool, cells []int32) {
	d := c.Pts.D
	numCells := c.NumCells()
	c.Neighbors = make([][]int32, numCells)
	count := numCells
	if cells != nil {
		count = len(cells)
	}
	eps2 := c.Eps * c.Eps * (1 + 1e-12)
	pruneBound := eps2 * (1 + 1e-9) // as in Dynamic.enumNeighborsOf
	m := axisReach(d, c.Side, pruneBound)

	// Row offsets over the key axes but the last, in lexicographic order,
	// each with its reach: the largest last-axis offset the prune bound
	// leaves.
	var rowOff, reach []int64
	off := make([]int64, d-1)
	var rows func(k int, dist2 float64)
	rows = func(k int, dist2 float64) {
		if dist2 > pruneBound {
			return
		}
		if k == d-1 {
			r := m
			for r > 0 && dist2+offsetGap2(r, c.Side) > pruneBound {
				r--
			}
			rowOff = append(rowOff, off...)
			reach = append(reach, r)
			return
		}
		for o := -m; o <= m; o++ {
			off[k] = o
			rows(k+1, dist2+offsetGap2(o, c.Side))
		}
	}
	rows(0, 0)
	nrows := len(reach)
	key := make([]int, d)
	for k := range key {
		key[k] = keyAxis(k, c.axis)
	}
	last := key[d-1]
	// rowOffAxis is rowOff per axis (the last key axis's entry unused).
	rowOffAxis := make([]int64, nrows*d)
	for r := range reach {
		for q := 0; q < d-1; q++ {
			rowOffAxis[r*d+key[q]] = rowOff[r*(d-1)+q]
		}
	}
	coords := c.Coords
	row := func(h int32) []int32 { return coords[int(h)*d : (int(h)+1)*d] }

	// The lattice rows: rowStart[x] is the first cell of row x.
	rowStart := prim.FilterIndex(ex, numCells, func(i int) bool {
		return i == 0 || !samePrefix(row(int32(i)), row(int32(i-1)), key[:d-1])
	})
	numRows := len(rowStart)
	rowStart = append(rowStart, int32(numCells))

	// Scratch buffers the blocks collect their lists in, recycled so that
	// only the exact-size slabs stay allocated.
	var freeMu sync.Mutex
	var free [][]int32
	span := int(2*m + 1)
	ex.BlockedFor(count, sweepGrain, func(lo, hi int) {
		cell := func(i int) int32 {
			if cells == nil {
				return int32(i)
			}
			return cells[i]
		}
		// term[j*span+o+m] is axis j's term of the squared cube distance
		// between the current cell and a cell o lattice steps away.
		term := make([]float64, d*span)
		rowAt := make([]int, nrows) // per row offset: the first row at or past the target
		cur := make([]int32, nrows) // and the pointer into it (cur == end: no such row)
		end := make([]int32, nrows)
		target := make([]int64, d-1)
		gRow := -1
		var buf []int32
		freeMu.Lock()
		if k := len(free); k > 0 {
			buf, free = free[k-1][:0], free[:k-1]
		}
		freeMu.Unlock()
		ends := make([]int32, hi-lo)
		for i := lo; i < hi; i++ {
			if (i-lo)%64 == 63 && ex.Cancelled() {
				return
			}
			g := cell(i)
			gr := row(g)
			if gRow < 0 || g >= rowStart[gRow+1] {
				// g opens a new row: find the rows its candidates lie in.
				first := gRow < 0
				if first {
					gRow = sort.Search(numRows, func(x int) bool { return rowStart[x+1] > g })
				}
				for rowStart[gRow+1] <= g {
					gRow++
				}
				for r := range rowAt {
					for q := range target {
						target[q] = int64(gr[key[q]]) + rowOff[r*(d-1)+q]
					}
					behind := func(x int) bool { return keyCmp(row(rowStart[x]), key, target) < 0 }
					x := rowAt[r]
					if first {
						x = sort.Search(numRows, func(x int) bool { return !behind(x) })
					}
					for x < numRows && behind(x) {
						x++
					}
					rowAt[r] = x
					cur[r], end[r] = 0, 0
					if x < numRows && keyCmp(row(rowStart[x]), key, target) == 0 {
						// Start at the row's first cell within reach of g.
						lo, hi := int(rowStart[x]), int(rowStart[x+1])
						from := int64(gr[last]) - reach[r]
						k := sort.Search(hi-lo, func(k int) bool { return int64(coords[(lo+k)*d+last]) >= from })
						cur[r], end[r] = int32(lo+k), int32(hi)
					}
				}
			}
			for j := 0; j < d; j++ {
				a := c.Anchor[j] + int64(gr[j])
				aLo, aHi := float64(a)*c.Side, float64(a+1)*c.Side
				for o := -m; o <= m; o++ {
					bLo, bHi := float64(a+o)*c.Side, float64(a+o+1)*c.Side
					t := 0.0
					if aHi < bLo {
						t = (bLo - aHi) * (bLo - aHi)
					} else if bHi < aLo {
						t = (aLo - bHi) * (aLo - bHi)
					}
					term[j*span+int(o+m)] = t
				}
			}
			at := gr[last]
			lastTerm := last*span + int(m) - int(at) // + a candidate's last coordinate
			for r := 0; r < nrows; r++ {
				p, e := int(cur[r]), int(end[r])
				lastLo, lastHi := int64(at)-reach[r], int64(at)+reach[r]
				for p < e && int64(coords[p*d+last]) < lastLo {
					p++
				}
				cur[r] = int32(p)
				// The row's terms before the last key axis are summed once;
				// its terms after it are added per candidate, so every sum
				// runs in axis order, as the k-d path's does.
				before := 0.0
				for j, o := range rowOffAxis[r*d : r*d+last] {
					before += term[j*span+int(o+m)]
				}
				after := rowOffAxis[r*d+last+1 : (r+1)*d]
				for h := p; h < e && int64(coords[h*d+last]) <= lastHi; h++ {
					if h == int(g) {
						continue
					}
					dist2 := before + term[lastTerm+int(coords[h*d+last])]
					for q, o := range after {
						dist2 += term[(last+1+q)*span+int(o+m)]
					}
					if dist2 <= eps2 {
						buf = append(buf, int32(h))
					}
				}
			}
			ends[i-lo] = int32(len(buf))
		}
		slab := slices.Clone(buf)
		freeMu.Lock()
		free = append(free, buf)
		freeMu.Unlock()
		s := int32(0)
		for i := lo; i < hi; i++ {
			if e := ends[i-lo]; e > s {
				c.Neighbors[cell(i)] = slab[s:e:e]
				s = e
			}
		}
	})
}

// keyCmp compares a cell's coordinates (row, in axis order) with t (in key
// order) over the first len(t) key axes.
func keyCmp(row []int32, key []int, t []int64) int {
	for q, v := range t {
		if a := int64(row[key[q]]); a != v {
			if a < v {
				return -1
			}
			return 1
		}
	}
	return 0
}

// samePrefix reports whether two cells' coordinates agree on the given axes.
func samePrefix(a, b []int32, axes []int) bool {
	for _, j := range axes {
		if a[j] != b[j] {
			return false
		}
	}
	return true
}
