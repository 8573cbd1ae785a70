// Package grid implements the cell constructions of Sections 4.1 and 4.2:
// the grid method (semisort points by cell key, store non-empty cells in a
// concurrent hash table) and the 2D box method (strips via sorting + pointer
// jumping). Both produce the same Cells representation, which is what every
// downstream phase (MarkCore, ClusterCore, ClusterBorder) consumes.
package grid

import (
	"math"
	"slices"
	"sync/atomic"

	"pdbscan/internal/geom"
	"pdbscan/internal/kdtree"
	"pdbscan/internal/parallel"
	"pdbscan/internal/prim"
)

// Cells is a partition of the input points into disjoint cells of diameter at
// most eps. Points are grouped by cell in Order; cell g owns
// Order[CellStart[g]:CellStart[g+1]].
type Cells struct {
	Pts  geom.Points
	Eps  float64
	Side float64 // cell side length, eps/sqrt(d) (grid); max strip width (box)

	// Anchor is the absolute side-grid coordinate that relative coordinate 0
	// maps to, per dimension (grid construction; nil for box). Grid cells are
	// anchored to the absolute lattice {[k*Side, (k+1)*Side)}: a point with
	// coordinate v lives at absolute cell coordinate floor(v/Side), and
	// Anchor is the coordinate-wise minimum over the point set. Anchoring to
	// the absolute lattice (rather than the data's min corner) makes the
	// partition and the cube geometry canonical: two builds over overlapping
	// point sets place shared points in the same absolute cells, which is
	// what lets the streaming structure (Dynamic) reuse per-cell state across
	// mutations and still match a from-scratch build exactly.
	Anchor []int64

	Order     []int32 // point indices grouped by cell
	CellStart []int32 // len NumCells()+1, offsets into Order
	CellOf    []int32 // cell index of each point; -1 for points in no cell (Dynamic's freed slots)

	// BBLo/BBHi are the actual bounding boxes of the points in each cell
	// (C*d, row-major). Used for BCP filtering, USEC line selection, and
	// kd-tree neighbor queries.
	BBLo, BBHi []float64

	// Coords are the integer grid coordinates of each cell (C*d, row-major).
	// Nil for the box construction.
	Coords []int32

	// StripCellStart, for the box construction, gives the range of cell
	// indices belonging to each strip (len numStrips+1). Nil for grid.
	StripCellStart []int32

	table *cellTable // grid only: coords -> cell index

	// Neighbors[g] lists the cells that could contain points within eps of
	// cell g (excluding g itself), in increasing index order. Filled by one
	// of the ComputeNeighbors* methods.
	Neighbors [][]int32

	// Payload is the cell-major copy of the point coordinates: payload row r
	// holds Pts row Order[r], so cell g owns the contiguous payload row range
	// [CellStart[g], CellStart[g+1]) — the same layout internal/cellstore
	// writes to disk. Every constructor fills it; the clustering pipeline
	// indexes points by payload row and reaches per-point state (keyed by
	// original index) through Order.
	Payload []float64

	// Rows is the identity permutation over payload rows ([0, len(Order)));
	// Rows[CellStart[g]:CellStart[g+1]] is cell g's point list in payload-row
	// space, ready to alias as a per-cell row list. Built alongside Payload.
	Rows []int32
}

// NumCells returns the number of non-empty cells.
func (c *Cells) NumCells() int { return len(c.CellStart) - 1 }

// CellSize returns the number of points in cell g.
func (c *Cells) CellSize(g int) int {
	return int(c.CellStart[g+1] - c.CellStart[g])
}

// PointsOf returns the point indices in cell g (a view; do not mutate).
func (c *Cells) PointsOf(g int) []int32 {
	return c.Order[c.CellStart[g]:c.CellStart[g+1]]
}

// RowsOf returns cell g's point list in payload-row space (a view; do not
// mutate).
func (c *Cells) RowsOf(g int) []int32 {
	return c.Rows[c.CellStart[g]:c.CellStart[g+1]]
}

// PayloadPts views the cell-major payload as a point store: point r of the
// view is Pts row Order[r].
func (c *Cells) PayloadPts() geom.Points {
	return geom.Points{N: len(c.Order), D: c.Pts.D, Data: c.Payload}
}

// buildPayload gathers the cell-major payload (and the Rows identity) from
// Pts through Order. Every constructor calls it once, before the Cells are
// handed to any parallel phase. A non-nil prev lends its buffers: Dynamic
// passes its previous snapshot, which the mutations behind this one have
// already invalidated (and whose Rows, an identity, stays one as a prefix).
func (c *Cells) buildPayload(ex *parallel.Pool, prev *Cells) {
	n, d := len(c.Order), c.Pts.D
	var payload []float64
	var rows []int32
	if prev != nil {
		payload, rows = prev.Payload, prev.Rows
	}
	if cap(payload) < n*d {
		payload = make([]float64, n*d)
	}
	payload = payload[:n*d]
	if len(rows) < n {
		rows = make([]int32, n)
		ex.For(n, func(r int) { rows[r] = int32(r) })
	}
	data := c.Pts.Data
	ex.BlockedFor(n, 0, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			src := int(c.Order[r]) * d
			for j := 0; j < d; j++ {
				payload[r*d+j] = data[src+j]
			}
		}
	})
	c.Rows = rows[:n]
	c.Payload = payload
}

// CellBox returns the actual bounding box of the points in cell g as views.
func (c *Cells) CellBox(g int) (lo, hi []float64) {
	d := c.Pts.D
	return c.BBLo[g*d : (g+1)*d], c.BBHi[g*d : (g+1)*d]
}

// GridCube returns the geometric cube of grid cell g (grid construction
// only). The quadtree of Section 5.2 is rooted at this cube so that the
// approximate depth bound holds. The corners are computed from the absolute
// lattice coordinate so that every build places the cube at bit-identical
// positions regardless of anchor.
func (c *Cells) GridCube(g int) (lo, hi []float64) {
	d := c.Pts.D
	lo = make([]float64, d)
	hi = make([]float64, d)
	c.cubeInto(g, lo, hi)
	return lo, hi
}

// AbsCoord returns the absolute lattice coordinate of cell g in dimension j.
func (c *Cells) AbsCoord(g, j int) int64 {
	return c.Anchor[j] + int64(c.Coords[g*c.Pts.D+j])
}

// coordHash mixes a cell's integer coordinates into a 64-bit hash. Distinct
// coordinates may collide (the grouping and table code always confirm with a
// full coordinate comparison).
func coordHash(coords []int32) uint64 {
	h := uint64(0x51_7c_c1_b7_27_22_0a_95)
	for _, v := range coords {
		h = prim.Mix64(h ^ uint64(uint32(v)))
	}
	return h
}

func coordsEqual(a, b []int32) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func coordsLess(a, b []int32) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// maxAbsCoord bounds the absolute lattice coordinates so the float64 -> int64
// conversion in CellCoord never leaves the representable range (degenerate
// eps/coordinate combinations saturate instead of wrapping).
const maxAbsCoord = int64(1) << 60

// MaxExactCells is the largest |v|/side ratio for which floor(v/side) is an
// exact integer in float64 (with margin for the division's rounding). The
// public entry points reject coordinates beyond it: past 2^53 the lattice
// coordinate quantizes in steps of several cells and the "cell diameter <=
// eps" invariant would silently break.
const MaxExactCells = float64(1 << 52)

// CellCoord returns the absolute side-grid lattice coordinate of value v:
// floor(v/side), saturated to +-maxAbsCoord. Every construction path (batch
// BuildGrid and the streaming Dynamic) uses this one function, so a point is
// assigned to the same absolute cell no matter which path placed it. Callers
// validate |v|/side < MaxExactCells up front; the saturation is only a
// backstop against degenerate inputs reaching the int64 conversion.
func CellCoord(v, side float64) int64 {
	f := math.Floor(v / side)
	if f >= float64(maxAbsCoord) {
		return maxAbsCoord
	}
	if f <= -float64(maxAbsCoord) {
		return -maxAbsCoord
	}
	return int64(f)
}

// BuildGrid assigns the points to grid cells of side eps/sqrt(d)
// (Section 4.1): compute each point's cell coordinates, semisort the points
// by cell key, and insert the non-empty cells into a concurrent hash table.
// Expected O(n) work. The executor ex sizes every parallel step (nil =
// default pool).
//
// Preconditions (enforced with clear errors by the public pdbscan entry
// points): coordinates are finite, |v|/side < MaxExactCells, and the
// per-dimension spread is under 2^31 cells (relative coordinates are int32).
func BuildGrid(ex *parallel.Pool, pts geom.Points, eps float64) *Cells {
	n, d := pts.N, pts.D
	side := eps / math.Sqrt(float64(d))

	// Coordinate-wise minimum lattice coordinate — the anchor that relative
	// int32 coordinates are stored against — via a blocked reduction
	// (computing CellCoord twice per point beats materializing an n*d int64
	// buffer the size of the input itself).
	anchor := parCellMin(ex, pts, side)

	// Relative integer cell coordinates and their hashes, per point.
	coords := make([]int32, n*d)
	hashes := make([]uint64, n)
	order := make([]int32, n)
	ex.For(n, func(i int) {
		row := pts.At(i)
		c := coords[i*d : (i+1)*d]
		for j, v := range row {
			c[j] = int32(CellCoord(v, side) - anchor[j])
		}
		hashes[i] = coordHash(c) & 0xffffffff
		order[i] = int32(i)
	})

	// Semisort by cell: radix sort on the 32-bit coordinate hash, then split
	// equal-hash runs by true coordinates (runs are O(1) expected length).
	prim.RadixSortPairs(ex, hashes, order, 32)
	fixCoordRuns(ex, hashes, order, coords, d)

	coordsOf := func(i int32) []int32 { return coords[int(i)*d : (int(i)+1)*d] }
	starts := prim.FilterIndex(ex, n, func(i int) bool {
		if i == 0 {
			return true
		}
		return !coordsEqual(coordsOf(order[i]), coordsOf(order[i-1]))
	})
	numCells := len(starts)
	cellStart := make([]int32, numCells+1)
	copy(cellStart, starts)
	cellStart[numCells] = int32(n)

	c := &Cells{
		Pts:       pts,
		Eps:       eps,
		Side:      side,
		Anchor:    anchor,
		Order:     order,
		CellStart: cellStart,
		CellOf:    make([]int32, n),
		BBLo:      make([]float64, numCells*d),
		BBHi:      make([]float64, numCells*d),
		Coords:    make([]int32, numCells*d),
	}
	c.table = newCellTable(numCells, c)

	ex.ForGrain(numCells, 1, func(g int) {
		lo, hi := int(cellStart[g]), int(cellStart[g+1])
		rep := coordsOf(order[lo])
		copy(c.Coords[g*d:(g+1)*d], rep)
		bbLo := c.BBLo[g*d : (g+1)*d]
		bbHi := c.BBHi[g*d : (g+1)*d]
		copy(bbLo, pts.At(int(order[lo])))
		copy(bbHi, pts.At(int(order[lo])))
		for i := lo; i < hi; i++ {
			p := order[i]
			c.CellOf[p] = int32(g)
			row := pts.At(int(p))
			for j, v := range row {
				if v < bbLo[j] {
					bbLo[j] = v
				}
				if v > bbHi[j] {
					bbHi[j] = v
				}
			}
		}
		c.table.insert(int32(g))
	})
	c.buildPayload(ex, nil)
	return c
}

// BuildCellMajor constructs Cells directly from a point store that is
// already laid out cell-major: cell g owns rows [cellStart[g],
// cellStart[g+1]) of pts, and abs holds each cell's absolute lattice
// coordinates (numCells*d, row-major). This is the out-of-core window path —
// internal/cellstore maps exactly this layout, so the window needs no
// re-gather: Order and Rows are the identity and Payload aliases pts.Data
// (zero copy). All cells must be non-empty and the relative coordinate
// spread must fit int32, as for BuildGrid. Neighbors are left to the
// ComputeNeighbors* methods.
func BuildCellMajor(ex *parallel.Pool, pts geom.Points, eps float64, cellStart []int32, abs []int64) *Cells {
	n, d := pts.N, pts.D
	numCells := len(cellStart) - 1
	side := eps / math.Sqrt(float64(d))

	anchor := make([]int64, d)
	if numCells > 0 {
		copy(anchor, abs[:d])
		for g := 1; g < numCells; g++ {
			for j := 0; j < d; j++ {
				if a := abs[g*d+j]; a < anchor[j] {
					anchor[j] = a
				}
			}
		}
	}

	rows := make([]int32, n)
	c := &Cells{
		Pts:       pts,
		Eps:       eps,
		Side:      side,
		Anchor:    anchor,
		Order:     rows,
		CellStart: cellStart,
		CellOf:    make([]int32, n),
		BBLo:      make([]float64, numCells*d),
		BBHi:      make([]float64, numCells*d),
		Coords:    make([]int32, numCells*d),
		Payload:   pts.Data,
		Rows:      rows,
	}
	ex.For(n, func(i int) { rows[i] = int32(i) })
	c.table = newCellTable(numCells, c)

	ex.ForGrain(numCells, 1, func(g int) {
		lo, hi := int(cellStart[g]), int(cellStart[g+1])
		co := c.Coords[g*d : (g+1)*d]
		for j := 0; j < d; j++ {
			co[j] = int32(abs[g*d+j] - anchor[j])
		}
		bbLo := c.BBLo[g*d : (g+1)*d]
		bbHi := c.BBHi[g*d : (g+1)*d]
		copy(bbLo, pts.At(lo))
		copy(bbHi, pts.At(lo))
		for i := lo; i < hi; i++ {
			c.CellOf[i] = int32(g)
			row := pts.At(i)
			for j, v := range row {
				if v < bbLo[j] {
					bbLo[j] = v
				}
				if v > bbHi[j] {
					bbHi[j] = v
				}
			}
		}
		c.table.insert(int32(g))
	})
	return c
}

// fixCoordRuns makes equal coordinates contiguous within runs of equal hash
// (rare 32-bit collisions), by sorting each run lexicographically by coords.
func fixCoordRuns(ex *parallel.Pool, hashes []uint64, order []int32, coords []int32, d int) {
	n := len(hashes)
	heads := prim.FilterIndex(ex, n, func(i int) bool {
		return (i == 0 || hashes[i] != hashes[i-1]) &&
			i+1 < n && hashes[i+1] == hashes[i]
	})
	co := func(i int32) []int32 { return coords[int(i)*d : (int(i)+1)*d] }
	ex.ForGrain(len(heads), 1, func(h int) {
		lo := int(heads[h])
		hi := lo + 1
		for hi < n && hashes[hi] == hashes[lo] {
			hi++
		}
		run := order[lo:hi]
		for i := 1; i < len(run); i++ {
			j := i
			for j > 0 && coordsLess(co(run[j]), co(run[j-1])) {
				run[j], run[j-1] = run[j-1], run[j]
				j--
			}
		}
	})
}

// parCellMin computes the coordinate-wise minimum lattice coordinate of the
// points in parallel.
func parCellMin(ex *parallel.Pool, pts geom.Points, side float64) []int64 {
	d := pts.D
	nb := ex.NumBlocks(pts.N, 0)
	partial := make([][]int64, nb)
	ex.BlockedForIdx(pts.N, 0, func(b, lo, hi int) {
		m := make([]int64, d)
		for j, v := range pts.At(lo) {
			m[j] = CellCoord(v, side)
		}
		for i := lo + 1; i < hi; i++ {
			for j, v := range pts.At(i) {
				if a := CellCoord(v, side); a < m[j] {
					m[j] = a
				}
			}
		}
		partial[b] = m
	})
	m := partial[0]
	for _, pm := range partial[1:] {
		for j, v := range pm {
			if v < m[j] {
				m[j] = v
			}
		}
	}
	return m
}

// cellTable maps cell coordinates to cell indices with the concurrent
// linear-probing scheme of internal/hashtable, but keyed on full coordinate
// vectors (compared exactly on lookup).
type cellTable struct {
	cells *Cells
	slots []int32 // cell index + 1; 0 = empty
	mask  uint64
}

func newCellTable(n int, cells *Cells) *cellTable {
	capacity := 16
	for capacity < 2*n {
		capacity <<= 1
	}
	return &cellTable{
		cells: cells,
		slots: make([]int32, capacity),
		mask:  uint64(capacity - 1),
	}
}

func (t *cellTable) insert(g int32) {
	d := t.cells.Pts.D
	co := t.cells.Coords[int(g)*d : (int(g)+1)*d]
	i := coordHash(co) & t.mask
	for {
		if atomic.LoadInt32(&t.slots[i]) == 0 &&
			atomic.CompareAndSwapInt32(&t.slots[i], 0, g+1) {
			return
		}
		i = (i + 1) & t.mask
	}
}

// lookup returns the index of the cell with the given coordinates, or -1.
func (t *cellTable) lookup(co []int32) int32 {
	d := t.cells.Pts.D
	i := coordHash(co) & t.mask
	for {
		s := atomic.LoadInt32(&t.slots[i])
		if s == 0 {
			return -1
		}
		g := s - 1
		if coordsEqual(t.cells.Coords[int(g)*d:(int(g)+1)*d], co) {
			return g
		}
		i = (i + 1) & t.mask
	}
}

// enumNeighborsOf returns the cells that could contain points within eps of
// the grid cube at absolute lattice coordinates abs, by enumerating all
// integer coordinate offsets within ceil(sqrt(d)) per axis and looking each
// one up in the cell hash table. exclude (a cell index, or -1) is omitted
// from the result. The cube at abs need not be an existing cell — the
// streaming structure uses this to find the eps-neighborhood of a destroyed
// cell.
func (c *Cells) enumNeighborsOf(abs []int64, exclude int32) []int32 {
	d := c.Pts.D
	m := int64(math.Ceil(math.Sqrt(float64(d))))
	eps2 := c.Eps * c.Eps * (1 + 1e-12)
	// Loose pruning bound for the offset recursion; the final decision uses
	// the exact cube-distance test shared with the k-d path so that both
	// methods return identical neighbor sets.
	pruneBound := eps2 * (1 + 1e-9)
	var nbrs []int32
	k := geom.NewKernel(c.Pts)
	probe := make([]int32, d)
	buf := make([]float64, 4*d)
	gLo, gHi, hLo, hHi := buf[:d], buf[d:2*d], buf[2*d:3*d], buf[3*d:]
	absCubeInto(abs, c.Side, gLo, gHi)
	var rec func(j int, dist2 float64)
	rec = func(j int, dist2 float64) {
		if dist2 > pruneBound {
			return
		}
		if j == d {
			// Self-exclusion is exclude's job alone (exclude = the queried
			// cell for alive cells, -1 for vacated coordinates — where a
			// cell reborn at the same coordinates IS a valid answer, and
			// the k-d path already returns it).
			if h := c.table.lookup(probe); h >= 0 && h != exclude {
				c.cubeInto(int(h), hLo, hHi)
				if k.BoxBoxDistSq(gLo, gHi, hLo, hHi) <= eps2 {
					nbrs = append(nbrs, h)
				}
			}
			return
		}
		for o := -m; o <= m; o++ {
			// Minimum axis gap between cells offset by o cells.
			gap := 0.0
			if o > 0 {
				gap = float64(o-1) * c.Side
			} else if o < 0 {
				gap = float64(-o-1) * c.Side
			}
			// Probe coordinates are relative to the anchor; cells only exist
			// at representable relative positions.
			rel := abs[j] + o - c.Anchor[j]
			if rel < math.MinInt32 || rel > math.MaxInt32 {
				continue
			}
			probe[j] = int32(rel)
			rec(j+1, dist2+gap*gap)
		}
	}
	rec(0, 0)
	sortNeighbors(nbrs)
	return nbrs
}

// ComputeNeighborsEnum fills Neighbors by offset enumeration — the
// constant-work-per-cell method the 2D algorithms use (Section 4.1). Only
// valid for the grid construction.
func (c *Cells) ComputeNeighborsEnum(ex *parallel.Pool) {
	d := c.Pts.D
	numCells := c.NumCells()
	c.Neighbors = make([][]int32, numCells)
	ex.ForGrain(numCells, 1, func(g int) {
		abs := make([]int64, d)
		for j := 0; j < d; j++ {
			abs[j] = c.AbsCoord(g, j)
		}
		c.Neighbors[g] = c.enumNeighborsOf(abs, int32(g))
	})
}

// cellCenterTree builds a k-d tree over the cube centers of all cells, for
// neighbor queries in higher dimensions (Section 5.1).
func (c *Cells) cellCenterTree(ex *parallel.Pool) (*kdtree.Tree, geom.Points) {
	d := c.Pts.D
	numCells := c.NumCells()
	centers := geom.Points{N: numCells, D: d, Data: make([]float64, numCells*d)}
	ex.For(numCells, func(g int) {
		row := centers.Data[g*d : (g+1)*d]
		for j := 0; j < d; j++ {
			row[j] = (float64(c.AbsCoord(g, j)) + 0.5) * c.Side
		}
	})
	return kdtree.Build(ex, centers), centers
}

// kdNeighborsOf is enumNeighborsOf answered with a k-d tree over cell cube
// centers instead of offset enumeration (identical results). slotOf maps a
// tree point index back to its cell slot (nil = identity, when the tree
// spans every cell).
func (c *Cells) kdNeighborsOf(tree *kdtree.Tree, slotOf []int32, abs []int64, exclude int32) []int32 {
	d := c.Pts.D
	// Two cells can contain points within eps iff their cubes are within
	// eps; center distance is at most cube distance + side*sqrt(d).
	radius := c.Eps + c.Side*math.Sqrt(float64(d)) + 1e-9
	eps2 := c.Eps * c.Eps * (1 + 1e-12)
	k := geom.NewKernel(c.Pts)
	q := make([]float64, d)
	gLo := make([]float64, d)
	gHi := make([]float64, d)
	hLo := make([]float64, d)
	hHi := make([]float64, d)
	for j := 0; j < d; j++ {
		q[j] = (float64(abs[j]) + 0.5) * c.Side
	}
	absCubeInto(abs, c.Side, gLo, gHi)
	cand := tree.RangeQuery(q, radius, nil)
	nbrs := cand[:0]
	for _, h := range cand {
		if slotOf != nil {
			h = slotOf[h]
		}
		if h == exclude {
			continue
		}
		c.cubeInto(int(h), hLo, hHi)
		if k.BoxBoxDistSq(gLo, gHi, hLo, hHi) <= eps2 {
			nbrs = append(nbrs, h)
		}
	}
	sortNeighbors(nbrs)
	return nbrs
}

// ComputeNeighborsKD fills Neighbors using a k-d tree over the cell cube
// centers (Section 5.1), which avoids enumerating the exponentially many
// candidate offsets in higher dimensions. Only valid for the grid
// construction.
func (c *Cells) ComputeNeighborsKD(ex *parallel.Pool) {
	d := c.Pts.D
	numCells := c.NumCells()
	tree, _ := c.cellCenterTree(ex)
	c.Neighbors = make([][]int32, numCells)
	ex.ForGrain(numCells, 1, func(g int) {
		abs := make([]int64, d)
		for j := 0; j < d; j++ {
			abs[j] = c.AbsCoord(g, j)
		}
		c.Neighbors[g] = c.kdNeighborsOf(tree, nil, abs, int32(g))
	})
}

// absCubeInto writes the cube of the cell at absolute lattice coordinates
// abs. Computed from the absolute coordinate so every build (and the
// streaming structure, whatever its anchor) places cubes at bit-identical
// positions.
func absCubeInto(abs []int64, side float64, lo, hi []float64) {
	for j, a := range abs {
		lo[j] = float64(a) * side
		hi[j] = float64(a+1) * side
	}
}

func (c *Cells) cubeInto(g int, lo, hi []float64) {
	d := c.Pts.D
	for j := 0; j < d; j++ {
		a := c.Anchor[j] + int64(c.Coords[g*d+j])
		lo[j] = float64(a) * c.Side
		hi[j] = float64(a+1) * c.Side
	}
}

func sortNeighbors(a []int32) {
	slices.Sort(a)
}
