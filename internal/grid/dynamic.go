package grid

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync/atomic"

	"pdbscan/internal/geom"
	"pdbscan/internal/kdtree"
	"pdbscan/internal/parallel"
)

// Dynamic is the mutable counterpart of the grid construction (Section 4.1)
// for streaming workloads: points can be inserted and removed between
// clustering runs, and Snapshot produces a Cells view that reuses every piece
// of per-cell state whose inputs did not change.
//
// Identity is slot-based and stable across mutations:
//
//   - every point occupies a point slot (an index into the flat coordinate
//     array); removing a point frees its slot for reuse;
//   - every non-empty cell occupies a cell slot; the cell keeps its slot for
//     as long as it has points, so per-cell caches held by downstream phases
//     (bounding boxes, neighbor lists, core flags, quadtrees, cell-graph
//     edges) can be keyed by slot and survive unrelated mutations.
//
// The dirty-set discipline: a mutated cell (point inserted or removed,
// created, or destroyed) is dirty. Snapshot expands the dirty set to the
// affected set — every alive cell whose cube is within eps of a dirty cell's
// cube — because those are exactly the cells whose points' eps-neighborhoods
// (and hence core counts, core point lists, and incident cell-graph edges)
// may have changed. Untouched cells keep their point lists, bounding boxes,
// and neighbor lists by construction; internal/core keeps their core flags,
// quadtrees, and edges on the same contract.
//
// Dynamic is not safe for concurrent use; the public streaming API
// serializes access.
type Dynamic struct {
	d    int
	eps  float64
	side float64

	data    []float64 // point-slot-major coordinates, len = cap*d
	freePts []int32   // reusable point slots
	ptCell  []int32   // per point slot: owning cell slot, -1 if free
	numLive int

	key2cell    map[string]int32
	cellPts     [][]int32 // per cell slot: its point slots (nil once freed)
	cellAbs     [][]int64 // per cell slot: absolute lattice coords (nil once freed)
	cellAlive   []bool
	freeCells   []int32 // reusable cell slots
	deadPending []int32 // destroyed since last snapshot; coords retained for dirty propagation

	dirty map[int32]struct{} // cell slots created/mutated/destroyed since last snapshot

	snap      *Cells // last snapshot; nil before the first
	snapValid bool   // no mutations since snap was taken

	// restored marks a Dynamic rebuilt by RestoreDynamic: the next Snapshot
	// has no previous Cells to copy grid-side per-cell state from (it
	// recomputes bounding boxes and neighbor lists for every cell), but it
	// reports only the restored dirty set's expansion as affected — not Full
	// — so incremental caches restored alongside keep their clean entries.
	restored bool
}

// DirtyInfo reports, for one Snapshot, which cell slots the mutations since
// the previous snapshot may have invalidated downstream state for.
type DirtyInfo struct {
	// Affected[g] is true when cell slot g's point set, or the point set of
	// any cell within eps of it, changed — exactly the cells whose core
	// flags, core point lists, and incident cell-graph edges must be
	// recomputed.
	Affected []bool
	// NumAffected counts the alive cells in Affected (destroyed cells are
	// also flagged so downstream caches retire their state, but they do no
	// recomputation work and are not counted).
	NumAffected int
	// Full marks the first snapshot (or a structural rebuild): all state is
	// fresh and nothing downstream may be reused.
	Full bool
}

// NewDynamic creates an empty mutable grid over d-dimensional points at the
// given eps (cell side eps/sqrt(d), anchored to the absolute lattice — the
// same partition BuildGrid produces for any point set).
func NewDynamic(d int, eps float64) *Dynamic {
	return &Dynamic{
		d:        d,
		eps:      eps,
		side:     eps / math.Sqrt(float64(d)),
		key2cell: make(map[string]int32),
		dirty:    make(map[int32]struct{}),
	}
}

// Dims returns the dimensionality.
func (dy *Dynamic) Dims() int { return dy.d }

// Eps returns the radius the grid is built for.
func (dy *Dynamic) Eps() float64 { return dy.eps }

// NumPoints returns the number of live points.
func (dy *Dynamic) NumPoints() int { return dy.numLive }

// NumPointSlots returns the size of the point-slot space (live + free).
func (dy *Dynamic) NumPointSlots() int { return len(dy.ptCell) }

// PointAt returns the coordinates stored in point slot p (a view; valid only
// while the slot is live).
func (dy *Dynamic) PointAt(p int32) []float64 {
	return dy.data[int(p)*dy.d : (int(p)+1)*dy.d]
}

// key packs absolute lattice coordinates into a map key.
func absKey(abs []int64) string {
	b := make([]byte, 8*len(abs))
	for j, a := range abs {
		binary.LittleEndian.PutUint64(b[8*j:], uint64(a))
	}
	return string(b)
}

func (dy *Dynamic) markDirty(g int32) {
	dy.dirty[g] = struct{}{}
	dy.snapValid = false
}

// Insert adds a point (row must have length Dims and finite coordinates —
// the caller validates) and returns its point slot.
func (dy *Dynamic) Insert(row []float64) int32 {
	d := dy.d
	var p int32
	if n := len(dy.freePts); n > 0 {
		p = dy.freePts[n-1]
		dy.freePts = dy.freePts[:n-1]
		copy(dy.data[int(p)*d:], row)
	} else {
		p = int32(len(dy.ptCell))
		dy.data = append(dy.data, row...)
		dy.ptCell = append(dy.ptCell, -1)
	}

	abs := make([]int64, d)
	for j, v := range row {
		abs[j] = CellCoord(v, dy.side)
	}
	key := absKey(abs)
	g, ok := dy.key2cell[key]
	if !ok {
		if n := len(dy.freeCells); n > 0 {
			g = dy.freeCells[n-1]
			dy.freeCells = dy.freeCells[:n-1]
			dy.cellPts[g] = dy.cellPts[g][:0]
			dy.cellAbs[g] = abs
			dy.cellAlive[g] = true
		} else {
			g = int32(len(dy.cellPts))
			dy.cellPts = append(dy.cellPts, nil)
			dy.cellAbs = append(dy.cellAbs, abs)
			dy.cellAlive = append(dy.cellAlive, true)
		}
		dy.key2cell[key] = g
	}
	dy.cellPts[g] = append(dy.cellPts[g], p)
	dy.ptCell[p] = g
	dy.numLive++
	dy.markDirty(g)
	return p
}

// Remove deletes the point in slot p (must be live). The slot becomes
// reusable immediately; if its cell empties, the cell is destroyed and its
// slot becomes reusable after the next Snapshot (its coordinates are needed
// until then to propagate dirtiness to its eps-neighborhood).
func (dy *Dynamic) Remove(p int32) {
	g := dy.ptCell[p]
	pts := dy.cellPts[g]
	for i, q := range pts {
		if q == p {
			pts[i] = pts[len(pts)-1]
			dy.cellPts[g] = pts[:len(pts)-1]
			break
		}
	}
	dy.ptCell[p] = -1
	dy.freePts = append(dy.freePts, p)
	dy.numLive--
	dy.markDirty(g)
	if len(dy.cellPts[g]) == 0 {
		dy.cellAlive[g] = false
		delete(dy.key2cell, absKey(dy.cellAbs[g]))
		dy.deadPending = append(dy.deadPending, g)
	}
}

// Snapshot materializes the current point set as a Cells value with neighbor
// lists computed, reusing the previous snapshot's per-cell bounding boxes and
// neighbor lists for every cell outside the affected set. Cell slots are
// stable: a cell keeps its index across snapshots, and freed slots appear as
// empty cells (zero points, no neighbors) that every downstream phase skips
// naturally.
//
// Every snapshot with mutations behind it gathers the cell-major payload
// again (an O(n·d) copy; the row space changes whenever any cell's size
// does), into the previous snapshot's buffers when they are large enough.
// The returned Cells aliases the Dynamic's point storage; it is valid until
// the next mutation. Calling Snapshot with no mutations since the last one
// returns the same Cells and an empty DirtyInfo.
func (dy *Dynamic) Snapshot(ex *parallel.Pool) (*Cells, *DirtyInfo, error) {
	numSlots := len(dy.cellPts)
	if dy.snapValid && dy.snap != nil {
		return dy.snap, &DirtyInfo{Affected: make([]bool, numSlots)}, nil
	}
	d := dy.d
	full := dy.snap == nil && !dy.restored
	prev := dy.snap // nil right after a restore: grid-side state is recomputed below

	// Anchor: coordinate-wise minimum absolute coordinate over alive cells.
	anchor := make([]int64, d)
	first := true
	for g := 0; g < numSlots; g++ {
		if !dy.cellAlive[g] {
			continue
		}
		abs := dy.cellAbs[g]
		if first {
			copy(anchor, abs)
			first = false
			continue
		}
		for j, a := range abs {
			if a < anchor[j] {
				anchor[j] = a
			}
		}
	}
	numAlive := 0
	for g := 0; g < numSlots; g++ {
		if !dy.cellAlive[g] {
			continue
		}
		numAlive++
		for j, a := range dy.cellAbs[g] {
			if rel := a - anchor[j]; rel > math.MaxInt32 {
				return nil, nil, fmt.Errorf("grid: point spread exceeds %d cells of side %v in dimension %d", math.MaxInt32, dy.side, j)
			}
		}
	}

	nCap := len(dy.ptCell)
	c := &Cells{
		Pts:       geom.Points{N: nCap, D: d, Data: dy.data},
		Eps:       dy.eps,
		Side:      dy.side,
		Anchor:    anchor,
		CellStart: make([]int32, numSlots+1),
		Order:     make([]int32, dy.numLive),
		CellOf:    make([]int32, nCap),
		BBLo:      make([]float64, numSlots*d),
		BBHi:      make([]float64, numSlots*d),
		Coords:    make([]int32, numSlots*d),
		Neighbors: make([][]int32, numSlots),
	}

	// Offsets, coords, and the cell table.
	off := int32(0)
	for g := 0; g < numSlots; g++ {
		c.CellStart[g] = off
		if dy.cellAlive[g] {
			off += int32(len(dy.cellPts[g]))
			for j, a := range dy.cellAbs[g] {
				c.Coords[g*d+j] = int32(a - anchor[j])
			}
		}
	}
	c.CellStart[numSlots] = off
	c.table = newCellTable(numAlive, c)
	for i := range c.CellOf {
		c.CellOf[i] = -1
	}
	ex.ForGrain(numSlots, 8, func(g int) {
		if !dy.cellAlive[g] {
			return
		}
		copy(c.Order[c.CellStart[g]:c.CellStart[g+1]], dy.cellPts[g])
		for _, p := range dy.cellPts[g] {
			c.CellOf[p] = int32(g)
		}
		c.table.insert(int32(g))
	})

	// Affected set: dirty cells plus every alive cell within eps of one.
	affected := make([]int32, numSlots)
	info := &DirtyInfo{Affected: make([]bool, numSlots), Full: full}

	// Neighbor search strategy. In low dimensions offset enumeration is
	// always right. In higher dimensions a k-d tree over the cell centers
	// beats enumeration only when many cells need queries — an O(C log C)
	// rebuild per tick would break the cost-∝-dirty-cells model for small
	// dirty sets — so the tree is built lazily, per phase, only when the
	// query count justifies it. probeCost is enumeration's per-query probe
	// count, (2*ceil(sqrt(d))+1)^d (saturated).
	var tree *kdtree.Tree
	var slotOf []int32 // tree point index -> alive cell slot
	buildTree := func() {
		if tree != nil || numAlive == 0 {
			return
		}
		slotOf = make([]int32, 0, numAlive)
		centers := geom.Points{N: numAlive, D: d, Data: make([]float64, 0, numAlive*d)}
		for g := 0; g < numSlots; g++ {
			if !dy.cellAlive[g] {
				continue
			}
			slotOf = append(slotOf, int32(g))
			for _, a := range dy.cellAbs[g] {
				centers.Data = append(centers.Data, (float64(a)+0.5)*dy.side)
			}
		}
		tree = kdtree.Build(ex, centers)
	}
	probeCost := 1
	width := 2*int(math.Ceil(math.Sqrt(float64(d)))) + 1
	for j := 0; j < d && probeCost < 1<<30; j++ {
		probeCost *= width
	}
	wantTree := func(queries int) bool {
		return d > 3 && queries > numAlive/probeCost
	}
	neighborsOf := func(abs []int64, exclude int32) []int32 {
		if tree != nil {
			return c.kdNeighborsOf(tree, slotOf, abs, exclude)
		}
		return c.enumNeighborsOf(abs, exclude)
	}

	if full {
		for g := range affected {
			affected[g] = 1
		}
	} else {
		dirtyList := make([]int32, 0, len(dy.dirty))
		for g := range dy.dirty {
			dirtyList = append(dirtyList, g)
		}
		if wantTree(len(dirtyList)) {
			buildTree()
		}
		ex.ForGrain(len(dirtyList), 1, func(i int) {
			g := dirtyList[i]
			atomic.StoreInt32(&affected[g], 1)
			for _, h := range neighborsOf(dy.cellAbs[g], g) {
				atomic.StoreInt32(&affected[h], 1)
			}
		})
	}
	affectedAlive := 0
	for g := 0; g < numSlots; g++ {
		if affected[g] != 0 && dy.cellAlive[g] {
			affectedAlive++
		}
	}
	if wantTree(affectedAlive) {
		buildTree()
	}

	// Per-cell state: bounding boxes and neighbor lists are recomputed for
	// affected cells and copied from the previous snapshot otherwise.
	ex.ForGrain(numSlots, 1, func(g int) {
		if !dy.cellAlive[g] {
			return
		}
		if affected[g] == 0 && prev != nil {
			copy(c.BBLo[g*d:(g+1)*d], prev.BBLo[g*d:(g+1)*d])
			copy(c.BBHi[g*d:(g+1)*d], prev.BBHi[g*d:(g+1)*d])
			c.Neighbors[g] = prev.Neighbors[g]
			return
		}
		pts := dy.cellPts[g]
		bbLo := c.BBLo[g*d : (g+1)*d]
		bbHi := c.BBHi[g*d : (g+1)*d]
		copy(bbLo, dy.PointAt(pts[0]))
		copy(bbHi, dy.PointAt(pts[0]))
		for _, p := range pts[1:] {
			row := dy.PointAt(p)
			for j, v := range row {
				if v < bbLo[j] {
					bbLo[j] = v
				}
				if v > bbHi[j] {
					bbHi[j] = v
				}
			}
		}
		c.Neighbors[g] = neighborsOf(dy.cellAbs[g], int32(g))
	})
	c.buildPayload(ex, dy.snap)

	for g, a := range affected {
		if a != 0 {
			info.Affected[g] = true
		}
	}
	info.NumAffected = affectedAlive

	// Retire destroyed cells: their slots become reusable now that dirtiness
	// has been propagated.
	for _, g := range dy.deadPending {
		if !dy.cellAlive[g] { // still dead (not resurrected via slot reuse)
			dy.cellAbs[g] = nil
			dy.cellPts[g] = nil
			dy.freeCells = append(dy.freeCells, g)
		}
	}
	dy.deadPending = dy.deadPending[:0]
	clear(dy.dirty)
	dy.snap = c
	dy.snapValid = true
	dy.restored = false
	return c, info, nil
}
