package grid

import (
	"fmt"
	"math"
	"slices"
)

// DynamicState is the serializable image of a Dynamic: every slot array
// verbatim (point and cell slots are the identity the downstream incremental
// caches are keyed by, so restore must preserve them exactly), plus the
// pending dirty set. The codec lives with the caller — this package defines
// only the flattened shape and its validation.
type DynamicState struct {
	Dims int
	Eps  float64

	// Point slots.
	Data    []float64 // slot-major coordinates, len = numPtSlots*Dims
	PtCell  []int32   // owning cell slot per point slot, -1 if free
	FreePts []int32

	// Cell slots. Present marks slots whose coords are retained (alive cells
	// and destroyed-but-pending ones); CellAbs rows of absent slots are zero.
	CellPresent []bool
	CellAlive   []bool
	CellAbs     []int64 // slot-major absolute lattice coords, len = numCellSlots*Dims
	CellPtsOff  []int32 // prefix offsets into CellPtsFlat, len = numCellSlots+1
	CellPtsFlat []int32
	FreeCells   []int32
	DeadPending []int32

	// Dirty lists the cell slots mutated since the last Snapshot (the set the
	// first post-restore Snapshot reports as affected).
	Dirty []int32
}

// ExportState captures the Dynamic's full mutable state. The returned value
// aliases nothing (safe to serialize after further mutations).
func (dy *Dynamic) ExportState() *DynamicState {
	d := dy.d
	numCellSlots := len(dy.cellPts)
	st := &DynamicState{
		Dims:        d,
		Eps:         dy.eps,
		Data:        append([]float64(nil), dy.data...),
		PtCell:      append([]int32(nil), dy.ptCell...),
		FreePts:     append([]int32(nil), dy.freePts...),
		CellPresent: make([]bool, numCellSlots),
		CellAlive:   append([]bool(nil), dy.cellAlive...),
		CellAbs:     make([]int64, numCellSlots*d),
		CellPtsOff:  make([]int32, numCellSlots+1),
		FreeCells:   append([]int32(nil), dy.freeCells...),
		DeadPending: append([]int32(nil), dy.deadPending...),
	}
	for g := 0; g < numCellSlots; g++ {
		if dy.cellAbs[g] != nil {
			st.CellPresent[g] = true
			copy(st.CellAbs[g*d:(g+1)*d], dy.cellAbs[g])
		}
		st.CellPtsFlat = append(st.CellPtsFlat, dy.cellPts[g]...)
		st.CellPtsOff[g+1] = int32(len(st.CellPtsFlat))
	}
	st.Dirty = make([]int32, 0, len(dy.dirty))
	for g := range dy.dirty {
		st.Dirty = append(st.Dirty, g)
	}
	slices.Sort(st.Dirty) // deterministic snapshot bytes
	return st
}

// RestoreDynamic rebuilds a Dynamic from an exported state. The restored
// structure has no previous snapshot, so its first Snapshot recomputes every
// grid-side per-cell product (bounding boxes, neighbor lists) — but it
// reports only the restored dirty set's expansion as affected, not Full, so
// downstream incremental caches restored alongside stay usable.
//
// The state may come from an untrusted file, so every invariant the Dynamic
// relies on is checked: each slot has at most one owner (no repeats in the
// free and dead-pending lists, no two alive cells at one lattice coordinate),
// and every live point is finite, inside the exact lattice range, and in the
// cell whose coordinates it names — else a cell's diameter could exceed eps.
func RestoreDynamic(st *DynamicState) (*Dynamic, error) {
	d := st.Dims
	if d <= 0 {
		return nil, fmt.Errorf("grid: restore: dims %d", d)
	}
	if !(st.Eps > 0) {
		return nil, fmt.Errorf("grid: restore: eps %v", st.Eps)
	}
	numPtSlots := len(st.PtCell)
	numCellSlots := len(st.CellAlive)
	if len(st.Data) != numPtSlots*d {
		return nil, fmt.Errorf("grid: restore: %d coords for %d point slots of dim %d", len(st.Data), numPtSlots, d)
	}
	if len(st.CellPresent) != numCellSlots || len(st.CellAbs) != numCellSlots*d {
		return nil, fmt.Errorf("grid: restore: cell slot arrays disagree (%d alive, %d present, %d coords)", numCellSlots, len(st.CellPresent), len(st.CellAbs))
	}
	if len(st.CellPtsOff) != numCellSlots+1 || st.CellPtsOff[0] != 0 {
		return nil, fmt.Errorf("grid: restore: bad cell point offsets")
	}
	dy := NewDynamic(d, st.Eps)
	dy.data = append([]float64(nil), st.Data...)
	dy.ptCell = append([]int32(nil), st.PtCell...)
	dy.freePts = append([]int32(nil), st.FreePts...)
	dy.cellPts = make([][]int32, numCellSlots)
	dy.cellAbs = make([][]int64, numCellSlots)
	dy.cellAlive = append([]bool(nil), st.CellAlive...)
	dy.freeCells = append([]int32(nil), st.FreeCells...)
	dy.deadPending = append([]int32(nil), st.DeadPending...)

	maxMag := MaxExactCells * dy.side
	seen := make([]bool, numPtSlots)
	for g := 0; g < numCellSlots; g++ {
		lo, hi := st.CellPtsOff[g], st.CellPtsOff[g+1]
		if lo > hi || int(hi) > len(st.CellPtsFlat) {
			return nil, fmt.Errorf("grid: restore: cell %d point extent [%d,%d) out of range", g, lo, hi)
		}
		if st.CellAlive[g] && !st.CellPresent[g] {
			return nil, fmt.Errorf("grid: restore: cell %d alive without coords", g)
		}
		if !st.CellPresent[g] {
			if lo != hi {
				return nil, fmt.Errorf("grid: restore: freed cell %d has %d points", g, hi-lo)
			}
			continue
		}
		abs := make([]int64, d)
		copy(abs, st.CellAbs[g*d:(g+1)*d])
		// CellCoord never leaves this range for an accepted point, and
		// within it a neighbor probe's coordinate plus offset cannot
		// overflow (dead-pending cells are probed around too).
		for _, a := range abs {
			if math.Abs(float64(a)) > MaxExactCells {
				return nil, fmt.Errorf("grid: restore: cell %d lattice coordinates %v beyond the exact lattice range", g, abs)
			}
		}
		dy.cellAbs[g] = abs
		pts := make([]int32, hi-lo)
		copy(pts, st.CellPtsFlat[lo:hi])
		dy.cellPts[g] = pts
		if st.CellAlive[g] {
			if len(pts) == 0 {
				return nil, fmt.Errorf("grid: restore: alive cell %d is empty", g)
			}
			key := absKey(abs)
			if h, dup := dy.key2cell[key]; dup {
				return nil, fmt.Errorf("grid: restore: alive cells %d and %d share lattice coordinates %v", h, g, abs)
			}
			dy.key2cell[key] = int32(g)
		} else if len(pts) != 0 {
			return nil, fmt.Errorf("grid: restore: dead cell %d has %d points", g, len(pts))
		}
		for _, p := range pts {
			if p < 0 || int(p) >= numPtSlots || seen[p] {
				return nil, fmt.Errorf("grid: restore: cell %d has invalid or duplicate point slot %d", g, p)
			}
			seen[p] = true
			if st.PtCell[p] != int32(g) {
				return nil, fmt.Errorf("grid: restore: point slot %d owned by cell %d but listed in %d", p, st.PtCell[p], g)
			}
			for j, v := range dy.PointAt(p) {
				if !(math.Abs(v) < maxMag) {
					return nil, fmt.Errorf("grid: restore: point slot %d coordinate %v is non-finite or beyond the exact lattice range", p, v)
				}
				if CellCoord(v, dy.side) != abs[j] {
					return nil, fmt.Errorf("grid: restore: point slot %d at %v lies outside its cell %d at %v", p, dy.PointAt(p), g, abs)
				}
			}
			dy.numLive++
		}
	}
	for p := 0; p < numPtSlots; p++ {
		if st.PtCell[p] >= 0 && !seen[p] {
			return nil, fmt.Errorf("grid: restore: point slot %d claims cell %d but is listed nowhere", p, st.PtCell[p])
		}
		if int(st.PtCell[p]) >= numCellSlots {
			return nil, fmt.Errorf("grid: restore: point slot %d names cell slot %d of %d", p, st.PtCell[p], numCellSlots)
		}
	}
	for _, g := range st.Dirty {
		if g < 0 || int(g) >= numCellSlots {
			return nil, fmt.Errorf("grid: restore: dirty cell slot %d out of range", g)
		}
		dy.dirty[g] = struct{}{}
	}
	// A slot listed twice would be handed out twice: by Insert (free
	// slots) or by the next Snapshot's retire loop (dead-pending ones).
	// Dead-pending slots are present and free ones are not, so one seen
	// set covers both lists.
	listed := make([]bool, numCellSlots)
	for _, g := range st.DeadPending {
		if g < 0 || int(g) >= numCellSlots || st.CellAlive[g] || !st.CellPresent[g] || listed[g] {
			return nil, fmt.Errorf("grid: restore: dead-pending cell slot %d inconsistent or listed twice", g)
		}
		listed[g] = true
	}
	for _, g := range st.FreeCells {
		if g < 0 || int(g) >= numCellSlots || st.CellPresent[g] || listed[g] {
			return nil, fmt.Errorf("grid: restore: free cell slot %d inconsistent or listed twice", g)
		}
		listed[g] = true
	}
	// seen marks the live point slots so far; free ones join it here.
	for _, p := range st.FreePts {
		if p < 0 || int(p) >= numPtSlots || st.PtCell[p] >= 0 || seen[p] {
			return nil, fmt.Errorf("grid: restore: free point slot %d inconsistent or listed twice", p)
		}
		seen[p] = true
	}
	dy.restored = true
	return dy, nil
}
