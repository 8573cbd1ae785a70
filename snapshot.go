package pdbscan

import (
	"fmt"
	"io"
	"slices"

	"pdbscan/internal/cellstore"
	"pdbscan/internal/core"
	"pdbscan/internal/grid"
)

// snapMagic opens every streaming snapshot stream (version is the first
// checksummed field).
const snapMagic = "PDBSNAP1"

const snapVersion = 2

// Snapshot serializes the StreamingClusterer's full warm state to w: the
// point set with its id assignment, the dynamic grid (including the pending
// dirty set — Snapshot never consumes it, so taking a snapshot does not
// perturb the next Run), and the incremental caches (core flags and
// cell-graph edge booleans; core lists and quadtrees are derived state that
// the next Run rebuilds). The stream is checksummed; RestoreStreaming rejects
// any corruption.
//
// A restored clusterer's next Run recomputes only what the pending mutations
// dirtied — same as if the process had never exited — plus cheap grid-side
// geometry (bounding boxes, neighbor lists) that is cheaper to rebuild than
// to ship.
func (s *StreamingClusterer) Snapshot(w io.Writer) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	enc := cellstore.NewEncoder(w, snapMagic)
	enc.U64(snapVersion)
	enc.U64(uint64(s.dims))
	enc.F64(s.eps)
	enc.I64(s.nextID)
	enc.I64s(s.ids)
	enc.I32s(s.slots)

	ds := s.dyn.ExportState()
	enc.F64s(ds.Data)
	enc.I32s(ds.PtCell)
	enc.I32s(ds.FreePts)
	enc.Bools(ds.CellPresent)
	enc.Bools(ds.CellAlive)
	enc.I64s(ds.CellAbs)
	enc.I32s(ds.CellPtsOff)
	enc.I32s(ds.CellPtsFlat)
	enc.I32s(ds.FreeCells)
	enc.I32s(ds.DeadPending)
	enc.I32s(ds.Dirty)

	is := s.inc.ExportState()
	enc.Bool(is.Valid)
	enc.I64(int64(is.MinPts))
	enc.Bools(is.CoreFlags)
	enc.I32s(is.EdgeOff)
	enc.I32s(is.EdgeH)
	enc.Bools(is.EdgeConn)
	enc.I64(int64(is.EdgeKind))
	enc.F64(is.EdgeRho)
	return enc.Flush()
}

// RestoreStreaming rebuilds a StreamingClusterer from a Snapshot stream. The
// restored clusterer is fully warm: point ids are preserved (LabelOf keys
// keep working, new Inserts continue the id sequence), pending mutations are
// still pending, and the incremental caches carry over — the next Run costs
// what it would have cost without the restart, up to a lazy quadtree rebuild
// and one pass of grid-side geometry.
//
// The stream is validated structurally and by checksum; a truncated,
// bit-flipped, or wrong-version stream returns an error.
func RestoreStreaming(r io.Reader) (*StreamingClusterer, error) {
	dec, err := cellstore.NewDecoder(r, snapMagic)
	if err != nil {
		return nil, err
	}
	if v := dec.U64(); dec.Err() == nil && v != snapVersion {
		return nil, fmt.Errorf("pdbscan: unsupported snapshot version %d (want %d)", v, snapVersion)
	}
	dims := int(dec.U64())
	eps := dec.F64()
	nextID := dec.I64()
	ids := dec.I64s()
	slots := dec.I32s()

	ds := &grid.DynamicState{
		Dims: dims,
		Eps:  eps,
	}
	ds.Data = dec.F64s()
	ds.PtCell = dec.I32s()
	ds.FreePts = dec.I32s()
	ds.CellPresent = dec.Bools()
	ds.CellAlive = dec.Bools()
	ds.CellAbs = dec.I64s()
	ds.CellPtsOff = dec.I32s()
	ds.CellPtsFlat = dec.I32s()
	ds.FreeCells = dec.I32s()
	ds.DeadPending = dec.I32s()
	ds.Dirty = dec.I32s()

	is := &core.IncrementalState{}
	is.Valid = dec.Bool()
	is.MinPts = int(dec.I64())
	is.CoreFlags = dec.Bools()
	is.EdgeOff = dec.I32s()
	is.EdgeH = dec.I32s()
	is.EdgeConn = dec.Bools()
	is.EdgeKind = int(dec.I64())
	is.EdgeRho = dec.F64()
	if err := dec.Verify(); err != nil {
		return nil, err
	}

	dyn, err := grid.RestoreDynamic(ds)
	if err != nil {
		return nil, err
	}
	inc, err := core.RestoreIncremental(is)
	if err != nil {
		return nil, err
	}

	// The id table must name live point slots bijectively, in ascending id
	// order, below the id counter.
	if len(ids) != len(slots) || len(ids) != dyn.NumPoints() {
		return nil, fmt.Errorf("pdbscan: snapshot lists %d ids for %d slots and %d live points", len(ids), len(slots), dyn.NumPoints())
	}
	if !slices.IsSorted(ids) || (len(ids) > 0 && (ids[0] < 0 || ids[len(ids)-1] >= nextID)) {
		return nil, fmt.Errorf("pdbscan: snapshot id sequence invalid")
	}
	slotOf := make(map[int64]int32, len(ids))
	for k, id := range ids {
		slot := slots[k]
		if slot < 0 || int(slot) >= dyn.NumPointSlots() {
			return nil, fmt.Errorf("pdbscan: snapshot id %d names point slot %d of %d", id, slot, dyn.NumPointSlots())
		}
		if _, dup := slotOf[id]; dup {
			return nil, fmt.Errorf("pdbscan: snapshot repeats id %d", id)
		}
		slotOf[id] = slot
	}

	return &StreamingClusterer{
		dims:   dims,
		eps:    eps,
		dyn:    dyn,
		inc:    inc,
		arena:  core.NewArena(),
		ids:    ids,
		slots:  slots,
		slotOf: slotOf,
		nextID: nextID,
	}, nil
}
