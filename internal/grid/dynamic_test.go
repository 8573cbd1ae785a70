package grid

import (
	"math/rand"
	"testing"

	"pdbscan/internal/geom"
)

// payloadMatchesOrder checks a snapshot's cell-major payload: one row per
// live point, payload row r equal to Pts row Order[r], and Rows the
// identity.
func payloadMatchesOrder(t *testing.T, c *Cells) {
	t.Helper()
	d := c.Pts.D
	if len(c.Payload) != len(c.Order)*d {
		t.Fatalf("payload holds %d floats for %d points of dimension %d", len(c.Payload), len(c.Order), d)
	}
	if len(c.Rows) != len(c.Order) {
		t.Fatalf("%d payload rows listed for %d points", len(c.Rows), len(c.Order))
	}
	pay := c.PayloadPts()
	for r, p := range c.Order {
		if c.Rows[r] != int32(r) {
			t.Fatalf("Rows[%d] = %d", r, c.Rows[r])
		}
		want, got := c.Pts.At(int(p)), pay.At(r)
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("payload row %d = %v, Pts row %d = %v", r, got, p, want)
			}
		}
	}
}

// snapshotMatchesBuildGrid checks that a Dynamic snapshot partitions its live
// points into exactly the cells BuildGrid produces for the same point set:
// same groups of points, same absolute lattice coordinates, same bounding
// boxes, and equivalent neighbor relations. It also checks the snapshot's
// payload, and that of the unchanged snapshot a second call returns.
func snapshotMatchesBuildGrid(t *testing.T, dy *Dynamic, live []int32) {
	t.Helper()
	snap, _, err := dy.Snapshot(nil)
	if err != nil {
		t.Fatal(err)
	}
	payloadMatchesOrder(t, snap)
	again, _, err := dy.Snapshot(nil)
	if err != nil {
		t.Fatal(err)
	}
	if again != snap {
		t.Fatal("unmutated snapshot not reused")
	}
	payloadMatchesOrder(t, again)
	if len(live) == 0 {
		return
	}
	d := dy.Dims()
	data := make([]float64, 0, len(live)*d)
	for _, p := range live {
		data = append(data, dy.PointAt(p)...)
	}
	ref := BuildGrid(nil, geom.Points{N: len(live), D: d, Data: data}, dy.Eps())
	ref.ComputeNeighbors(nil, nil)

	// Map each live point to its reference cell via absolute coordinates and
	// check the snapshot agrees cell-for-cell.
	type cellInfo struct {
		pts  map[int32]bool // snapshot point slots
		refG int32
	}
	byKey := map[string]*cellInfo{}
	for i, p := range live {
		g := ref.CellOf[i]
		abs := make([]int64, d)
		for j := 0; j < d; j++ {
			abs[j] = ref.Anchor[j] + int64(ref.Coords[int(g)*d+j])
		}
		k := absKey(abs)
		ci := byKey[k]
		if ci == nil {
			ci = &cellInfo{pts: map[int32]bool{}, refG: g}
			byKey[k] = ci
		}
		ci.pts[p] = true
	}
	seen := 0
	for g := 0; g < snap.NumCells(); g++ {
		if snap.CellSize(g) == 0 {
			continue
		}
		seen++
		abs := make([]int64, d)
		for j := 0; j < d; j++ {
			abs[j] = snap.AbsCoord(g, j)
		}
		ci := byKey[absKey(abs)]
		if ci == nil {
			t.Fatalf("snapshot cell %d at %v has no reference cell", g, abs)
		}
		if snap.CellSize(g) != len(ci.pts) {
			t.Fatalf("cell %d: %d points, reference has %d", g, snap.CellSize(g), len(ci.pts))
		}
		for _, p := range snap.PointsOf(g) {
			if !ci.pts[p] {
				t.Fatalf("cell %d contains unexpected point slot %d", g, p)
			}
		}
		lo, hi := snap.CellBox(g)
		rLo, rHi := ref.CellBox(int(ci.refG))
		for j := 0; j < d; j++ {
			if lo[j] != rLo[j] || hi[j] != rHi[j] {
				t.Fatalf("cell %d: bbox (%v,%v) != reference (%v,%v)", g, lo, hi, rLo, rHi)
			}
		}
		// Neighbor sets must agree as absolute-coordinate sets.
		refNbrs := map[string]bool{}
		for _, h := range ref.Neighbors[ci.refG] {
			habs := make([]int64, d)
			for j := 0; j < d; j++ {
				habs[j] = ref.Anchor[j] + int64(ref.Coords[int(h)*d+j])
			}
			refNbrs[absKey(habs)] = true
		}
		if len(snap.Neighbors[g]) != len(refNbrs) {
			t.Fatalf("cell %d: %d neighbors, reference has %d", g, len(snap.Neighbors[g]), len(refNbrs))
		}
		for _, h := range snap.Neighbors[g] {
			habs := make([]int64, d)
			for j := 0; j < d; j++ {
				habs[j] = snap.AbsCoord(int(h), j)
			}
			if !refNbrs[absKey(habs)] {
				t.Fatalf("cell %d: neighbor %d not in reference neighbor set", g, h)
			}
		}
	}
	if seen != ref.NumCells() {
		t.Fatalf("snapshot has %d non-empty cells, reference %d", seen, ref.NumCells())
	}
}

func TestDynamicMatchesBuildGridUnderMutations(t *testing.T) {
	for _, d := range []int{1, 2, 3, 5} {
		rng := rand.New(rand.NewSource(int64(10 + d)))
		dy := NewDynamic(d, 2.5)
		var live []int32
		randRow := func() []float64 {
			row := make([]float64, d)
			for j := range row {
				row[j] = rng.Float64()*30 - 10
			}
			return row
		}
		for i := 0; i < 120; i++ {
			live = append(live, dy.Insert(randRow()))
		}
		snapshotMatchesBuildGrid(t, dy, live)
		for step := 0; step < 10; step++ {
			for i := 0; i < 15; i++ {
				switch {
				case len(live) > 0 && rng.Intn(2) == 0:
					k := rng.Intn(len(live))
					dy.Remove(live[k])
					live[k] = live[len(live)-1]
					live = live[:len(live)-1]
				default:
					live = append(live, dy.Insert(randRow()))
				}
			}
			snapshotMatchesBuildGrid(t, dy, live)
		}
		// The first snapshot after a restore rebuilds the grid-side state
		// with no previous snapshot to copy from.
		live = append(live, dy.Insert(randRow()))
		restored, err := RestoreDynamic(dy.ExportState())
		if err != nil {
			t.Fatal(err)
		}
		snapshotMatchesBuildGrid(t, restored, live)
	}
}

func TestDynamicDirtySetIsLocal(t *testing.T) {
	dy := NewDynamic(2, 1.0)
	// Two well-separated blobs of points.
	var left, right []int32
	for i := 0; i < 50; i++ {
		left = append(left, dy.Insert([]float64{float64(i%5) * 0.2, float64(i/5) * 0.1}))
		right = append(right, dy.Insert([]float64{100 + float64(i%5)*0.2, float64(i/5) * 0.1}))
	}
	snap1, info1, err := dy.Snapshot(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !info1.Full {
		t.Fatal("first snapshot should be Full")
	}

	// No mutations: same snapshot, nothing affected.
	snap1b, info1b, _ := dy.Snapshot(nil)
	if snap1b != snap1 {
		t.Fatal("unmutated snapshot not reused")
	}
	if info1b.NumAffected != 0 || info1b.Full {
		t.Fatalf("unmutated snapshot reports dirt: %+v", info1b)
	}

	// Mutate the right blob only: the left blob's cells must be unaffected
	// and keep their neighbor list slices (pointer identity).
	leftCells := map[int32][]int32{}
	for _, p := range left {
		g := snap1.CellOf[p]
		leftCells[g] = snap1.Neighbors[g]
	}
	dy.Remove(right[0])
	dy.Insert([]float64{101, 3})
	snap2, info2, err := dy.Snapshot(nil)
	if err != nil {
		t.Fatal(err)
	}
	if info2.Full {
		t.Fatal("incremental snapshot reported Full")
	}
	if info2.NumAffected == 0 {
		t.Fatal("mutations reported no affected cells")
	}
	for g, nbrs := range leftCells {
		if info2.Affected[g] {
			t.Fatalf("left-blob cell %d affected by right-blob mutations", g)
		}
		if len(snap2.Neighbors[g]) != len(nbrs) || (len(nbrs) > 0 && &snap2.Neighbors[g][0] != &nbrs[0]) {
			t.Fatalf("left-blob cell %d neighbor list not reused", g)
		}
	}
	// Every affected cell must be on the mutated (right) side.
	for g := 0; g < snap2.NumCells(); g++ {
		if info2.Affected[g] && snap2.CellSize(g) > 0 && snap2.BBLo[g*2] < 50 {
			t.Fatalf("left-side cell %d affected by right-blob mutations", g)
		}
	}
}

func TestDynamicCellSlotReuse(t *testing.T) {
	dy := NewDynamic(2, 1.0)
	p := dy.Insert([]float64{5, 5})
	if _, _, err := dy.Snapshot(nil); err != nil {
		t.Fatal(err)
	}
	dy.Remove(p)
	if _, _, err := dy.Snapshot(nil); err != nil {
		t.Fatal(err)
	}
	// The freed cell slot is reused by the next cell, wherever it is.
	q := dy.Insert([]float64{42, -7})
	snap, _, err := dy.Snapshot(nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := snap.CellOf[q]; got != 0 {
		t.Fatalf("cell slot not reused: new point in cell %d", got)
	}
	if dy.NumPoints() != 1 {
		t.Fatalf("NumPoints = %d, want 1", dy.NumPoints())
	}
	// Point slot reused too.
	if q != p {
		t.Fatalf("point slot not reused: %d vs %d", q, p)
	}
}

func TestDynamicEmpty(t *testing.T) {
	dy := NewDynamic(3, 2.0)
	snap, info, err := dy.Snapshot(nil)
	if err != nil {
		t.Fatal(err)
	}
	if snap.NumCells() != 0 || !info.Full {
		t.Fatalf("empty snapshot: cells=%d full=%v", snap.NumCells(), info.Full)
	}
	p := dy.Insert([]float64{1, 2, 3})
	dy.Remove(p)
	snap, _, err = dy.Snapshot(nil)
	if err != nil {
		t.Fatal(err)
	}
	for g := 0; g < snap.NumCells(); g++ {
		if snap.CellSize(g) != 0 {
			t.Fatalf("cell %d not empty after removing all points", g)
		}
	}
}
