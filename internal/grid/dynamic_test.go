package grid

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
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
	for _, d := range []int{1, 2, 3, 4, 5} {
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

// bruteNeighbors lists, in slot order, the alive cells whose cubes pass
// enumNeighborsOf's exact cube test against the cube at abs, except exclude,
// by scanning every cell slot.
func bruteNeighbors(dy *Dynamic, abs []int64, exclude int32) []int32 {
	d := dy.Dims()
	eps2 := dy.eps * dy.eps * (1 + 1e-12)
	k := geom.NewKernel(geom.Points{D: d})
	gLo, gHi := make([]float64, d), make([]float64, d)
	hLo, hHi := make([]float64, d), make([]float64, d)
	absCubeInto(abs, dy.side, gLo, gHi)
	var out []int32
	for h, alive := range dy.cellAlive {
		if !alive || int32(h) == exclude {
			continue
		}
		absCubeInto(dy.cellAbs[h], dy.side, hLo, hHi)
		if k.BoxBoxDistSq(gLo, gHi, hLo, hHi) <= eps2 {
			out = append(out, int32(h))
		}
	}
	return out
}

// TestDynamicProbesMatchBruteForce: in d = 1-5, on every neighbor layout, the
// key2cell probes list for each alive cell exactly the alive cells a scan of
// every cell keeps under the same exact cube test. The lattice-aligned
// layouts put corner cubes exactly eps apart, and d = 4 probes out to its
// perfect-square reach √d+1. A vacated coordinate is probed too, with the
// emptied cell excluded: as is, and after a new cell is born there, which
// must then be listed.
func TestDynamicProbesMatchBruteForce(t *testing.T) {
	for d := 1; d <= 5; d++ {
		for name, pts := range neighborLayouts(d) {
			t.Run(fmt.Sprintf("%s/d=%d", name, d), func(t *testing.T) {
				t.Parallel()
				dy := NewDynamic(d, 2.0)
				for i := 0; i < pts.N; i++ {
					dy.Insert(pts.At(i))
				}
				if _, _, err := dy.Snapshot(nil); err != nil {
					t.Fatal(err)
				}
				probe := func(abs []int64, exclude int32) []int32 {
					t.Helper()
					got, want := dy.enumNeighborsOf(abs, exclude), bruteNeighbors(dy, abs, exclude)
					if !slices.Equal(got, want) {
						t.Fatalf("probes around %v (excluding %d) list %v, the scan %v", abs, exclude, got, want)
					}
					return got
				}
				for g, alive := range dy.cellAlive {
					if alive {
						probe(dy.cellAbs[g], int32(g))
					}
				}

				// Empty the first point's cell; it keeps its slot and its
				// coordinates until the next snapshot.
				const g = 0
				abs := slices.Clone(dy.cellAbs[g])
				row := slices.Clone(dy.PointAt(dy.cellPts[g][0]))
				for len(dy.cellPts[g]) > 0 {
					dy.Remove(dy.cellPts[g][0])
				}
				probe(abs, g)
				h := dy.ptCell[dy.Insert(row)]
				if h == g {
					t.Fatalf("cell slot %d reused before the snapshot that retires it", g)
				}
				if !slices.Contains(probe(abs, g), h) {
					t.Fatalf("cell %d, born at the vacated %v, not listed", h, abs)
				}
			})
		}
	}
}

// TestDynamicRemoveInsertAllocFree: removing a point from a cell that keeps
// other points and inserting it again finds the cell in key2cell without
// allocating.
func TestDynamicRemoveInsertAllocFree(t *testing.T) {
	dy := NewDynamic(2, 1.0)
	row := []float64{0.25, 0.25}
	for i := 0; i < 4; i++ {
		dy.Insert(row)
	}
	p := dy.Insert(row)
	allocs := testing.AllocsPerRun(100, func() {
		dy.Remove(p)
		p = dy.Insert(row)
	})
	if allocs != 0 {
		t.Fatalf("Remove plus Insert into a kept cell: %v allocations, want 0", allocs)
	}
}

// TestRestoreDynamicRejectsTamperedState: each row tampers a valid export so
// that a slot gets two owners, or a live point lies where its cell cannot
// hold it, or a cell's coordinates leave the exact lattice, and
// RestoreDynamic must refuse it with the named error. Each row breaks one
// invariant only: the row that puts two alive cells at one coordinate moves
// the second cell's points along, so they still lie in their cell.
func TestRestoreDynamicRejectsTamperedState(t *testing.T) {
	dy := NewDynamic(2, 1.0)
	side := dy.side
	var a, b []int32 // point slots of two cells with several points each
	for _, row := range [][]float64{{0.1, 0.1}, {0.2, 0.3}, {0.3, 0.2}} {
		a = append(a, dy.Insert(row))
	}
	for _, row := range [][]float64{{1.0, 0.1}, {1.1, 0.3}} {
		b = append(b, dy.Insert(row))
	}
	lone := dy.Insert([]float64{5.1, 5.1})
	freed := dy.Insert([]float64{-3, -3})
	dying := dy.Insert([]float64{3, -3})
	gA, gB, gLone, gDying := dy.ptCell[a[0]], dy.ptCell[b[0]], dy.ptCell[lone], dy.ptCell[dying]
	if _, _, err := dy.Snapshot(nil); err != nil {
		t.Fatal(err)
	}
	dy.Remove(freed)
	if _, _, err := dy.Snapshot(nil); err != nil { // retires freed's cell slot
		t.Fatal(err)
	}
	dy.Remove(dying) // its cell slot stays pending until the next snapshot
	dy.Remove(a[2])
	valid := dy.ExportState()
	if len(valid.FreePts) == 0 || len(valid.FreeCells) == 0 || len(valid.DeadPending) == 0 {
		t.Fatalf("setup: free points %v, free cells %v, dead-pending %v", valid.FreePts, valid.FreeCells, valid.DeadPending)
	}
	if _, err := RestoreDynamic(valid); err != nil {
		t.Fatalf("valid state rejected: %v", err)
	}

	d := dy.Dims()
	for _, tc := range []struct {
		name, want string
		tamper     func(st *DynamicState)
	}{
		{"free point slot twice", "free point slot", func(st *DynamicState) {
			st.FreePts = append(st.FreePts, st.FreePts[0])
		}},
		{"free cell slot twice", "free cell slot", func(st *DynamicState) {
			st.FreeCells = append(st.FreeCells, st.FreeCells[0])
		}},
		{"dead-pending slot twice", "dead-pending cell slot", func(st *DynamicState) {
			st.DeadPending = append(st.DeadPending, st.DeadPending[0])
		}},
		{"two alive cells at one coordinate", "share lattice coordinates", func(st *DynamicState) {
			copy(st.CellAbs[int(gB)*d:], st.CellAbs[int(gA)*d:int(gA+1)*d])
			for _, p := range b {
				copy(st.Data[int(p)*d:], st.Data[int(a[0])*d:int(a[0]+1)*d])
			}
		}},
		{"NaN coordinate", "non-finite", func(st *DynamicState) { st.Data[int(a[0])*d] = math.NaN() }},
		{"infinite coordinate", "non-finite", func(st *DynamicState) { st.Data[int(a[0])*d+1] = math.Inf(-1) }},
		{"point beyond the exact lattice", "non-finite or beyond", func(st *DynamicState) {
			// The lone point's cell moves with it, so only the range is wrong.
			v := MaxExactCells * side
			st.Data[int(lone)*d] = v
			st.CellAbs[int(gLone)*d] = CellCoord(v, side)
		}},
		{"point outside its cell", "outside its cell", func(st *DynamicState) { st.Data[int(a[1])*d] += 10 }},
		{"dead cell beyond the exact lattice", "lattice coordinates", func(st *DynamicState) {
			st.CellAbs[int(gDying)*d] = math.MaxInt64
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := dy.ExportState()
			tc.tamper(st)
			_, err := RestoreDynamic(st)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("RestoreDynamic: %v, want an error containing %q", err, tc.want)
			}
		})
	}
}
