package core

import (
	"fmt"
	"math/rand"
	"testing"

	"pdbscan/internal/geom"
	"pdbscan/internal/grid"
)

// TestRunIncrementalMatchesRun ticks a Dynamic through inserts, random
// removes (freed point slots, dying and reborn cells) and one MinPts change,
// and holds every RunIncremental Result to Run on the same snapshot cells
// bit for bit: labels, core flags, border map and cluster count. Every freed
// point slot must read label -1 and core false.
func TestRunIncrementalMatchesRun(t *testing.T) {
	for _, tc := range []struct {
		name string
		p    Params
	}{
		{"bcp", Params{Graph: GraphBCP}},
		{"approx", Params{Graph: GraphApprox, Rho: 0.1}},
		{"quadtree-mark", Params{Mark: MarkQuadtree, Graph: GraphBCP}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Blobs on a 6x6 lattice, close enough that neighboring clusters
			// share border points.
			rng := rand.New(rand.NewSource(5))
			pts := geom.Points{N: 6000, D: 2, Data: make([]float64, 2*6000)}
			for i := range pts.N {
				cx, cy := float64(rng.Intn(6))*6, float64(rng.Intn(6))*6
				pts.Data[2*i] = cx + rng.NormFloat64()*1.5
				pts.Data[2*i+1] = cy + rng.NormFloat64()*1.5
			}
			dyn := grid.NewDynamic(2, 1.0)
			var live []int32 // point slots of the live points
			next := 0        // next point of pts to insert
			insert := func(k int) {
				for ; k > 0 && next < pts.N; k-- {
					live = append(live, dyn.Insert(pts.At(next)))
					next++
				}
			}
			insert(2000)
			inc := NewIncremental()
			arena := NewArena()
			freed, dying, multi := 0, 0, 0
			for tick := range 12 {
				for range 200 {
					i := rng.Intn(len(live))
					dyn.Remove(live[i])
					live[i] = live[len(live)-1]
					live = live[:len(live)-1]
				}
				// Point slots are reused at once, so only the ticks that insert
				// fewer points than they remove leave freed slots.
				insert(100 + 200*(tick%2))
				cells, dirty, err := dyn.Snapshot(nil)
				if err != nil {
					t.Fatal(err)
				}
				p := tc.p
				p.MinPts = 10
				if tick >= 6 {
					p.MinPts = 7
				}
				p.Arena = arena
				got, err := RunIncremental(cells, p, inc, dirty)
				if err != nil {
					t.Fatal(err)
				}
				want, err := Run(cells, p)
				if err != nil {
					t.Fatal(err)
				}
				sameCoreResult(t, got, want, fmt.Sprintf("tick %d", tick))
				multi += len(got.Border)
				for i, g := range cells.CellOf {
					if g < 0 {
						freed++
						if got.Labels[i] != -1 || got.Core[i] {
							t.Fatalf("tick %d: freed slot %d reads label %d, core %v", tick, i, got.Labels[i], got.Core[i])
						}
					}
				}
				for g := range cells.NumCells() {
					if cells.CellSize(g) == 0 {
						dying++
					}
				}
			}
			if freed == 0 || dying == 0 || multi == 0 {
				t.Fatalf("ticks saw %d freed point slots, %d empty cell slots and %d multi-cluster border points; the test needs each", freed, dying, multi)
			}
		})
	}
}
