package grid

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"pdbscan/internal/geom"
	"pdbscan/internal/parallel"
)

func randomPoints(n, d int, scale float64, seed int64) geom.Points {
	rng := rand.New(rand.NewSource(seed))
	data := make([]float64, n*d)
	for i := range data {
		data[i] = rng.Float64() * scale
	}
	return geom.Points{N: n, D: d, Data: data}
}

// checkPartition verifies the cell structure invariants shared by both
// constructions.
func checkPartition(t *testing.T, c *Cells) {
	t.Helper()
	n := c.Pts.N
	if len(c.Order) != n || len(c.CellOf) != n {
		t.Fatalf("order/cellOf length mismatch")
	}
	seen := make([]bool, n)
	for g := 0; g < c.NumCells(); g++ {
		for _, p := range c.PointsOf(g) {
			if seen[p] {
				t.Fatalf("point %d in two cells", p)
			}
			seen[p] = true
			if c.CellOf[p] != int32(g) {
				t.Fatalf("CellOf[%d] = %d, want %d", p, c.CellOf[p], g)
			}
		}
	}
	for i, s := range seen {
		if !s {
			t.Fatalf("point %d in no cell", i)
		}
	}
	// Cell diameter must be at most eps (the defining cell property).
	for g := 0; g < c.NumCells(); g++ {
		lo, hi := c.CellBox(g)
		var diag float64
		for j := range lo {
			d := hi[j] - lo[j]
			diag += d * d
		}
		if diag > c.Eps*c.Eps*(1+1e-9) {
			t.Fatalf("cell %d diameter %v exceeds eps %v", g, math.Sqrt(diag), c.Eps)
		}
		// Bounding boxes must actually bound the points.
		for _, p := range c.PointsOf(g) {
			row := c.Pts.At(int(p))
			for j, v := range row {
				if v < lo[j]-1e-12 || v > hi[j]+1e-12 {
					t.Fatalf("cell %d: point %d outside bbox", g, p)
				}
			}
		}
	}
}

// checkNeighbors verifies that Neighbors is a superset of the pairs of cells
// that contain points within eps of each other, and excludes self.
func checkNeighbors(t *testing.T, c *Cells) {
	t.Helper()
	eps2 := c.Eps * c.Eps
	isNbr := make([]map[int32]bool, c.NumCells())
	for g := range isNbr {
		isNbr[g] = map[int32]bool{}
		for _, h := range c.Neighbors[g] {
			if int(h) == g {
				t.Fatalf("cell %d lists itself as neighbor", g)
			}
			isNbr[g][h] = true
		}
	}
	// Brute force point pairs (test sizes are small).
	for i := 0; i < c.Pts.N; i++ {
		for j := i + 1; j < c.Pts.N; j++ {
			if geom.DistSq(c.Pts.At(i), c.Pts.At(j)) <= eps2 {
				gi, gj := c.CellOf[i], c.CellOf[j]
				if gi == gj {
					continue
				}
				if !isNbr[gi][gj] || !isNbr[gj][gi] {
					t.Fatalf("cells %d and %d have points within eps but are not neighbors", gi, gj)
				}
			}
		}
	}
	// Symmetry.
	for g := range isNbr {
		for h := range isNbr[g] {
			if !isNbr[h][int32(g)] {
				t.Fatalf("neighbor relation not symmetric: %d -> %d", g, h)
			}
		}
	}
}

func TestBuildGrid2D(t *testing.T) {
	pts := randomPoints(2000, 2, 100, 1)
	c := BuildGrid(nil, pts, 5.0)
	checkPartition(t, c)
	if math.Abs(c.Side-5.0/math.Sqrt2) > 1e-12 {
		t.Fatalf("side = %v", c.Side)
	}
	c.ComputeNeighborsEnum(nil)
	checkNeighbors(t, c)
}

func TestBuildGridHighDim(t *testing.T) {
	for _, d := range []int{3, 5, 7} {
		pts := randomPoints(1000, d, 50, int64(d))
		c := BuildGrid(nil, pts, 12.0)
		checkPartition(t, c)
		c.ComputeNeighborsKD(nil)
		checkNeighbors(t, c)
	}
}

// neighborLayouts are the point sets the neighbor and lattice-order tests
// run in d dimensions (d >= 1), all with eps 2.
func neighborLayouts(d int) map[string]geom.Points {
	const eps = 2.0
	side := eps / math.Sqrt(float64(d))
	rng := rand.New(rand.NewSource(int64(d)))
	layout := func(n int, coord func(i, j int) float64) geom.Points {
		data := make([]float64, n*d)
		for i := 0; i < n; i++ {
			for j := 0; j < d; j++ {
				data[i*d+j] = coord(i, j)
			}
		}
		return geom.Points{N: n, D: d, Data: data}
	}
	return map[string]geom.Points{
		"uniform": layout(700, func(_, _ int) float64 { return rng.Float64() * 12 }),
		// 40 distinct points, each repeated 15 times.
		"duplicates": layout(600, func(i, j int) float64 {
			return float64((i%40)*7+j*3) * 0.31
		}),
		// Every coordinate a lattice multiple: points sit on cube corners,
		// so corner cubes are exactly eps apart.
		"lattice-aligned": layout(500, func(_, _ int) float64 { return float64(rng.Intn(9)) * side }),
		"negative":        layout(600, func(_, _ int) float64 { return -1 - rng.Float64()*10 }),
		// Two columns far apart on axis 0, spread on the others.
		"far-columns": layout(400, func(i, j int) float64 {
			if j == 0 {
				return 0.25 + float64(i%2)*10000
			}
			return rng.Float64() * 30
		}),
		// Even slabs of axis 0 hold two cells at the ends of the last axis,
		// odd slabs a cell at every last coordinate in between, so each
		// row pointer skips many cells between two cells of its own row.
		"sparse-rows": layout(900, func(i, j int) float64 {
			x := i % 30
			switch {
			case j == 0:
				return (float64(x) + 0.5) * side
			case j < d-1:
				return (float64(i/30%2) + 0.5) * side
			case x%2 == 0:
				return (float64(i/30%2)*25 + 0.5) * side
			}
			return (float64(i/30%26) + 0.5) * side
		}),
		// Cells strung along axis 0 with a gap after every fifth: in 1D one
		// lattice row of 1,000 cells, in higher d 1,000 rows of one cell,
		// so a sweep over a third of them spans several blocks.
		"line": layout(1000, func(i, j int) float64 {
			if j == 0 {
				return (float64(i+i/5) + 0.5) * side
			}
			return 0.5 * side
		}),
	}
}

// TestGridEnumAndKDAgree: on every layout in d = 1-4, the row sweep gives the
// k-d lists slice for slice, ascending, and lists every cell pair holding
// points within eps; a fill over a contiguous id range gives the full fill's
// lists for the listed cells and nil elsewhere. Four workers cut the larger
// sweeps into several blocks on any host.
func TestGridEnumAndKDAgree(t *testing.T) {
	ex := parallel.NewPool(4)
	for d := 1; d <= 4; d++ {
		for name, pts := range neighborLayouts(d) {
			t.Run(fmt.Sprintf("%s/d=%d", name, d), func(t *testing.T) {
				c := BuildGrid(nil, pts, 2.0)
				c.ComputeNeighborsEnum(ex)
				checkNeighbors(t, c)
				kd := BuildGrid(nil, pts, 2.0)
				kd.ComputeNeighborsKD(nil)
				for g := range c.Neighbors {
					if !slices.IsSorted(c.Neighbors[g]) || !slices.Equal(c.Neighbors[g], kd.Neighbors[g]) {
						t.Fatalf("cell %d: sweep %v, k-d %v", g, c.Neighbors[g], kd.Neighbors[g])
					}
				}

				lo, hi := c.NumCells()/3, 2*c.NumCells()/3+1
				var listed []int32
				for g := lo; g < hi; g++ {
					listed = append(listed, int32(g))
				}
				part := BuildGrid(nil, pts, 2.0)
				part.fillNeighbors(ex, listed, false)
				for g, got := range part.Neighbors {
					listed := g >= lo && g < hi
					if (listed && !slices.Equal(got, c.Neighbors[g])) || (!listed && got != nil) {
						t.Fatalf("fill of [%d,%d): cell %d got %v, full fill %v", lo, hi, g, got, c.Neighbors[g])
					}
				}
			})
		}
	}
}

// TestLatticeOrder: BuildGrid numbers its cells strictly ascending in lattice
// order with MakePartition's split axis primary, so every shard owns a
// contiguous id range.
func TestLatticeOrder(t *testing.T) {
	for d := 1; d <= 4; d++ {
		for name, pts := range neighborLayouts(d) {
			c := BuildGrid(nil, pts, 2.0)
			c.ComputeNeighborsEnum(nil)
			p, err := MakePartition(nil, c, 5)
			if err != nil {
				t.Fatal(err)
			}
			if c.axis != p.Axis {
				t.Fatalf("%s d=%d: cells ordered by axis %d, partition cut along %d", name, d, c.axis, p.Axis)
			}
			key := func(g int) []int64 {
				k := []int64{c.AbsCoord(g, p.Axis)}
				for j := 0; j < d; j++ {
					if j != p.Axis {
						k = append(k, c.AbsCoord(g, j))
					}
				}
				return k
			}
			for g := 1; g < c.NumCells(); g++ {
				if slices.Compare(key(g-1), key(g)) >= 0 {
					t.Fatalf("%s d=%d: cells %d %v and %d %v out of lattice order", name, d, g-1, key(g-1), g, key(g))
				}
			}
			next := int32(0)
			for s, owned := range p.Owned {
				for i, g := range owned {
					if g != next+int32(i) {
						t.Fatalf("%s d=%d: Owned[%d] = %v is not a contiguous id range from %d", name, d, s, owned, next)
					}
				}
				next += int32(len(owned))
			}
		}
	}
}

func TestGridCellCoordsConsistent(t *testing.T) {
	pts := randomPoints(500, 2, 30, 3)
	c := BuildGrid(nil, pts, 3.0)
	for g := 0; g < c.NumCells(); g++ {
		lo, hi := c.GridCube(g)
		for _, p := range c.PointsOf(g) {
			row := c.Pts.At(int(p))
			for j, v := range row {
				if v < lo[j]-1e-9 || v > hi[j]+1e-9 {
					t.Fatalf("cell %d: point outside grid cube", g)
				}
			}
		}
	}
}

func TestGridSinglePoint(t *testing.T) {
	pts, _ := geom.FromRows([][]float64{{1, 1}})
	c := BuildGrid(nil, pts, 1.0)
	if c.NumCells() != 1 || c.CellSize(0) != 1 {
		t.Fatalf("cells = %d size0 = %d", c.NumCells(), c.CellSize(0))
	}
	c.ComputeNeighborsEnum(nil)
	if len(c.Neighbors[0]) != 0 {
		t.Fatal("single cell has neighbors")
	}
}

func TestGridAllSamePoint(t *testing.T) {
	rows := make([][]float64, 1000)
	for i := range rows {
		rows[i] = []float64{5, 5, 5}
	}
	pts, _ := geom.FromRows(rows)
	c := BuildGrid(nil, pts, 2.0)
	if c.NumCells() != 1 {
		t.Fatalf("cells = %d, want 1", c.NumCells())
	}
	if c.CellSize(0) != 1000 {
		t.Fatalf("size = %d, want 1000", c.CellSize(0))
	}
}

func TestBuildBox2D(t *testing.T) {
	pts := randomPoints(2000, 2, 100, 5)
	c := BuildBox2D(nil, pts, 5.0)
	checkPartition(t, c)
	c.ComputeNeighborsBox2D(nil)
	checkNeighbors(t, c)
}

func TestBox2DStripWidth(t *testing.T) {
	pts := randomPoints(3000, 2, 200, 9)
	eps := 7.0
	c := BuildBox2D(nil, pts, eps)
	w := eps / math.Sqrt2
	// Each cell's bbox extent must be at most the strip width in both axes
	// (that is what guarantees diameter <= eps).
	for g := 0; g < c.NumCells(); g++ {
		lo, hi := c.CellBox(g)
		if hi[0]-lo[0] > w+1e-9 || hi[1]-lo[1] > w+1e-9 {
			t.Fatalf("cell %d extent (%v, %v) exceeds width %v",
				g, hi[0]-lo[0], hi[1]-lo[1], w)
		}
	}
}

func TestBox2DMatchesSequentialStripScan(t *testing.T) {
	// Reference: the sequential strip construction of Section 4.2.
	pts := randomPoints(800, 2, 60, 13)
	eps := 4.0
	w := eps / math.Sqrt2
	c := BuildBox2D(nil, pts, eps)

	// Sequential strips over x.
	xs := make([]float64, pts.N)
	idx := make([]int, pts.N)
	for i := range idx {
		idx[i] = i
		xs[i] = pts.At(i)[0]
	}
	// Sort by (x, index) like the parallel code.
	sortByX := func(a, b int) bool {
		if xs[a] != xs[b] {
			return xs[a] < xs[b]
		}
		return a < b
	}
	for i := 1; i < len(idx); i++ { // insertion sort (small n)
		j := i
		for j > 0 && sortByX(idx[j], idx[j-1]) {
			idx[j], idx[j-1] = idx[j-1], idx[j]
			j--
		}
	}
	wantStrip := make([]int, pts.N)
	stripID := -1
	var stripStartX float64
	for k, p := range idx {
		if k == 0 || xs[p] > stripStartX+w {
			stripID++
			stripStartX = xs[p]
		}
		wantStrip[p] = stripID
	}
	// The parallel construction's strip of a point = index of its strip in
	// StripCellStart; recover via cell index.
	gotStrip := make([]int, pts.N)
	for p := 0; p < pts.N; p++ {
		g := int(c.CellOf[p])
		s := 0
		for int(c.StripCellStart[s+1]) <= g {
			s++
		}
		gotStrip[p] = s
	}
	for p := range wantStrip {
		if gotStrip[p] != wantStrip[p] {
			t.Fatalf("point %d: strip %d, want %d", p, gotStrip[p], wantStrip[p])
		}
	}
}

func TestBox2DRequires2D(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for 3D input")
		}
	}()
	BuildBox2D(nil, randomPoints(10, 3, 1, 1), 1.0)
}

func TestGridClusteredData(t *testing.T) {
	// Two tight clusters far apart: their cells must not be neighbors.
	rng := rand.New(rand.NewSource(17))
	rows := [][]float64{}
	for i := 0; i < 100; i++ {
		rows = append(rows, []float64{rng.Float64(), rng.Float64()})
	}
	for i := 0; i < 100; i++ {
		rows = append(rows, []float64{1000 + rng.Float64(), 1000 + rng.Float64()})
	}
	pts, _ := geom.FromRows(rows)
	c := BuildGrid(nil, pts, 2.0)
	c.ComputeNeighborsEnum(nil)
	for g := 0; g < c.NumCells(); g++ {
		glo, _ := c.CellBox(g)
		for _, h := range c.Neighbors[g] {
			hlo, _ := c.CellBox(int(h))
			if (glo[0] < 500) != (hlo[0] < 500) {
				t.Fatal("cells across clusters marked as neighbors")
			}
		}
	}
}
