package core

import (
	"math"
	"testing"

	"pdbscan/internal/geom"
	"pdbscan/internal/grid"
)

// FuzzMarkCore checks MarkCore's core flags against brute-force counts. The
// points sit on a coarse lattice of step 1/2 and eps is 1, √2, √3 or 2, so
// squared distances are exact, many point pairs lie exactly at eps, and
// cells hold several lattice points, so their point boxes have corners
// exactly at eps from other points: neither the visit order nor a
// whole-cell count may change a flag there. Run is checked on every layout
// (2D box cells and a sample mask included), RunSharded whenever the
// partition has more than one shard.
func FuzzMarkCore(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 0, 1, 1, 1, 2, 2, 3, 3, 2, 3, 7, 7, 6, 7}, uint8(1), uint8(3), uint8(2))
	f.Add([]byte{0, 0, 0, 1, 1, 1, 2, 2, 2, 1, 2, 3, 3, 2, 1, 0, 1, 0, 5, 5, 5}, uint8(4), uint8(5), uint8(3))
	f.Add([]byte{1, 2, 3, 4, 5, 2, 3, 4, 5, 6, 3, 3, 3, 3, 3, 0, 1, 0, 1, 0, 7, 7, 7, 7, 6}, uint8(38), uint8(1), uint8(4))
	// 3D, eps √3 (eps*eps rounds just below 3), minPts 3: the point
	// (.5,.5,.5) has one neighbor, (1,1,1), within eps; the far corner of
	// that cell's box, (1.5,1.5,1.5), lies exactly √3 away and must not
	// count, so the cell may not be added whole.
	f.Add([]byte{1, 1, 1, 2, 2, 2, 3, 3, 3}, uint8(7), uint8(2), uint8(0))
	f.Fuzz(func(t *testing.T, raw []byte, shape, minPtsQ, shardsQ uint8) {
		d := []int{2, 3, 5}[shape%3]
		eps := math.Sqrt(float64(1 + (shape/3)%4))
		mark := []MarkStrategy{MarkScan, MarkQuadtree}[(shape/12)%2]
		box := d == 2 && (shape/24)%2 == 1
		sampled := (shape/48)%2 == 1
		minPts := 1 + int(minPtsQ)%12
		n := min(len(raw)/d, 120)
		if n == 0 {
			return
		}
		data := make([]float64, n*d)
		for i := range data {
			data[i] = float64(raw[i]%10) / 2
		}
		pts := geom.Points{N: n, D: d, Data: data}

		var cells *grid.Cells
		if box {
			cells = grid.BuildBox2D(nil, pts, eps)
			cells.ComputeNeighborsBox2D(nil)
		} else {
			cells = grid.BuildGrid(nil, pts, eps)
			cells.ComputeNeighbors(nil, nil)
		}
		var sample []bool
		if sampled {
			sample = make([]bool, n)
			for i := range sample {
				sample[i] = raw[i]%3 != 0
			}
		}
		eps2 := cells.Eps * cells.Eps // the pipeline's threshold
		want := make([]bool, n)
		for i := range want {
			count := 0
			for j := 0; j < n; j++ {
				if geom.DistSq(pts.At(i), pts.At(j)) <= eps2 {
					count++
				}
			}
			want[i] = count >= minPts && (sample == nil || sample[i])
		}
		check := func(what string, core []bool) {
			t.Helper()
			for i := range want {
				if core[i] != want[i] {
					t.Fatalf("%s d=%d eps=%v minPts=%d mark=%d box=%v sampled=%v: point %d %v core=%v, want %v",
						what, d, eps, minPts, mark, box, sampled, i, pts.At(i), core[i], want[i])
				}
			}
		}

		p := Params{MinPts: minPts, Mark: mark, Sample: sample}
		res, err := Run(cells, p)
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		check("Run", res.Core)
		if box || sampled {
			return // sharded runs take neither
		}
		part, err := grid.MakePartition(nil, cells, 2+int(shardsQ)%5)
		if err != nil {
			t.Fatalf("MakePartition: %v", err)
		}
		if len(part.Owned) < 2 {
			return
		}
		res, err = RunSharded(cells, p, part)
		if err != nil {
			t.Fatalf("RunSharded: %v", err)
		}
		check("RunSharded", res.Core)
	})
}
