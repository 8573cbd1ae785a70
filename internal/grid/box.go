package grid

import (
	"math"
	"sort"
	"sync/atomic"

	"pdbscan/internal/geom"
	"pdbscan/internal/parallel"
	"pdbscan/internal/prim"
)

// BuildBox2D implements the box method of Section 4.2 (2D only): sort points
// by x; group them into strips of width at most eps/sqrt(2) using the
// parent-pointer + pointer-jumping construction of Figure 2; then, within
// each strip, repeat the procedure on y to obtain the box cells. O(n log n)
// work, polylogarithmic depth. The executor ex sizes every parallel step
// (nil = default pool).
func BuildBox2D(ex *parallel.Pool, pts geom.Points, eps float64) *Cells {
	if pts.D != 2 {
		panic("grid.BuildBox2D: requires 2-dimensional points")
	}
	n := pts.N
	w := eps / math.Sqrt2

	// Sort point indices by x (ties by index for determinism).
	order := make([]int32, n)
	ex.For(n, func(i int) { order[i] = int32(i) })
	xOf := func(i int32) float64 { return pts.Data[2*int(i)] }
	yOf := func(i int32) float64 { return pts.Data[2*int(i)+1] }
	prim.Sort(ex, order, func(a, b int32) bool {
		xa, xb := xOf(a), xOf(b)
		if xa != xb {
			return xa < xb
		}
		return a < b
	})

	// Strip starts over the x-sorted sequence.
	stripOfPos := chainMarks(ex, n, func(i int) float64 { return xOf(order[i]) }, w)
	numStrips := int(stripOfPos[n-1]) + 1

	// Strip boundaries in the sorted order (strip ids are non-decreasing).
	stripStart := make([]int32, numStrips+1)
	ex.For(n, func(i int) {
		if i == 0 || stripOfPos[i] != stripOfPos[i-1] {
			stripStart[stripOfPos[i]] = int32(i)
		}
	})
	stripStart[numStrips] = int32(n)

	// Within each strip, sort by y and split into cells with the same chain
	// procedure. Cells are numbered strip-major; record per-strip cell count
	// first, then assign global cell ids with a prefix sum.
	cellsPerStrip := make([]int, numStrips)
	cellOfPosLocal := make([]int32, n) // cell id local to the strip, per sorted position
	ex.ForGrain(numStrips, 1, func(s int) {
		lo, hi := int(stripStart[s]), int(stripStart[s+1])
		sub := order[lo:hi]
		sort.Slice(sub, func(a, b int) bool {
			ya, yb := yOf(sub[a]), yOf(sub[b])
			if ya != yb {
				return ya < yb
			}
			return sub[a] < sub[b]
		})
		local := chainMarks(ex, hi-lo, func(i int) float64 { return yOf(sub[i]) }, w)
		copy(cellOfPosLocal[lo:hi], local)
		cellsPerStrip[s] = int(local[hi-lo-1]) + 1
	})
	totalCells := prim.PrefixSumInPlace(ex, cellsPerStrip)

	c := &Cells{
		Pts:            pts,
		Eps:            eps,
		Side:           w,
		Order:          order,
		CellStart:      make([]int32, totalCells+1),
		CellOf:         make([]int32, n),
		BBLo:           make([]float64, totalCells*2),
		BBHi:           make([]float64, totalCells*2),
		StripCellStart: make([]int32, numStrips+1),
	}
	for s := 0; s < numStrips; s++ {
		c.StripCellStart[s] = int32(cellsPerStrip[s])
	}
	c.StripCellStart[numStrips] = int32(totalCells)

	ex.ForGrain(numStrips, 1, func(s int) {
		lo, hi := int(stripStart[s]), int(stripStart[s+1])
		base := int32(cellsPerStrip[s])
		for i := lo; i < hi; i++ {
			g := base + cellOfPosLocal[i]
			p := order[i]
			c.CellOf[p] = g
			if i == lo || cellOfPosLocal[i] != cellOfPosLocal[i-1] {
				c.CellStart[g] = int32(i)
			}
		}
	})
	c.CellStart[totalCells] = int32(n)

	// Per-cell bounding boxes.
	ex.ForGrain(totalCells, 1, func(g int) {
		ps := c.PointsOf(g)
		bbLo := c.BBLo[g*2 : g*2+2]
		bbHi := c.BBHi[g*2 : g*2+2]
		copy(bbLo, pts.At(int(ps[0])))
		copy(bbHi, pts.At(int(ps[0])))
		for _, p := range ps[1:] {
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
	})
	c.buildPayload(ex, nil)
	return c
}

// chainMarks implements the strip-finding construction of Figure 2 on a
// sorted coordinate sequence: every position's parent is the first position
// whose coordinate exceeds its own by more than w; position 0 is marked; the
// marks are propagated along the parent chain by pointer jumping; the result
// maps each position to its strip index (marks prefix-summed minus one).
func chainMarks(ex *parallel.Pool, n int, coord func(int) float64, w float64) []int32 {
	if n == 0 {
		return nil
	}
	parent := make([]int32, n)
	ex.For(n, func(i int) {
		// Binary search the sorted sequence for the first position with
		// coordinate > coord(i) + w.
		target := coord(i) + w
		parent[i] = int32(i + sort.Search(n-i, func(k int) bool {
			return coord(i+k) > target
		}))
	})
	marks := make([]int32, n)
	marks[0] = 1
	next := parent // jumped pointers; n is the sentinel "no parent"
	newNext := make([]int32, n)
	// ceil(log2 n) + 1 doubling rounds suffice: after round r every chain
	// node within 2^r hops of position 0 is marked.
	for span := 1; span < 2*n; span *= 2 {
		// Mark phase: every marked node marks its current jump target.
		// Multiple writers may set the same slot; CAS keeps it race-free.
		ex.For(n, func(i int) {
			if atomic.LoadInt32(&marks[i]) == 1 {
				if p := int(next[i]); p < n {
					atomic.CompareAndSwapInt32(&marks[p], 0, 1)
				}
			}
		})
		// Jump phase: newNext[i] = next[next[i]], reading only the old
		// array so the doubling invariant is exact.
		ex.For(n, func(i int) {
			if p := int(next[i]); p < n {
				newNext[i] = next[p]
			} else {
				newNext[i] = int32(n)
			}
		})
		next, newNext = newNext, next
	}
	// Strip index = inclusive prefix sum of marks, minus one. The exclusive
	// prefix sum gives sum of marks[:i]; adding marks[i] and subtracting one
	// yields the inclusive value - 1.
	strip := make([]int32, n)
	prim.PrefixSum(ex, marks, strip)
	ex.For(n, func(i int) {
		strip[i] += marks[i] - 1
	})
	return strip
}

// ComputeNeighborsBox2D fills Neighbors for the box construction: each
// strip s is merged with strips s-2 .. s+2 (Section 4.2), walking the cells
// of both strips in increasing y and linking cells whose point bounding
// boxes are within eps.
func (c *Cells) ComputeNeighborsBox2D(ex *parallel.Pool) {
	numCells := c.NumCells()
	numStrips := len(c.StripCellStart) - 1
	eps2 := c.Eps * c.Eps
	k := geom.NewKernel(c.Pts)
	c.Neighbors = make([][]int32, numCells)
	ex.ForGrain(numStrips, 1, func(s int) {
		gLo, gHi := int(c.StripCellStart[s]), int(c.StripCellStart[s+1])
		// Per-merged-strip advancing window start: cells in every strip are
		// sorted by y, so as g walks up in y the window only moves forward
		// (the parallel-merge structure of Section 4.2).
		var winStart [5]int
		for ds := -2; ds <= 2; ds++ {
			if s2 := s + ds; s2 >= 0 && s2 < numStrips {
				winStart[ds+2] = int(c.StripCellStart[s2])
			}
		}
		for g := gLo; g < gHi; g++ {
			gbLo, gbHi := c.CellBox(g)
			var nbrs []int32
			for ds := -2; ds <= 2; ds++ {
				s2 := s + ds
				if s2 < 0 || s2 >= numStrips {
					continue
				}
				hHi := int(c.StripCellStart[s2+1])
				// Advance past cells entirely below g's y-window.
				h := winStart[ds+2]
				for h < hHi {
					if c.BBHi[h*2+1] >= gbLo[1]-c.Eps {
						break
					}
					h++
				}
				winStart[ds+2] = h
				for ; h < hHi; h++ {
					if c.BBLo[h*2+1] > gbHi[1]+c.Eps {
						break // no later cell in this strip can match
					}
					if h == g {
						continue
					}
					hbLo, hbHi := c.CellBox(h)
					if k.BoxBoxDistSq(gbLo, gbHi, hbLo, hbHi) <= eps2 {
						nbrs = append(nbrs, int32(h))
					}
				}
			}
			sortNeighbors(nbrs)
			c.Neighbors[g] = nbrs
		}
	})
}
