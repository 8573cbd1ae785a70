// Package geom provides the flat point store and distance/box utilities
// shared by every spatial structure in the library. Points are stored
// row-major in a single []float64 for cache efficiency; all algorithms work
// on point *indices* into a Points value.
package geom

import (
	"fmt"
	"math"
)

// Points is an immutable set of n points in d dimensions, stored row-major.
type Points struct {
	N    int       // number of points
	D    int       // dimensionality
	Data []float64 // len N*D, point i at Data[i*D : (i+1)*D]
}

// FromRows builds a Points from a slice of coordinate rows. All rows must
// have the same dimensionality.
func FromRows(rows [][]float64) (Points, error) {
	if len(rows) == 0 {
		return Points{}, fmt.Errorf("geom: empty point set")
	}
	d := len(rows[0])
	if d == 0 {
		return Points{}, fmt.Errorf("geom: zero-dimensional points")
	}
	data := make([]float64, 0, len(rows)*d)
	for i, r := range rows {
		if len(r) != d {
			return Points{}, fmt.Errorf("geom: row %d has %d coords, want %d", i, len(r), d)
		}
		data = append(data, r...)
	}
	return Points{N: len(rows), D: d, Data: data}, nil
}

// At returns point i as a slice view (do not mutate).
func (p Points) At(i int) []float64 {
	return p.Data[i*p.D : (i+1)*p.D : (i+1)*p.D]
}

// Bounds returns the coordinate-wise min and max over all points.
func (p Points) Bounds() (lo, hi []float64) {
	lo = make([]float64, p.D)
	hi = make([]float64, p.D)
	for j := 0; j < p.D; j++ {
		lo[j] = math.Inf(1)
		hi[j] = math.Inf(-1)
	}
	for i := 0; i < p.N; i++ {
		row := p.At(i)
		for j, v := range row {
			if v < lo[j] {
				lo[j] = v
			}
			if v > hi[j] {
				hi[j] = v
			}
		}
	}
	return lo, hi
}

// DistSq returns the squared Euclidean distance between coordinate slices
// a and b (must have equal length).
func DistSq(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// PointBoxDistSq returns the squared distance from point p to the axis-aligned
// box [lo, hi] (zero if p is inside).
func PointBoxDistSq(p, lo, hi []float64) float64 {
	var s float64
	for i := range p {
		if v := p[i]; v < lo[i] {
			d := lo[i] - v
			s += d * d
		} else if v > hi[i] {
			d := v - hi[i]
			s += d * d
		}
	}
	return s
}

// BoxBoxDistSq returns the squared minimum distance between two axis-aligned
// boxes (zero if they intersect).
func BoxBoxDistSq(alo, ahi, blo, bhi []float64) float64 {
	var s float64
	for i := range alo {
		if ahi[i] < blo[i] {
			d := blo[i] - ahi[i]
			s += d * d
		} else if bhi[i] < alo[i] {
			d := alo[i] - bhi[i]
			s += d * d
		}
	}
	return s
}

// BoxMaxDistSq returns the squared maximum distance from point p to any point
// of the box [lo, hi]; used by the approximate range query to decide that a
// quadtree node is fully inside the eps(1+rho) ball.
func BoxMaxDistSq(p, lo, hi []float64) float64 {
	var s float64
	for i := range p {
		d1 := math.Abs(p[i] - lo[i])
		d2 := math.Abs(p[i] - hi[i])
		if d2 > d1 {
			d1 = d2
		}
		s += d1 * d1
	}
	return s
}
