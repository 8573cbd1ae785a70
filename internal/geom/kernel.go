package geom

import "math"

// Kernel is the distance hot path of one clustering run, resolved once per
// run from the point store's dimensionality. The specialized 2D and 3D forms
// index the flat row-major Data directly — no per-pair slice views, no
// bounds-checked generic-D loop — and the batch variants keep the dimension
// dispatch outside the per-pair loop entirely: one switch per cell (or per
// cell pair), then a tight scalar loop.
//
// Every method is bit-identical to its generic counterpart (DistSq,
// PointBoxDistSq, BoxBoxDistSq): the specialized forms accumulate terms in
// the same dimension order with the same operations, and Go never contracts
// float64 expressions into FMAs, so specialization can never change a
// clustering result. The kernel equivalence suite (kernel_test.go) pins this
// bit-for-bit across adversarial coordinates.
//
// A Kernel is two words (a dims tag and the data pointer); pass it by value.
type Kernel struct {
	dims int // dispatch tag: 2, 3, or 0 for the generic-D loop
	d    int // true dimensionality
	data []float64
}

// NewKernel resolves the kernel for a point store: the unrolled 2D or 3D
// form when the dimensionality allows, the generic-D loop otherwise.
func NewKernel(pts Points) Kernel {
	dims := pts.D
	if dims != 2 && dims != 3 {
		dims = 0
	}
	return Kernel{dims: dims, d: pts.D, data: pts.Data}
}

// NewGenericKernel resolves the generic-D kernel regardless of
// dimensionality. It is the reference the kernel equivalence tests check the
// specialized kernels against; results are bit-identical to NewKernel's.
func NewGenericKernel(pts Points) Kernel {
	return Kernel{dims: 0, d: pts.D, data: pts.Data}
}

// Dims returns the dimensionality of the underlying points.
func (k Kernel) Dims() int { return k.d }

// Specialized reports whether the kernel dispatches to an unrolled form.
func (k Kernel) Specialized() bool { return k.dims != 0 }

// DistSq returns the squared Euclidean distance between points a and b by
// index.
func (k Kernel) DistSq(a, b int32) float64 {
	switch k.dims {
	case 2:
		ia, ib := int(a)*2, int(b)*2
		dx := k.data[ia] - k.data[ib]
		dy := k.data[ia+1] - k.data[ib+1]
		return dx*dx + dy*dy
	case 3:
		ia, ib := int(a)*3, int(b)*3
		dx := k.data[ia] - k.data[ib]
		dy := k.data[ia+1] - k.data[ib+1]
		dz := k.data[ia+2] - k.data[ib+2]
		return dx*dx + dy*dy + dz*dz
	}
	return k.genericDistSq(a, b)
}

func (k Kernel) genericDistSq(a, b int32) float64 {
	d := k.d
	ra := k.data[int(a)*d : int(a)*d+d]
	rb := k.data[int(b)*d : int(b)*d+d]
	var s float64
	for j := range ra {
		diff := ra[j] - rb[j]
		s += diff * diff
	}
	return s
}

// WithinSq reports whether points a and b are within squared distance eps2.
func (k Kernel) WithinSq(a, b int32, eps2 float64) bool {
	return k.DistSq(a, b) <= eps2
}

// DistSqRow returns the squared distance between the coordinate row q and
// point p by index — the form the tree traversals use, where the query
// arrives as a row and the candidates as indices.
func (k Kernel) DistSqRow(q []float64, p int32) float64 {
	switch k.dims {
	case 2:
		ip := int(p) * 2
		dx := q[0] - k.data[ip]
		dy := q[1] - k.data[ip+1]
		return dx*dx + dy*dy
	case 3:
		ip := int(p) * 3
		dx := q[0] - k.data[ip]
		dy := q[1] - k.data[ip+1]
		dz := q[2] - k.data[ip+2]
		return dx*dx + dy*dy + dz*dz
	}
	d := k.d
	rp := k.data[int(p)*d : int(p)*d+d]
	var s float64
	for j := range rp {
		diff := q[j] - rp[j]
		s += diff * diff
	}
	return s
}

// CountWithin counts the points of pts within squared distance eps2 of point
// q, stopping once need qualifying points have been found (need <= 0 counts
// them all). The dimension dispatch happens once for the whole list.
func (k Kernel) CountWithin(q int32, pts []int32, eps2 float64, need int) int {
	count := 0
	switch k.dims {
	case 2:
		iq := int(q) * 2
		qx, qy := k.data[iq], k.data[iq+1]
		for _, p := range pts {
			ip := int(p) * 2
			dx := qx - k.data[ip]
			dy := qy - k.data[ip+1]
			if dx*dx+dy*dy <= eps2 {
				count++
				if count == need {
					return count
				}
			}
		}
	case 3:
		iq := int(q) * 3
		qx, qy, qz := k.data[iq], k.data[iq+1], k.data[iq+2]
		for _, p := range pts {
			ip := int(p) * 3
			dx := qx - k.data[ip]
			dy := qy - k.data[ip+1]
			dz := qz - k.data[ip+2]
			if dx*dx+dy*dy+dz*dz <= eps2 {
				count++
				if count == need {
					return count
				}
			}
		}
	default:
		for _, p := range pts {
			if k.genericDistSq(q, p) <= eps2 {
				count++
				if count == need {
					return count
				}
			}
		}
	}
	return count
}

// AnyWithin reports whether any point of pts lies within squared distance
// eps2 of point q.
func (k Kernel) AnyWithin(q int32, pts []int32, eps2 float64) bool {
	return k.CountWithin(q, pts, eps2, 1) > 0
}

// FilterNearInto appends to out the points of pts within squared distance
// eps2 of the axis-aligned box [boxLo, boxHi] and returns the extended slice
// (the caller passes a reused scratch buffer, typically out[:0]).
func (k Kernel) FilterNearInto(out []int32, pts []int32, boxLo, boxHi []float64, eps2 float64) []int32 {
	switch k.dims {
	case 2:
		lx, ly := boxLo[0], boxLo[1]
		hx, hy := boxHi[0], boxHi[1]
		for _, p := range pts {
			ip := int(p) * 2
			var s float64
			if v := k.data[ip]; v < lx {
				dd := lx - v
				s = dd * dd
			} else if v > hx {
				dd := v - hx
				s = dd * dd
			}
			if v := k.data[ip+1]; v < ly {
				dd := ly - v
				s += dd * dd
			} else if v > hy {
				dd := v - hy
				s += dd * dd
			}
			if s <= eps2 {
				out = append(out, p)
			}
		}
	default:
		d := k.d
		for _, p := range pts {
			if PointBoxDistSq(k.data[int(p)*d:int(p)*d+d], boxLo, boxHi) <= eps2 {
				out = append(out, p)
			}
		}
	}
	return out
}

// bcpBlock is the fixed block size of the bichromatic closest-pair scan
// (Section 4.4's blocked early termination): both point lists are walked in
// blocks of this many points so that an early qualifying pair is found
// having scanned only a prefix of each list.
const bcpBlock = 64

// AnyPairWithin reports whether any pair (a, b), a from as, b from bs, lies
// within squared distance eps2, scanning fixed-size blocks of the two lists
// and aborting on the first qualifying pair.
func (k Kernel) AnyPairWithin(as, bs []int32, eps2 float64) bool {
	for i := 0; i < len(as); i += bcpBlock {
		iEnd := min(i+bcpBlock, len(as))
		for j := 0; j < len(bs); j += bcpBlock {
			jEnd := min(j+bcpBlock, len(bs))
			switch k.dims {
			case 2:
				for _, a := range as[i:iEnd] {
					ia := int(a) * 2
					ax, ay := k.data[ia], k.data[ia+1]
					for _, b := range bs[j:jEnd] {
						ib := int(b) * 2
						dx := ax - k.data[ib]
						dy := ay - k.data[ib+1]
						if dx*dx+dy*dy <= eps2 {
							return true
						}
					}
				}
			case 3:
				for _, a := range as[i:iEnd] {
					ia := int(a) * 3
					ax, ay, az := k.data[ia], k.data[ia+1], k.data[ia+2]
					for _, b := range bs[j:jEnd] {
						ib := int(b) * 3
						dx := ax - k.data[ib]
						dy := ay - k.data[ib+1]
						dz := az - k.data[ib+2]
						if dx*dx+dy*dy+dz*dz <= eps2 {
							return true
						}
					}
				}
			default:
				for _, a := range as[i:iEnd] {
					for _, b := range bs[j:jEnd] {
						if k.genericDistSq(a, b) <= eps2 {
							return true
						}
					}
				}
			}
		}
	}
	return false
}

// CountWithinRange counts the points of the contiguous row range [lo, hi)
// within squared distance eps2 of point q, stopping once need qualifying
// points have been found (need <= 0 counts them all). It is the cell-major
// form of CountWithin: when the payload is laid out cell-by-cell the
// candidate list of a cell is exactly a row range, and the scan walks the
// backing array sequentially instead of gathering through an index list. The
// per-pair arithmetic and iteration order match CountWithin over the rows
// [lo, lo+1, ..., hi-1] exactly, so the two forms are bit-identical.
func (k Kernel) CountWithinRange(q, lo, hi int32, eps2 float64, need int) int {
	count := 0
	switch k.dims {
	case 2:
		iq := int(q) * 2
		qx, qy := k.data[iq], k.data[iq+1]
		for ip := int(lo) * 2; ip < int(hi)*2; ip += 2 {
			dx := qx - k.data[ip]
			dy := qy - k.data[ip+1]
			if dx*dx+dy*dy <= eps2 {
				count++
				if count == need {
					return count
				}
			}
		}
	case 3:
		iq := int(q) * 3
		qx, qy, qz := k.data[iq], k.data[iq+1], k.data[iq+2]
		for ip := int(lo) * 3; ip < int(hi)*3; ip += 3 {
			dx := qx - k.data[ip]
			dy := qy - k.data[ip+1]
			dz := qz - k.data[ip+2]
			if dx*dx+dy*dy+dz*dz <= eps2 {
				count++
				if count == need {
					return count
				}
			}
		}
	default:
		for p := lo; p < hi; p++ {
			if k.genericDistSq(q, p) <= eps2 {
				count++
				if count == need {
					return count
				}
			}
		}
	}
	return count
}

// AnyWithinRange reports whether any point of the contiguous row range
// [lo, hi) lies within squared distance eps2 of point q.
func (k Kernel) AnyWithinRange(q, lo, hi int32, eps2 float64) bool {
	return k.CountWithinRange(q, lo, hi, eps2, 1) > 0
}

// FilterNearRangeInto appends to out the rows of the contiguous range
// [lo, hi) within squared distance eps2 of the axis-aligned box [boxLo,
// boxHi] and returns the extended slice — the cell-major form of
// FilterNearInto, streaming the backing array instead of gathering through an
// index list. Appended values are row indices; selection and order match
// FilterNearInto over the rows [lo, ..., hi-1] exactly.
func (k Kernel) FilterNearRangeInto(out []int32, lo, hi int32, boxLo, boxHi []float64, eps2 float64) []int32 {
	switch k.dims {
	case 2:
		lx, ly := boxLo[0], boxLo[1]
		hx, hy := boxHi[0], boxHi[1]
		for p := lo; p < hi; p++ {
			ip := int(p) * 2
			var s float64
			if v := k.data[ip]; v < lx {
				dd := lx - v
				s = dd * dd
			} else if v > hx {
				dd := v - hx
				s = dd * dd
			}
			if v := k.data[ip+1]; v < ly {
				dd := ly - v
				s += dd * dd
			} else if v > hy {
				dd := v - hy
				s += dd * dd
			}
			if s <= eps2 {
				out = append(out, p)
			}
		}
	default:
		d := k.d
		for p := lo; p < hi; p++ {
			if PointBoxDistSq(k.data[int(p)*d:int(p)*d+d], boxLo, boxHi) <= eps2 {
				out = append(out, p)
			}
		}
	}
	return out
}

// AnyPairWithinRanges reports whether any pair (a, b), a from the row range
// [aLo, aHi), b from [bLo, bHi), lies within squared distance eps2 — the
// cell-major form of AnyPairWithin, walking the same fixed-size blocks
// (Section 4.4's blocked early termination) over two dense row ranges with
// no index gather. Pair order matches AnyPairWithin over the corresponding
// row lists exactly.
func (k Kernel) AnyPairWithinRanges(aLo, aHi, bLo, bHi int32, eps2 float64) bool {
	for i := aLo; i < aHi; i += bcpBlock {
		iEnd := min(i+bcpBlock, aHi)
		for j := bLo; j < bHi; j += bcpBlock {
			jEnd := min(j+bcpBlock, bHi)
			switch k.dims {
			case 2:
				for a := i; a < iEnd; a++ {
					ia := int(a) * 2
					ax, ay := k.data[ia], k.data[ia+1]
					for ib := int(j) * 2; ib < int(jEnd)*2; ib += 2 {
						dx := ax - k.data[ib]
						dy := ay - k.data[ib+1]
						if dx*dx+dy*dy <= eps2 {
							return true
						}
					}
				}
			case 3:
				for a := i; a < iEnd; a++ {
					ia := int(a) * 3
					ax, ay, az := k.data[ia], k.data[ia+1], k.data[ia+2]
					for ib := int(j) * 3; ib < int(jEnd)*3; ib += 3 {
						dx := ax - k.data[ib]
						dy := ay - k.data[ib+1]
						dz := az - k.data[ib+2]
						if dx*dx+dy*dy+dz*dz <= eps2 {
							return true
						}
					}
				}
			default:
				for a := i; a < iEnd; a++ {
					for b := j; b < jEnd; b++ {
						if k.genericDistSq(a, b) <= eps2 {
							return true
						}
					}
				}
			}
		}
	}
	return false
}

// PointBoxDistSq returns the squared distance from coordinate row q to the
// box [lo, hi] — the specialized form of the package-level PointBoxDistSq.
func (k Kernel) PointBoxDistSq(q, lo, hi []float64) float64 {
	switch k.dims {
	case 2:
		var s float64
		if v := q[0]; v < lo[0] {
			dd := lo[0] - v
			s = dd * dd
		} else if v > hi[0] {
			dd := v - hi[0]
			s = dd * dd
		}
		if v := q[1]; v < lo[1] {
			dd := lo[1] - v
			s += dd * dd
		} else if v > hi[1] {
			dd := v - hi[1]
			s += dd * dd
		}
		return s
	case 3:
		var s float64
		if v := q[0]; v < lo[0] {
			dd := lo[0] - v
			s = dd * dd
		} else if v > hi[0] {
			dd := v - hi[0]
			s = dd * dd
		}
		if v := q[1]; v < lo[1] {
			dd := lo[1] - v
			s += dd * dd
		} else if v > hi[1] {
			dd := v - hi[1]
			s += dd * dd
		}
		if v := q[2]; v < lo[2] {
			dd := lo[2] - v
			s += dd * dd
		} else if v > hi[2] {
			dd := v - hi[2]
			s += dd * dd
		}
		return s
	}
	return PointBoxDistSq(q, lo, hi)
}

// PointBoxDistSqAt returns the squared distance from point p to the box of
// slot g in the flat per-slot box arrays (box g occupies los[g*d:(g+1)*d]).
func (k Kernel) PointBoxDistSqAt(p int32, los, his []float64, g int32) float64 {
	switch k.dims {
	case 2:
		ip, ig := int(p)*2, int(g)*2
		var s float64
		if v := k.data[ip]; v < los[ig] {
			dd := los[ig] - v
			s = dd * dd
		} else if v > his[ig] {
			dd := v - his[ig]
			s = dd * dd
		}
		if v := k.data[ip+1]; v < los[ig+1] {
			dd := los[ig+1] - v
			s += dd * dd
		} else if v > his[ig+1] {
			dd := v - his[ig+1]
			s += dd * dd
		}
		return s
	case 3:
		ip, ig := int(p)*3, int(g)*3
		var s float64
		for j := 0; j < 3; j++ {
			if v := k.data[ip+j]; v < los[ig+j] {
				dd := los[ig+j] - v
				s += dd * dd
			} else if v > his[ig+j] {
				dd := v - his[ig+j]
				s += dd * dd
			}
		}
		return s
	}
	d := k.d
	return PointBoxDistSq(k.data[int(p)*d:int(p)*d+d], los[int(g)*d:int(g)*d+d], his[int(g)*d:int(g)*d+d])
}

// BoxMaxDistSq returns the squared maximum distance from coordinate row q to
// any point of the box [lo, hi] — the specialized form of the package-level
// BoxMaxDistSq (used by the quadtree's fully-inside test).
func (k Kernel) BoxMaxDistSq(q, lo, hi []float64) float64 {
	switch k.dims {
	case 2:
		d1 := math.Abs(q[0] - lo[0])
		if d2 := math.Abs(q[0] - hi[0]); d2 > d1 {
			d1 = d2
		}
		s := d1 * d1
		d1 = math.Abs(q[1] - lo[1])
		if d2 := math.Abs(q[1] - hi[1]); d2 > d1 {
			d1 = d2
		}
		return s + d1*d1
	case 3:
		var s float64
		for j := 0; j < 3; j++ {
			d1 := math.Abs(q[j] - lo[j])
			if d2 := math.Abs(q[j] - hi[j]); d2 > d1 {
				d1 = d2
			}
			s += d1 * d1
		}
		return s
	}
	return BoxMaxDistSq(q, lo, hi)
}

// BoxBoxDistSq is the specialized form of the package-level BoxBoxDistSq for
// boxes given as slices.
func (k Kernel) BoxBoxDistSq(alo, ahi, blo, bhi []float64) float64 {
	switch k.dims {
	case 2:
		var s float64
		if ahi[0] < blo[0] {
			dd := blo[0] - ahi[0]
			s = dd * dd
		} else if bhi[0] < alo[0] {
			dd := alo[0] - bhi[0]
			s = dd * dd
		}
		if ahi[1] < blo[1] {
			dd := blo[1] - ahi[1]
			s += dd * dd
		} else if bhi[1] < alo[1] {
			dd := alo[1] - bhi[1]
			s += dd * dd
		}
		return s
	case 3:
		var s float64
		for j := 0; j < 3; j++ {
			if ahi[j] < blo[j] {
				dd := blo[j] - ahi[j]
				s += dd * dd
			} else if bhi[j] < alo[j] {
				dd := alo[j] - bhi[j]
				s += dd * dd
			}
		}
		return s
	}
	return BoxBoxDistSq(alo, ahi, blo, bhi)
}

// BoxBoxDistSqAt returns the squared minimum distance between the boxes of
// slots g and h in the flat per-slot box arrays (box g occupies
// los[g*d:(g+1)*d]) — the form the cell-graph filters use, avoiding four
// slice views per pair.
func (k Kernel) BoxBoxDistSqAt(los, his []float64, g, h int32) float64 {
	switch k.dims {
	case 2:
		ig, ih := int(g)*2, int(h)*2
		var s float64
		if his[ig] < los[ih] {
			dd := los[ih] - his[ig]
			s = dd * dd
		} else if his[ih] < los[ig] {
			dd := los[ig] - his[ih]
			s = dd * dd
		}
		if his[ig+1] < los[ih+1] {
			dd := los[ih+1] - his[ig+1]
			s += dd * dd
		} else if his[ih+1] < los[ig+1] {
			dd := los[ig+1] - his[ih+1]
			s += dd * dd
		}
		return s
	case 3:
		ig, ih := int(g)*3, int(h)*3
		var s float64
		for j := 0; j < 3; j++ {
			if his[ig+j] < los[ih+j] {
				dd := los[ih+j] - his[ig+j]
				s += dd * dd
			} else if his[ih+j] < los[ig+j] {
				dd := los[ig+j] - his[ih+j]
				s += dd * dd
			}
		}
		return s
	}
	d := k.d
	return BoxBoxDistSq(
		los[int(g)*d:int(g)*d+d], his[int(g)*d:int(g)*d+d],
		los[int(h)*d:int(h)*d+d], his[int(h)*d:int(h)*d+d])
}
