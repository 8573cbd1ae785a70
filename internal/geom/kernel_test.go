package geom

import (
	"math"
	"math/rand"
	"testing"
)

// adversarialValues are coordinates chosen to expose any operation-order or
// rounding difference between the specialized and generic kernels: zeros of
// both signs, denormals, values around the float64 precision cliff, and
// magnitudes whose squares overflow or underflow.
var adversarialValues = []float64{
	0, math.Copysign(0, -1),
	5e-324, -5e-324, // denormal min
	math.SmallestNonzeroFloat64 * 7,
	1e-160, -1e-160, // squares are denormal
	1, -1, 0.1, -0.1,
	1 + math.Nextafter(1, 2) - 1, // 1 + ulp
	1e8, -1e8, 1e154, -1e154,     // squares near overflow
	math.MaxFloat64, -math.MaxFloat64,
	3.5, 7.25, 1e-9,
}

// kernelPts builds a Points in dimension d whose rows enumerate adversarial
// coordinate combinations plus seeded random fill.
func kernelPts(t testing.TB, d int, rng *rand.Rand) Points {
	var rows [][]float64
	for _, a := range adversarialValues {
		for _, b := range adversarialValues {
			row := make([]float64, d)
			row[0] = a
			row[d-1] = b
			for j := 1; j < d-1; j++ {
				row[j] = rng.NormFloat64()
			}
			rows = append(rows, row)
		}
	}
	for i := 0; i < 200; i++ {
		row := make([]float64, d)
		for j := range row {
			row[j] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40)-20))
		}
		rows = append(rows, row)
	}
	pts, err := FromRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	return pts
}

// requireBitsEqual fails unless the two float64s are bit-for-bit identical
// (NaN payloads and signed zeros included).
func requireBitsEqual(t *testing.T, what string, spec, gen float64) {
	t.Helper()
	if math.Float64bits(spec) != math.Float64bits(gen) {
		t.Fatalf("%s: specialized %v (%#x) != generic %v (%#x)",
			what, spec, math.Float64bits(spec), gen, math.Float64bits(gen))
	}
}

// TestKernelEquivalence pins the bit-for-bit agreement between the
// specialized 2D/3D kernels and the generic-D loop (and the package-level
// reference functions) across adversarial coordinates.
func TestKernelEquivalence(t *testing.T) {
	for _, d := range []int{2, 3, 5} {
		rng := rand.New(rand.NewSource(int64(d)))
		pts := kernelPts(t, d, rng)
		k := NewKernel(pts)
		gk := NewGenericKernel(pts)
		if (k.dims != 0) != (d == 2 || d == 3) {
			t.Fatalf("d=%d: NewKernel dispatch tag = %d", d, k.dims)
		}

		n := int32(pts.N)
		for trial := 0; trial < 4000; trial++ {
			a := int32(rng.Intn(int(n)))
			b := int32(rng.Intn(int(n)))
			spec := k.DistSq(a, b)
			gen := gk.DistSq(a, b)
			requireBitsEqual(t, "DistSq", spec, gen)
			requireBitsEqual(t, "DistSq vs reference", spec, DistSq(pts.At(int(a)), pts.At(int(b))))
			requireBitsEqual(t, "DistSqRow", k.DistSqRow(pts.At(int(a)), b), gen)

			lo, hi := pts.At(int(a)), pts.At(int(b))
			boxLo := make([]float64, d)
			boxHi := make([]float64, d)
			for j := 0; j < d; j++ {
				boxLo[j] = math.Min(lo[j], hi[j])
				boxHi[j] = math.Max(lo[j], hi[j])
			}
			q := pts.At(rng.Intn(int(n)))
			requireBitsEqual(t, "PointBoxDistSq",
				k.PointBoxDistSq(q, boxLo, boxHi), PointBoxDistSq(q, boxLo, boxHi))
		}

		// Flat per-slot box arrays for the *At forms.
		slots := 16
		los := make([]float64, slots*d)
		his := make([]float64, slots*d)
		for s := 0; s < slots; s++ {
			a := pts.At(rng.Intn(int(n)))
			b := pts.At(rng.Intn(int(n)))
			for j := 0; j < d; j++ {
				los[s*d+j] = math.Min(a[j], b[j])
				his[s*d+j] = math.Max(a[j], b[j])
			}
		}
		for g := int32(0); g < int32(slots); g++ {
			for h := int32(0); h < int32(slots); h++ {
				want := BoxBoxDistSq(los[g*int32(d):(g+1)*int32(d)], his[g*int32(d):(g+1)*int32(d)],
					los[h*int32(d):(h+1)*int32(d)], his[h*int32(d):(h+1)*int32(d)])
				requireBitsEqual(t, "BoxBoxDistSqAt",
					k.BoxBoxDistSqAt(los, his, g, h), want)
				requireBitsEqual(t, "BoxBoxDistSq",
					k.BoxBoxDistSq(los[g*int32(d):(g+1)*int32(d)], his[g*int32(d):(g+1)*int32(d)],
						los[h*int32(d):(h+1)*int32(d)], his[h*int32(d):(h+1)*int32(d)]), want)
			}
			p := int32(rng.Intn(int(n)))
			glo, ghi := los[g*int32(d):(g+1)*int32(d)], his[g*int32(d):(g+1)*int32(d)]
			requireBitsEqual(t, "PointBoxDistSqAt",
				k.PointBoxDistSqAt(p, los, his, g), PointBoxDistSq(pts.At(int(p)), glo, ghi))
			mn, mx := k.PointBoxMinMaxDistSqAt(p, los, his, g)
			requireBitsEqual(t, "PointBoxMinMaxDistSqAt min", mn, PointBoxDistSq(pts.At(int(p)), glo, ghi))
			requireBitsEqual(t, "PointBoxMinMaxDistSqAt max", mx, BoxMaxDistSq(pts.At(int(p)), glo, ghi))
		}
	}
}

// TestKernelBatchEquivalence checks the batch variants (CountWithin,
// AnyWithin, FilterNearInto, AnyPairWithin) against straightforward loops
// over the reference functions, including exact-eps boundary pairs.
func TestKernelBatchEquivalence(t *testing.T) {
	for _, d := range []int{2, 3, 5} {
		rng := rand.New(rand.NewSource(100 + int64(d)))
		pts := kernelPts(t, d, rng)
		k := NewKernel(pts)
		n := int32(pts.N)

		idx := make([]int32, 64)
		jdx := make([]int32, 64)
		for trial := 0; trial < 300; trial++ {
			for i := range idx {
				idx[i] = int32(rng.Intn(int(n)))
				jdx[i] = int32(rng.Intn(int(n)))
			}
			q := int32(rng.Intn(int(n)))
			// eps2 drawn from an actual pair distance half the time, so the
			// <= boundary is routinely exercised (exact-eps pairs).
			eps2 := math.Abs(rng.NormFloat64())
			if trial%2 == 0 {
				eps2 = DistSq(pts.At(int(q)), pts.At(int(idx[rng.Intn(len(idx))])))
			}
			if math.IsNaN(eps2) {
				continue
			}

			want := 0
			for _, p := range idx {
				if DistSq(pts.At(int(q)), pts.At(int(p))) <= eps2 {
					want++
				}
			}
			if got := k.CountWithin(q, idx, eps2, 0); got != want {
				t.Fatalf("d=%d CountWithin = %d, want %d", d, got, want)
			}
			if need := 1 + rng.Intn(8); want >= need {
				if got := k.CountWithin(q, idx, eps2, need); got != need {
					t.Fatalf("d=%d CountWithin(need=%d) = %d", d, need, got)
				}
			}
			if got := k.AnyWithin(q, idx, eps2); got != (want > 0) {
				t.Fatalf("d=%d AnyWithin = %v, want %v", d, got, want > 0)
			}

			boxLo := make([]float64, d)
			boxHi := make([]float64, d)
			a, b := pts.At(int(jdx[0])), pts.At(int(jdx[1]))
			for j := 0; j < d; j++ {
				boxLo[j] = math.Min(a[j], b[j])
				boxHi[j] = math.Max(a[j], b[j])
			}
			var wantNear []int32
			for _, p := range idx {
				if PointBoxDistSq(pts.At(int(p)), boxLo, boxHi) <= eps2 {
					wantNear = append(wantNear, p)
				}
			}
			gotNear := k.FilterNearInto(nil, idx, boxLo, boxHi, eps2)
			if len(gotNear) != len(wantNear) {
				t.Fatalf("d=%d FilterNearInto kept %d, want %d", d, len(gotNear), len(wantNear))
			}
			for i := range gotNear {
				if gotNear[i] != wantNear[i] {
					t.Fatalf("d=%d FilterNearInto[%d] = %d, want %d", d, i, gotNear[i], wantNear[i])
				}
			}

			wantPair := false
			for _, a := range idx {
				for _, b := range jdx {
					if DistSq(pts.At(int(a)), pts.At(int(b))) <= eps2 {
						wantPair = true
					}
				}
			}
			if got := k.AnyPairWithin(idx, jdx, eps2); got != wantPair {
				t.Fatalf("d=%d AnyPairWithin = %v, want %v", d, got, wantPair)
			}
		}
	}
}

// FuzzKernelEquivalence fuzzes raw coordinate pairs through the specialized
// and generic kernels, asserting bit-identical squared distances in 2D and
// 3D (the dimensions with unrolled forms).
func FuzzKernelEquivalence(f *testing.F) {
	f.Add(0.0, 1.0, -2.0, 3.5, 1e-300, -1e-300)
	f.Add(math.Copysign(0, -1), 0.0, 5e-324, -5e-324, 1e154, -1e154)
	f.Add(1.0, 1.0, 1.0, math.Nextafter(1, 2), math.MaxFloat64, math.MaxFloat64)
	f.Fuzz(func(t *testing.T, a0, a1, a2, b0, b1, b2 float64) {
		for _, v := range []float64{a0, a1, a2, b0, b1, b2} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Skip()
			}
		}
		for _, d := range []int{2, 3} {
			data := append(append([]float64{}, a0, a1, a2)[:d], []float64{b0, b1, b2}[:d]...)
			pts := Points{N: 2, D: d, Data: data}
			k, gk := NewKernel(pts), NewGenericKernel(pts)
			spec, gen := k.DistSq(0, 1), gk.DistSq(0, 1)
			if math.Float64bits(spec) != math.Float64bits(gen) {
				t.Fatalf("d=%d: specialized %v != generic %v", d, spec, gen)
			}
			if math.Float64bits(spec) != math.Float64bits(DistSq(pts.At(0), pts.At(1))) {
				t.Fatalf("d=%d: kernel %v != reference", d, spec)
			}
			row := k.DistSqRow(pts.At(0), 1)
			if math.Float64bits(row) != math.Float64bits(gen) {
				t.Fatalf("d=%d: DistSqRow %v != generic %v", d, row, gen)
			}
		}
	})
}

// TestCountWithinRangeBlockEdges pins the blocked 2D/3D scans of
// CountWithinRange at every range length across a block of four, and at
// every need from 0 (count all) to past the count, against CountWithin over
// the same rows and a brute-force count capped at need. Coordinates sit on a
// small integer lattice and eps2 runs over the lattice's squared distances,
// so many pairs lie exactly at eps. It also pins PointBoxMinMaxDistSqAt to
// PointBoxDistSq and BoxMaxDistSq bit for bit on lattice-aligned boxes,
// including points on a box face or corner.
func TestCountWithinRangeBlockEdges(t *testing.T) {
	for _, d := range []int{2, 3, 5} {
		rng := rand.New(rand.NewSource(200 + int64(d)))
		const n = 64
		data := make([]float64, n*d)
		for i := range data {
			data[i] = float64(rng.Intn(4))
		}
		pts := Points{N: n, D: d, Data: data}
		k := NewKernel(pts)
		for length := 0; length <= 13; length++ {
			for trial := 0; trial < 20; trial++ {
				lo := int32(rng.Intn(n - length + 1))
				hi := lo + int32(length)
				rows := make([]int32, 0, length)
				for r := lo; r < hi; r++ {
					rows = append(rows, r)
				}
				q := int32(rng.Intn(n))
				eps2 := float64(rng.Intn(d + 2))
				full := 0
				for _, r := range rows {
					if DistSq(pts.At(int(q)), pts.At(int(r))) <= eps2 {
						full++
					}
				}
				for need := 0; need <= length+1; need++ {
					want := full
					if need > 0 {
						want = min(full, need)
					}
					got := k.CountWithinRange(q, lo, hi, eps2, need)
					if got != want {
						t.Fatalf("d=%d len=%d need=%d eps2=%v: CountWithinRange = %d, want %d", d, length, need, eps2, got, want)
					}
					if gl := k.CountWithin(q, rows, eps2, need); gl != got {
						t.Fatalf("d=%d len=%d need=%d eps2=%v: CountWithin = %d, CountWithinRange = %d", d, length, need, eps2, gl, got)
					}
				}
			}
		}

		// Boxes spanned by lattice points; queries from the same lattice
		// land inside, on faces and corners, and outside.
		const slots = 32
		los := make([]float64, slots*d)
		his := make([]float64, slots*d)
		for s := 0; s < slots; s++ {
			a, b := pts.At(rng.Intn(n)), pts.At(rng.Intn(n))
			for j := 0; j < d; j++ {
				los[s*d+j] = math.Min(a[j], b[j])
				his[s*d+j] = math.Max(a[j], b[j])
			}
		}
		for g := int32(0); g < slots; g++ {
			lo, hi := los[int(g)*d:int(g+1)*d], his[int(g)*d:int(g+1)*d]
			for p := int32(0); p < n; p++ {
				mn, mx := k.PointBoxMinMaxDistSqAt(p, los, his, g)
				requireBitsEqual(t, "PointBoxMinMaxDistSqAt min", mn, PointBoxDistSq(pts.At(int(p)), lo, hi))
				requireBitsEqual(t, "PointBoxMinMaxDistSqAt max", mx, BoxMaxDistSq(pts.At(int(p)), lo, hi))
			}
		}
	}
}
