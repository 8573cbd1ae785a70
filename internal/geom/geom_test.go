package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func TestFromRowsAndAt(t *testing.T) {
	p, err := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if err != nil {
		t.Fatal(err)
	}
	if p.N != 3 || p.D != 2 {
		t.Fatalf("N=%d D=%d", p.N, p.D)
	}
	if got := p.At(1); got[0] != 3 || got[1] != 4 {
		t.Fatalf("At(1) = %v", got)
	}
}

func TestFromRowsErrors(t *testing.T) {
	if _, err := FromRows(nil); err == nil {
		t.Fatal("expected error for empty rows")
	}
	if _, err := FromRows([][]float64{{}}); err == nil {
		t.Fatal("expected error for zero-dim")
	}
	if _, err := FromRows([][]float64{{1, 2}, {3}}); err == nil {
		t.Fatal("expected error for ragged rows")
	}
}

func TestBounds(t *testing.T) {
	p, _ := FromRows([][]float64{{1, 9}, {-2, 4}, {5, 0}})
	lo, hi := p.Bounds()
	if lo[0] != -2 || lo[1] != 0 || hi[0] != 5 || hi[1] != 9 {
		t.Fatalf("bounds = %v %v", lo, hi)
	}
}

func TestDistSqSymmetricNonneg(t *testing.T) {
	f := func(a, b [3]float64) bool {
		d1 := DistSq(a[:], b[:])
		d2 := DistSq(b[:], a[:])
		return d1 == d2 && d1 >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPointBoxDistSq(t *testing.T) {
	lo := []float64{0, 0}
	hi := []float64{1, 1}
	if d := PointBoxDistSq([]float64{0.5, 0.5}, lo, hi); d != 0 {
		t.Fatalf("inside point dist = %v", d)
	}
	if d := PointBoxDistSq([]float64{2, 0.5}, lo, hi); math.Abs(d-1) > 1e-12 {
		t.Fatalf("side dist = %v, want 1", d)
	}
	if d := PointBoxDistSq([]float64{2, 2}, lo, hi); math.Abs(d-2) > 1e-12 {
		t.Fatalf("corner dist = %v, want 2", d)
	}
}

func TestBoxBoxDistSq(t *testing.T) {
	alo, ahi := []float64{0, 0}, []float64{1, 1}
	blo, bhi := []float64{2, 0}, []float64{3, 1}
	if d := BoxBoxDistSq(alo, ahi, blo, bhi); math.Abs(d-1) > 1e-12 {
		t.Fatalf("box dist = %v, want 1", d)
	}
	// Overlapping boxes.
	if d := BoxBoxDistSq(alo, ahi, []float64{0.5, 0.5}, []float64{2, 2}); d != 0 {
		t.Fatalf("overlap dist = %v, want 0", d)
	}
	// Diagonal separation.
	if d := BoxBoxDistSq(alo, ahi, []float64{2, 2}, []float64{3, 3}); math.Abs(d-2) > 1e-12 {
		t.Fatalf("diag dist = %v, want 2", d)
	}
}

func TestBoxMaxDistSq(t *testing.T) {
	lo, hi := []float64{0, 0}, []float64{1, 1}
	// From origin corner, farthest point of box is (1,1): dist^2 = 2.
	if d := BoxMaxDistSq([]float64{0, 0}, lo, hi); math.Abs(d-2) > 1e-12 {
		t.Fatalf("max dist = %v, want 2", d)
	}
	// Max dist upper-bounds dist to any point in the box.
	f := func(px, py, qx, qy float64) bool {
		clamp := func(v float64) float64 { return math.Mod(math.Abs(v), 1.0) }
		q := []float64{clamp(qx), clamp(qy)}
		p := []float64{px, py}
		return DistSq(p, q) <= BoxMaxDistSq(p, lo, hi)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
