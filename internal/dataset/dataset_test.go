package dataset

import (
	"bytes"
	"encoding/binary"
	"math"
	"path/filepath"
	"runtime"
	"testing"

	"pdbscan/internal/geom"
)

func TestSeedSpreaderBasics(t *testing.T) {
	for _, d := range []int{2, 3, 5, 7} {
		pts := SeedSpreader(SeedSpreaderConfig{N: 5000, D: d, Seed: 1})
		if pts.N != 5000 || pts.D != d {
			t.Fatalf("d=%d: got N=%d D=%d", d, pts.N, pts.D)
		}
		for _, v := range pts.Data {
			if v < 0 || v > Domain || math.IsNaN(v) {
				t.Fatalf("d=%d: coordinate %v out of domain", d, v)
			}
		}
	}
}

func TestSeedSpreaderDeterministic(t *testing.T) {
	a := SeedSpreader(SeedSpreaderConfig{N: 1000, D: 3, Seed: 7})
	b := SeedSpreader(SeedSpreaderConfig{N: 1000, D: 3, Seed: 7})
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatal("same seed produced different data")
		}
	}
	c := SeedSpreader(SeedSpreaderConfig{N: 1000, D: 3, Seed: 8})
	same := true
	for i := range a.Data {
		if a.Data[i] != c.Data[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical data")
	}
}

func TestSeedSpreaderIsClustered(t *testing.T) {
	// The generator must produce data far denser than uniform: the average
	// nearest-neighbor distance should be much smaller than the uniform
	// expectation.
	pts := SeedSpreader(SeedSpreaderConfig{N: 3000, D: 2, Seed: 3})
	nnSum := 0.0
	for i := 0; i < 200; i++ {
		best := math.Inf(1)
		for j := 0; j < pts.N; j++ {
			if j == i {
				continue
			}
			if d := geom.DistSq(pts.At(i), pts.At(j)); d < best {
				best = d
			}
		}
		nnSum += math.Sqrt(best)
	}
	avgNN := nnSum / 200
	uniformNN := Domain / (2 * math.Sqrt(float64(pts.N))) // ~875 for n=3000
	if avgNN > uniformNN/5 {
		t.Fatalf("avg NN distance %v not clustered (uniform ~%v)", avgNN, uniformNN)
	}
}

func TestVardenHasVariableDensity(t *testing.T) {
	// Compare the spread of nearest-neighbor distances: varden should show a
	// much wider ratio between dense and sparse cluster regions.
	nn := func(pts geom.Points, samples int) []float64 {
		out := make([]float64, samples)
		for i := 0; i < samples; i++ {
			best := math.Inf(1)
			for j := 0; j < pts.N; j++ {
				if j == i {
					continue
				}
				if d := geom.DistSq(pts.At(i), pts.At(j)); d < best {
					best = d
				}
			}
			out[i] = math.Sqrt(best)
		}
		return out
	}
	varden := SeedSpreader(SeedSpreaderConfig{N: 4000, D: 2, VarDen: true, Seed: 5, NoiseFrac: 1e-9})
	dists := nn(varden, 300)
	lo, hi := math.Inf(1), 0.0
	for _, v := range dists {
		if v <= 0 {
			continue
		}
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if hi/lo < 10 {
		t.Fatalf("varden NN spread %v..%v (ratio %v) not variable enough", lo, hi, hi/lo)
	}
}

func TestUniformFill(t *testing.T) {
	pts := UniformFill(10000, 3, 2)
	side := math.Sqrt(10000.0)
	for _, v := range pts.Data {
		if v < 0 || v > side {
			t.Fatalf("coordinate %v outside [0, %v]", v, side)
		}
	}
}

func TestRealSimsShapes(t *testing.T) {
	cases := []struct {
		name string
		pts  geom.Points
		d    int
	}{
		{"geolife", GeoLifeSim(3000, 1), 3},
		{"cosmo", CosmoSim(3000, 1), 3},
		{"osm", OSMSim(3000, 1), 2},
		{"teraclick", TeraClickSim(3000, 1), 13},
		{"household", HouseholdSim(3000, 1), 7},
	}
	for _, c := range cases {
		if c.pts.N != 3000 || c.pts.D != c.d {
			t.Fatalf("%s: N=%d D=%d", c.name, c.pts.N, c.pts.D)
		}
		for _, v := range c.pts.Data {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("%s: bad coordinate", c.name)
			}
		}
	}
}

func TestTeraClickDegenerateOccupancy(t *testing.T) {
	// Nearly all points must fall within a tiny band (single-cell regime for
	// typical eps).
	pts := TeraClickSim(5000, 3)
	inBand := 0
	for i := 0; i < pts.N; i++ {
		ok := true
		for _, v := range pts.At(i) {
			if math.Abs(v-Domain/2) > Domain/100 {
				ok = false
				break
			}
		}
		if ok {
			inBand++
		}
	}
	if float64(inBand)/float64(pts.N) < 0.99 {
		t.Fatalf("only %d/%d points in the dense band", inBand, pts.N)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	pts := SeedSpreader(SeedSpreaderConfig{N: 500, D: 3, Seed: 9})
	var buf bytes.Buffer
	if err := WriteCSV(&buf, pts); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.N != pts.N || got.D != pts.D {
		t.Fatalf("round trip: N=%d D=%d", got.N, got.D)
	}
	for i := range pts.Data {
		if got.Data[i] != pts.Data[i] {
			t.Fatalf("data[%d] = %v, want %v", i, got.Data[i], pts.Data[i])
		}
	}
}

func TestCSVComments(t *testing.T) {
	in := "# header\n1,2\n\n3,4\n"
	pts, err := ReadCSV(bytes.NewBufferString(in))
	if err != nil {
		t.Fatal(err)
	}
	if pts.N != 2 || pts.D != 2 {
		t.Fatalf("N=%d D=%d", pts.N, pts.D)
	}
}

func TestCSVErrors(t *testing.T) {
	if _, err := ReadCSV(bytes.NewBufferString("")); err == nil {
		t.Fatal("expected error for empty input")
	}
	if _, err := ReadCSV(bytes.NewBufferString("1,2\n3\n")); err == nil {
		t.Fatal("expected error for ragged rows")
	}
	if _, err := ReadCSV(bytes.NewBufferString("1,x\n")); err == nil {
		t.Fatal("expected error for non-numeric field")
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	// The second size is past ReadBinary's initial capacity, so the data
	// slice has to grow while the body is read.
	for _, size := range []struct{ n, d int }{{1000, 5}, {30000, 3}} {
		pts := SeedSpreader(SeedSpreaderConfig{N: size.n, D: size.d, Seed: 11})
		var buf bytes.Buffer
		if err := WriteBinary(&buf, pts); err != nil {
			t.Fatal(err)
		}
		got, err := ReadBinary(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if got.N != pts.N || got.D != pts.D || len(got.Data) != len(pts.Data) {
			t.Fatalf("round trip: N=%d D=%d len=%d", got.N, got.D, len(got.Data))
		}
		for i := range pts.Data {
			if math.Float64bits(got.Data[i]) != math.Float64bits(pts.Data[i]) {
				t.Fatalf("n=%d d=%d: binary round trip corrupted value %d", size.n, size.d, i)
			}
		}
	}
}

// TestBinaryBadMagic feeds ReadBinary bad input: a wrong magic, and valid
// headers that claim far more points than the 64 data bytes that follow.
// Each must fail with an error, not a panic, and must not allocate what the
// header claims.
func TestBinaryBadMagic(t *testing.T) {
	header := func(n, d uint64) []byte {
		b := append([]byte{}, binMagic[:]...)
		b = binary.LittleEndian.AppendUint64(b, n)
		b = binary.LittleEndian.AppendUint64(b, d)
		return append(b, make([]byte, 64)...)
	}
	for _, tc := range []struct {
		name string
		in   []byte
	}{
		{"bad magic", []byte("NOTMAGIC-------")},
		{"n=2^40 d=2^16", header(1<<40, 1<<16)},
		{"n=2^33 d=2", header(1<<33, 2)},
		{"n=1e8 d=2", header(1e8, 2)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := ReadBinary(bytes.NewReader(tc.in))
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Fatal("expected an error")
			}
			if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 4<<20 {
				t.Fatalf("allocated %d bytes for a %d-byte input", alloc, len(tc.in))
			}
		})
	}
}

func TestSaveLoadFile(t *testing.T) {
	dir := t.TempDir()
	pts := SeedSpreader(SeedSpreaderConfig{N: 300, D: 2, Seed: 13})
	for _, format := range []string{"bin", "csv"} {
		path := filepath.Join(dir, "pts."+format)
		if err := SaveFile(path, format, pts); err != nil {
			t.Fatal(err)
		}
		got, err := LoadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got.N != pts.N || got.D != pts.D {
			t.Fatalf("%s: N=%d D=%d", format, got.N, got.D)
		}
	}
	if err := SaveFile(filepath.Join(dir, "x"), "xml", pts); err == nil {
		t.Fatal("expected error for unknown format")
	}
}

func TestGenerateNames(t *testing.T) {
	for _, name := range Names() {
		pts, err := Generate(name, 500, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if pts.N != 500 {
			t.Fatalf("%s: N=%d", name, pts.N)
		}
	}
	if _, err := Generate("bogus", 10, 1); err == nil {
		t.Fatal("expected error for unknown dataset")
	}
}
