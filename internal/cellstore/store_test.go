package cellstore

import (
	"encoding/binary"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"pdbscan/internal/geom"
	"pdbscan/internal/grid"
	"pdbscan/internal/parallel"
)

// buildStore writes a small real store and returns its path plus the source
// structure for cross-checking.
func buildStore(t testing.TB, n, d, shards int, seed int64) (string, *grid.Cells, *grid.Partition) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	pts := geom.Points{N: n, D: d, Data: make([]float64, n*d)}
	for i := range pts.Data {
		pts.Data[i] = rng.Float64() * 50
	}
	ex := parallel.NewPool(2)
	cells := grid.BuildGrid(ex, pts, 2.5)
	cells.ComputeNeighborsEnum(ex)
	part, err := grid.MakePartition(ex, cells, shards)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "t.cells")
	if err := Write(path, cells, part); err != nil {
		t.Fatal(err)
	}
	return path, cells, part
}

func TestWriteOpenRoundTrip(t *testing.T) {
	const n, d, shards = 700, 3, 5
	path, cells, part := buildStore(t, n, d, shards, 42)
	st, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	if st.NumPoints() != n || st.Dims() != d || st.NumCells() != cells.NumCells() {
		t.Fatalf("shape: %d pts %d dims %d cells", st.NumPoints(), st.Dims(), st.NumCells())
	}
	if st.NumShards() != part.NumShards {
		t.Fatalf("shards %d vs %d", st.NumShards(), part.NumShards)
	}
	if st.Eps() != cells.Eps {
		t.Fatalf("eps %v vs %v", st.Eps(), cells.Eps)
	}

	// Windows: each shard's window contains the shard itself and is ordered.
	for s := 0; s < st.NumShards(); s++ {
		lo, hi := st.Window(s)
		if lo > s || hi < s || hi >= st.NumShards() {
			t.Fatalf("window of shard %d: [%d,%d]", s, lo, hi)
		}
	}

	// Every stored point must round-trip to the original coordinates, and
	// store cell g must be the writer's cell g.
	m, err := st.MapPoints(0, st.NumCells())
	if err != nil {
		t.Fatal(err)
	}
	defer m.Release()
	for g := 0; g < st.NumCells(); g++ {
		if st.CellPointStart(g) != int(cells.CellStart[g]) {
			t.Fatalf("cell %d starts at store row %d, writer's at %d", g, st.CellPointStart(g), cells.CellStart[g])
		}
		for j := 0; j < d; j++ {
			if st.AbsCoord(g, j) != cells.AbsCoord(g, j) {
				t.Fatalf("cell %d coord %d: %d vs writer's %d", g, j, st.AbsCoord(g, j), cells.AbsCoord(g, j))
			}
		}
	}
	origIdx := st.OrigIdx()
	for p := 0; p < n; p++ {
		op := int(origIdx[p])
		for j := 0; j < d; j++ {
			if m.Data[p*d+j] != cells.Pts.Data[op*d+j] {
				t.Fatalf("point %d dim %d: %v vs original %d's %v", p, j, m.Data[p*d+j], op, cells.Pts.Data[op*d+j])
			}
		}
	}

	// Partial mappings agree with the full payload.
	lo, hi := st.ShardCells(1)
	pm, err := st.MapPoints(lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	defer pm.Release()
	pLo := st.CellPointStart(lo)
	for i, v := range pm.Data {
		if v != m.Data[pLo*d+i] {
			t.Fatalf("partial map diverges at rel float %d", i)
		}
	}
	if pm.PointLo != pLo {
		t.Fatalf("PointLo %d, want %d", pm.PointLo, pLo)
	}

	// A partition whose axis is not the one the cells are ordered by would
	// give a store out of lattice order; Write refuses it.
	other := *part
	other.Axis = (part.Axis + 1) % d
	err = Write(filepath.Join(t.TempDir(), "other.cells"), cells, &other)
	if err == nil || !strings.Contains(err.Error(), "not in lattice order") {
		t.Fatalf("partition along the wrong axis: got error %v", err)
	}
	// Store cell i is the writer's cell i, so shards must own consecutive
	// id ranges in shard order; Write refuses shards in another order.
	other = *part
	other.Owned = slices.Clone(part.Owned)
	other.Owned[0], other.Owned[1] = other.Owned[1], other.Owned[0]
	err = Write(filepath.Join(t.TempDir(), "other.cells"), cells, &other)
	if err == nil || !strings.Contains(err.Error(), "consecutive id ranges") {
		t.Fatalf("shards out of order: got error %v", err)
	}
}

// TestDecodeRejectsCorruption: every kind of damage must produce an error,
// never a panic or a bogus Store.
func TestDecodeRejectsCorruption(t *testing.T) {
	path, _, _ := buildStore(t, 300, 2, 3, 7)
	valid, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(valid); err != nil {
		t.Fatalf("valid image rejected: %v", err)
	}

	// Truncation at every interesting boundary.
	for _, cut := range []int{0, 7, 8, headerSize - 1, headerSize, headerSize + 10, len(valid) / 2, len(valid) - 1} {
		if _, err := Decode(valid[:cut]); err == nil {
			t.Errorf("truncation to %d bytes accepted", cut)
		}
	}

	// Wrong magic and wrong version.
	bad := append([]byte(nil), valid...)
	bad[0] ^= 0xff
	if _, err := Decode(bad); err == nil {
		t.Error("wrong magic accepted")
	}
	bad = append([]byte(nil), valid...)
	bad[8] = 99
	if _, err := Decode(bad); err == nil {
		t.Error("wrong version accepted")
	}

	// Format v2: each of these images carries a valid checksum, so its own
	// check must name the damage.
	for _, tc := range []struct {
		name, want string
		damage     func(img []byte)
	}{
		{"version 1", "unsupported version 1", func(img []byte) {
			binary.LittleEndian.PutUint32(img[8:12], 1)
		}},
		{"axis >= d", "lattice axis 2 out of range", func(img []byte) {
			binary.LittleEndian.PutUint32(img[36:40], 2)
		}},
		{"adjacent cells swapped", "not strictly ascending in lattice order", func(img []byte) {
			st, err := Decode(valid)
			if err != nil {
				t.Fatal(err)
			}
			off := headerSize + 8*st.d + 4*(st.c+1) + 12*st.shards // coords
			a, b := img[off+8*st.d:off+12*st.d], make([]byte, 4*st.d)
			copy(b, a)
			copy(a, img[off+4*st.d:off+8*st.d])
			copy(img[off+4*st.d:], b)
		}},
	} {
		bad := append([]byte(nil), valid...)
		tc.damage(bad)
		restampChecksum(bad)
		if _, err := Decode(bad); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got error %v, want one containing %q", tc.name, err, tc.want)
		}
	}

	// Single bit flips across header and metadata must trip the checksum
	// (or a structural check).
	metaEnd := headerSize + int(metaSize(2, 300, 0, 3)) // d,n known; c unknown — flip within header+some meta
	if metaEnd > len(valid) {
		metaEnd = len(valid)
	}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		pos := rng.Intn(metaEnd)
		bad = append([]byte(nil), valid...)
		bad[pos] ^= 1 << uint(rng.Intn(8))
		if bad[pos] == valid[pos] {
			continue
		}
		if _, err := Decode(bad); err == nil {
			t.Fatalf("bit flip at byte %d accepted", pos)
		}
	}
}

// restampChecksum recomputes the header checksum of a store image in place.
func restampChecksum(img []byte) {
	d := int(binary.LittleEndian.Uint32(img[12:16]))
	n := int(binary.LittleEndian.Uint64(img[16:24]))
	c := int(binary.LittleEndian.Uint64(img[24:32]))
	shards := int(binary.LittleEndian.Uint32(img[32:36]))
	metaEnd := headerSize + int(metaSize(d, n, c, shards))
	sum := fnvSum(fnvSum(fnvNew(), img[0:56]), img[headerSize:metaEnd])
	binary.LittleEndian.PutUint64(img[56:64], sum)
}

// FuzzCellStoreDecode: arbitrary bytes must never panic or allocate
// unboundedly; a successful decode must satisfy the format invariants the
// engine relies on, lattice order included.
func FuzzCellStoreDecode(f *testing.F) {
	path, _, _ := buildStore(f, 200, 2, 3, 9)
	valid, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:headerSize])
	f.Add(valid[:len(valid)/2])
	f.Add([]byte("PDBSCEL1 not a store"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := Decode(data)
		if err != nil {
			return
		}
		// Survivors must be self-consistent.
		if st.NumPoints() < 1 || st.NumCells() < 1 || st.NumShards() < 1 || st.Dims() < 1 {
			t.Fatalf("decoded degenerate store: %d pts %d cells %d shards", st.NumPoints(), st.NumCells(), st.NumShards())
		}
		lo, hi := st.ShardCells(st.NumShards() - 1)
		if hi != st.NumCells() || lo > hi {
			t.Fatalf("last shard cells [%d,%d) do not end at %d", lo, hi, st.NumCells())
		}
		if st.CellPointStart(st.NumCells()) != st.NumPoints() {
			t.Fatal("cell extents do not cover all points")
		}
		if st.Axis() >= st.Dims() {
			t.Fatalf("lattice axis %d of a %d-dim store", st.Axis(), st.Dims())
		}
		key := func(sc int) []int64 {
			k := []int64{st.AbsCoord(sc, st.Axis())}
			for j := 0; j < st.Dims(); j++ {
				if j != st.Axis() {
					k = append(k, st.AbsCoord(sc, j))
				}
			}
			return k
		}
		for sc := 1; sc < st.NumCells(); sc++ {
			if slices.Compare(key(sc-1), key(sc)) >= 0 {
				t.Fatalf("store cells %d and %d out of lattice order", sc-1, sc)
			}
		}
	})
}
