// Package cellstore persists a grid cell structure (internal/grid.Cells plus
// its shard Partition) as a flat, versioned, mmap-able file, so that a run can
// page point data in one shard window at a time instead of holding the whole
// dataset in RAM (the out-of-core mode of core.RunOutOfCore), and so that a
// server can snapshot streaming state across restarts.
//
// # Layout (version 2, all integers little-endian)
//
//	offset  size
//	0       8      magic "PDBSCEL1"
//	8       4      version (uint32, = 2)
//	12      4      dims (uint32)
//	16      8      numPoints n (uint64)
//	24      8      numCells c (uint64)
//	32      4      numShards (uint32)
//	36      4      lattice axis (uint32, < dims)
//	40      8      eps (float64 bits)
//	48      8      dataOff (uint64, multiple of 8; page-aligned when written)
//	56      8      FNV-64a checksum of bytes [0,56) and [64, 64+metaLen)
//	64      —      metadata:
//	                 anchor       [d]int64      absolute lattice anchor
//	                 cellStart    [c+1]uint32   point extents, store order
//	                 shardCellEnd [S]uint32     shard s owns store cells
//	                                            [shardCellEnd[s-1], shardCellEnd[s])
//	                 winLo, winHi [S]uint32     halo window of shard s in shards
//	                 coords       [c*d]int32    lattice coords relative to anchor
//	                 origIdx      [n]uint32     original point index per store row
//	...padding to dataOff...
//	dataOff n*d*8  float64 point rows, store order
//
// Store order is lattice order: cells strictly ascending by coordinate, the
// lattice axis first, then the other axes in increasing index order (see
// grid.LatticeCmp). The shards are cut along the lattice axis, so store order
// is also shard-contiguous — the cells of shard 0, then shard 1, and so on —
// and the halo window of any shard is one contiguous byte range of the data
// section that maps as a single mmap call. It is also the writer's own cell
// numbering — store cell i is the writer's cell i, which Write checks — so
// the out-of-core engine runs its union-find over store cell ids and needs
// no map back to the writer's. origIdx records the permutation back to the
// writer's point order; scattering outputs through it is what makes the
// engine's labels bit-identical to an in-RAM run.
// Store windows build their neighbor lists by sweeping lattice rows, so Open
// rejects a store whose cells are out of order rather than give wrong lists.
//
// The checksum covers the header and metadata only — the point payload can be
// tens of gigabytes and is exactly the part mmap'd on demand, so it is
// validated structurally (size bound) rather than hashed at open.
package cellstore

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"

	"pdbscan/internal/grid"
)

const (
	// Magic identifies a cell store file (version in the following u32).
	Magic = "PDBSCEL1"
	// Version is the current format version.
	Version = 2

	headerSize = 64
	// pageAlign is the alignment of dataOff chosen by the writer. Readers
	// only require multiple-of-8 (the float64 view), so the format stays
	// valid on hosts with larger pages.
	pageAlign = 4096

	maxDims   = 1 << 9
	maxShards = 1 << 20
)

// Store is a read handle on a cell store file. Metadata (O(n+c) integers) is
// held in memory; point data is mapped on demand with MapPoints, which is the
// unit of residency the out-of-core engine accounts against its budget.
type Store struct {
	d, n, c, shards int
	axis            int // primary axis of the lattice order
	eps, side       float64
	dataOff         int64

	anchor    []int64
	cellStart []uint32 // len c+1, point extents in store order
	shardEnd  []uint32 // len shards, cumulative cell counts
	winLo     []uint32 // len shards
	winHi     []uint32
	coords    []int32  // c*d, relative to anchor
	origIdx   []uint32 // len n

	f   *os.File // nil for in-memory stores (Decode)
	mem []byte   // in-memory image; point windows are served as views
}

// Open opens a cell store file for reading, validating the header, checksum,
// and metadata invariants before returning.
func Open(path string) (*Store, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	var hdr [headerSize]byte
	if _, err := f.ReadAt(hdr[:], 0); err != nil {
		f.Close()
		return nil, fmt.Errorf("cellstore: %s: reading header: %w", path, err)
	}
	st, err := parseHeader(hdr[:], fi.Size())
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("cellstore: %s: %w", path, err)
	}
	// Read header+metadata in one shot; the data section stays on disk.
	meta := make([]byte, st.dataOff)
	if _, err := f.ReadAt(meta, 0); err != nil {
		f.Close()
		return nil, fmt.Errorf("cellstore: %s: reading metadata: %w", path, err)
	}
	if err := st.parseMeta(meta); err != nil {
		f.Close()
		return nil, fmt.Errorf("cellstore: %s: %w", path, err)
	}
	st.f = f
	return st, nil
}

// Decode parses an in-memory store image. Point windows are served as views
// of data (no copies). Used by tests and the decode fuzzer; Open is the file
// path. Decode never panics on corrupt input and allocates no buffer larger
// than the image itself.
func Decode(data []byte) (*Store, error) {
	if len(data) < headerSize {
		return nil, fmt.Errorf("cellstore: image shorter than header (%d bytes)", len(data))
	}
	st, err := parseHeader(data[:headerSize], int64(len(data)))
	if err != nil {
		return nil, fmt.Errorf("cellstore: %w", err)
	}
	if err := st.parseMeta(data[:st.dataOff]); err != nil {
		return nil, fmt.Errorf("cellstore: %w", err)
	}
	st.mem = data
	return st, nil
}

// parseHeader validates the fixed header against the total image/file size
// and returns a Store with the scalar fields set. Every count is bounded
// against the actual size before anything is allocated, so a corrupt header
// cannot trigger a huge allocation.
func parseHeader(hdr []byte, totalSize int64) (*Store, error) {
	if string(hdr[0:8]) != Magic {
		return nil, fmt.Errorf("bad magic %q", hdr[0:8])
	}
	version := binary.LittleEndian.Uint32(hdr[8:12])
	if version != Version {
		return nil, fmt.Errorf("unsupported version %d (want %d)", version, Version)
	}
	d := binary.LittleEndian.Uint32(hdr[12:16])
	n := binary.LittleEndian.Uint64(hdr[16:24])
	c := binary.LittleEndian.Uint64(hdr[24:32])
	shards := binary.LittleEndian.Uint32(hdr[32:36])
	axis := binary.LittleEndian.Uint32(hdr[36:40])
	eps := math.Float64frombits(binary.LittleEndian.Uint64(hdr[40:48]))
	dataOff := binary.LittleEndian.Uint64(hdr[48:56])

	if d == 0 || d > maxDims {
		return nil, fmt.Errorf("dims %d out of range [1,%d]", d, maxDims)
	}
	if n == 0 || n > math.MaxInt32 {
		return nil, fmt.Errorf("point count %d out of range [1,2^31)", n)
	}
	if c == 0 || c > n {
		return nil, fmt.Errorf("cell count %d out of range [1,n=%d]", c, n)
	}
	if shards == 0 || uint64(shards) > c || shards > maxShards {
		return nil, fmt.Errorf("shard count %d out of range [1,min(c,%d)]", shards, maxShards)
	}
	if axis >= d {
		return nil, fmt.Errorf("lattice axis %d out of range for %d dims", axis, d)
	}
	if !(eps > 0) || math.IsInf(eps, 0) {
		return nil, fmt.Errorf("eps %v not a positive finite value", eps)
	}
	metaLen := metaSize(int(d), int(n), int(c), int(shards))
	if dataOff%8 != 0 || dataOff < headerSize+metaLen {
		return nil, fmt.Errorf("dataOff %d invalid (metadata needs %d bytes)", dataOff, headerSize+metaLen)
	}
	need := dataOff + n*uint64(d)*8
	if need > uint64(totalSize) {
		return nil, fmt.Errorf("file is %d bytes, need %d for %d points", totalSize, need, n)
	}
	return &Store{
		d:       int(d),
		n:       int(n),
		c:       int(c),
		shards:  int(shards),
		axis:    int(axis),
		eps:     eps,
		side:    eps / math.Sqrt(float64(d)),
		dataOff: int64(dataOff),
	}, nil
}

func metaSize(d, n, c, shards int) uint64 {
	return 8*uint64(d) + // anchor
		4*uint64(c+1) + // cellStart
		12*uint64(shards) + // shardCellEnd, winLo, winHi
		4*uint64(c)*uint64(d) + // coords
		4*uint64(n) // origIdx
}

// parseMeta verifies the checksum over img (header + metadata) and decodes the
// metadata arrays into owned slices, then validates every structural
// invariant the engine relies on (monotone extents, window bounds, lattice
// order, permutation-ness of origIdx).
func (st *Store) parseMeta(img []byte) error {
	metaLen := metaSize(st.d, st.n, st.c, st.shards)
	if uint64(len(img)) < headerSize+metaLen {
		return fmt.Errorf("metadata truncated: have %d bytes, need %d", len(img), headerSize+metaLen)
	}
	h := fnvNew()
	h = fnvSum(h, img[0:56])
	h = fnvSum(h, img[headerSize:headerSize+int(metaLen)])
	want := binary.LittleEndian.Uint64(img[56:64])
	if h != want {
		return fmt.Errorf("checksum mismatch: computed %016x, header says %016x", h, want)
	}

	off := headerSize
	i64s := func(k int) []int64 {
		out := make([]int64, k)
		for i := range out {
			out[i] = int64(binary.LittleEndian.Uint64(img[off:]))
			off += 8
		}
		return out
	}
	u32s := func(k int) []uint32 {
		out := make([]uint32, k)
		for i := range out {
			out[i] = binary.LittleEndian.Uint32(img[off:])
			off += 4
		}
		return out
	}
	i32s := func(k int) []int32 {
		out := make([]int32, k)
		for i := range out {
			out[i] = int32(binary.LittleEndian.Uint32(img[off:]))
			off += 4
		}
		return out
	}
	st.anchor = i64s(st.d)
	st.cellStart = u32s(st.c + 1)
	st.shardEnd = u32s(st.shards)
	st.winLo = u32s(st.shards)
	st.winHi = u32s(st.shards)
	st.coords = i32s(st.c * st.d)
	st.origIdx = u32s(st.n)

	if st.cellStart[0] != 0 || st.cellStart[st.c] != uint32(st.n) {
		return fmt.Errorf("cell extents do not cover [0,%d)", st.n)
	}
	for g := 0; g < st.c; g++ {
		if st.cellStart[g] >= st.cellStart[g+1] {
			return fmt.Errorf("cell %d empty or extents not increasing", g)
		}
	}
	prev := uint32(0)
	for s := 0; s < st.shards; s++ {
		if st.shardEnd[s] < prev || st.shardEnd[s] > uint32(st.c) {
			return fmt.Errorf("shard cell boundaries not monotone")
		}
		prev = st.shardEnd[s]
		if int(st.winLo[s]) > s || int(st.winHi[s]) < s || st.winHi[s] >= uint32(st.shards) {
			return fmt.Errorf("shard %d window [%d,%d] does not contain it", s, st.winLo[s], st.winHi[s])
		}
	}
	if st.shardEnd[st.shards-1] != uint32(st.c) {
		return fmt.Errorf("shard cell boundaries do not cover all %d cells", st.c)
	}
	for g := 1; g < st.c; g++ {
		prev, cur := st.coords[(g-1)*st.d:g*st.d], st.coords[g*st.d:(g+1)*st.d]
		if grid.LatticeCmp(prev, cur, st.axis) >= 0 {
			return fmt.Errorf("cells %d and %d not strictly ascending in lattice order (axis %d)", g-1, g, st.axis)
		}
	}
	if err := checkPermutation(st.origIdx, st.n, "origIdx"); err != nil {
		return err
	}
	return nil
}

// checkPermutation verifies that a is a permutation of [0,k).
func checkPermutation(a []uint32, k int, name string) error {
	seen := make([]bool, k)
	for _, v := range a {
		if int(v) >= k || seen[v] {
			return fmt.Errorf("%s is not a permutation of [0,%d)", name, k)
		}
		seen[v] = true
	}
	return nil
}

// Close releases the file handle. In-flight Mappings stay valid until their
// own Release (mmap regions outlive the descriptor).
func (st *Store) Close() error {
	if st.f != nil {
		err := st.f.Close()
		st.f = nil
		return err
	}
	return nil
}

// Dims returns the point dimensionality.
func (st *Store) Dims() int { return st.d }

// NumPoints returns the number of points.
func (st *Store) NumPoints() int { return st.n }

// NumCells returns the number of cells.
func (st *Store) NumCells() int { return st.c }

// NumShards returns the number of shards the store was written with.
func (st *Store) NumShards() int { return st.shards }

// Axis returns the primary axis of the lattice order the store's cells are
// in (the axis its shards were cut along).
func (st *Store) Axis() int { return st.axis }

// Eps returns the radius the cell lattice was built for.
func (st *Store) Eps() float64 { return st.eps }

// Side returns the lattice cell side, eps/sqrt(d).
func (st *Store) Side() float64 { return st.side }

// DatasetBytes returns the size of the point payload.
func (st *Store) DatasetBytes() int64 { return int64(st.n) * int64(st.d) * 8 }

// ShardCells returns the store cell index range [lo,hi) owned by shard s.
func (st *Store) ShardCells(s int) (lo, hi int) {
	if s > 0 {
		lo = int(st.shardEnd[s-1])
	}
	return lo, int(st.shardEnd[s])
}

// Window returns the contiguous shard range [loShard,hiShard] that must be
// resident to mark and stitch shard s: s itself plus every shard owning one
// of its halo cells. Shard-contiguous store order makes this one byte range.
func (st *Store) Window(s int) (loShard, hiShard int) {
	return int(st.winLo[s]), int(st.winHi[s])
}

// CellPointStart returns the store point index where cell sc's rows begin;
// CellPointStart(NumCells()) == NumPoints().
func (st *Store) CellPointStart(sc int) int { return int(st.cellStart[sc]) }

// OrigIdx returns the original point index per store row (a view; do not
// mutate).
func (st *Store) OrigIdx() []uint32 { return st.origIdx }

// AbsCoord returns the absolute lattice coordinate of store cell sc in
// dimension j — the same quantity grid.(*Cells).AbsCoord returns for the
// matching cell of any build over these points, which is what lets the
// out-of-core engine match window-local cells to store cells exactly.
func (st *Store) AbsCoord(sc, j int) int64 {
	return st.anchor[j] + int64(st.coords[sc*st.d+j])
}

// Mapping is a resident window of point data: the rows of store cells
// [CellLo,CellHi), as a float64 view. Bytes is the actual number of bytes
// made resident (page rounding included) — the figure the out-of-core engine
// charges against Config.MaxResidentBytes.
type Mapping struct {
	Data    []float64 // rows of points [PointLo, PointLo+len/d), store order
	PointLo int       // store point index of Data's first row
	Bytes   int64
	release func()
}

// Release unmaps the window. The Data view is invalid afterwards.
func (m *Mapping) Release() {
	if m.release != nil {
		m.release()
		m.release = nil
	}
	m.Data = nil
}

// MapPoints makes the rows of store cells [cellLo, cellHi) resident and
// returns the window. File-backed stores mmap the byte range read-only (one
// syscall — store order is shard-contiguous by construction); in-memory
// stores return a view.
func (st *Store) MapPoints(cellLo, cellHi int) (*Mapping, error) {
	if cellLo < 0 || cellHi > st.c || cellLo >= cellHi {
		return nil, fmt.Errorf("cellstore: MapPoints range [%d,%d) invalid for %d cells", cellLo, cellHi, st.c)
	}
	pLo := int(st.cellStart[cellLo])
	pHi := int(st.cellStart[cellHi])
	byteLo := st.dataOff + int64(pLo)*int64(st.d)*8
	byteLen := int64(pHi-pLo) * int64(st.d) * 8
	if st.mem != nil {
		return &Mapping{
			Data:    float64View(st.mem[byteLo:byteLo+byteLen], (pHi-pLo)*st.d),
			PointLo: pLo,
			Bytes:   byteLen,
		}, nil
	}
	if st.f == nil {
		return nil, fmt.Errorf("cellstore: store is closed")
	}
	return mapRange(st.f, byteLo, byteLen, (pHi-pLo)*st.d, pLo)
}
