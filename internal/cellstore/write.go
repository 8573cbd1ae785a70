package cellstore

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"

	"pdbscan/internal/grid"
)

// Write persists the grid cell structure c, laid out shard-contiguously by
// part, to path. It writes a temp file, syncs it, renames it over path and
// syncs the directory, so a crash never leaves a partial store behind. c must
// be a grid construction (Coords non-nil) and part a partition of exactly c's
// cells, cut along the axis c's cells are lattice-ordered by — as BuildGrid
// and MakePartition give — so that store order is lattice order.
func Write(path string, c *grid.Cells, part *grid.Partition) error {
	if c.Coords == nil || c.Anchor == nil {
		return fmt.Errorf("cellstore: only the grid construction can be persisted (box cells have no lattice coords)")
	}
	n, d := c.Pts.N, c.Pts.D
	numCells := c.NumCells()
	if n == 0 {
		return fmt.Errorf("cellstore: refusing to write an empty store")
	}
	if d > maxDims {
		return fmt.Errorf("cellstore: %d dims exceeds format limit %d", d, maxDims)
	}
	if part == nil || len(part.ShardOf) != numCells {
		return fmt.Errorf("cellstore: partition does not match the cell structure")
	}
	shards := part.NumShards
	if shards > maxShards {
		return fmt.Errorf("cellstore: %d shards exceeds format limit %d", shards, maxShards)
	}

	// Store order is c's own cell order, so store cell i is cell i and
	// windows need no map back to c's ids. It must be shard-contiguous —
	// shard 0's owned cells, then shard 1's, ... — which makes any shard's
	// halo window one contiguous byte range, and lattice-ordered, because
	// store windows sweep it as such.
	shardEnd := make([]uint32, shards)
	winLo := make([]uint32, shards)
	winHi := make([]uint32, shards)
	next := 0
	for s := 0; s < shards; s++ {
		for _, g := range part.Owned[s] {
			if int(g) != next {
				return fmt.Errorf("cellstore: shard %d owns cell %d where store order needs cell %d (shards must own consecutive id ranges, in order)", s, g, next)
			}
			next++
		}
		shardEnd[s] = uint32(next)
		lo, hi := s, s
		for _, g := range part.Halo[s] {
			if o := int(part.ShardOf[g]); o < lo {
				lo = o
			} else if o > hi {
				hi = o
			}
		}
		winLo[s], winHi[s] = uint32(lo), uint32(hi)
	}
	if next != numCells {
		return fmt.Errorf("cellstore: partition owns %d cells, structure has %d", next, numCells)
	}
	if part.Axis < 0 || part.Axis >= d {
		return fmt.Errorf("cellstore: partition axis %d out of range for %d dims", part.Axis, d)
	}
	for g := 1; g < numCells; g++ {
		if grid.LatticeCmp(c.Coords[(g-1)*d:g*d], c.Coords[g*d:(g+1)*d], part.Axis) >= 0 {
			return fmt.Errorf("cellstore: cells are not in lattice order along partition axis %d", part.Axis)
		}
	}

	metaLen := metaSize(d, n, numCells, shards)
	meta := make([]byte, 0, metaLen)
	putU32 := func(v uint32) { meta = binary.LittleEndian.AppendUint32(meta, v) }
	putU64 := func(v uint64) { meta = binary.LittleEndian.AppendUint64(meta, v) }
	for _, a := range c.Anchor {
		putU64(uint64(a))
	}
	for _, v := range c.CellStart {
		putU32(uint32(v))
	}
	for _, v := range shardEnd {
		putU32(v)
	}
	for _, v := range winLo {
		putU32(v)
	}
	for _, v := range winHi {
		putU32(v)
	}
	for _, v := range c.Coords {
		putU32(uint32(v))
	}
	for _, p := range c.Order {
		putU32(uint32(p))
	}
	if uint64(len(meta)) != metaLen {
		return fmt.Errorf("cellstore: internal error: metadata is %d bytes, expected %d", len(meta), metaLen)
	}

	dataOff := uint64(headerSize) + metaLen
	dataOff = (dataOff + pageAlign - 1) / pageAlign * pageAlign

	var hdr [headerSize]byte
	copy(hdr[0:8], Magic)
	binary.LittleEndian.PutUint32(hdr[8:12], Version)
	binary.LittleEndian.PutUint32(hdr[12:16], uint32(d))
	binary.LittleEndian.PutUint64(hdr[16:24], uint64(n))
	binary.LittleEndian.PutUint64(hdr[24:32], uint64(numCells))
	binary.LittleEndian.PutUint32(hdr[32:36], uint32(shards))
	binary.LittleEndian.PutUint32(hdr[36:40], uint32(part.Axis))
	binary.LittleEndian.PutUint64(hdr[40:48], math.Float64bits(c.Eps))
	binary.LittleEndian.PutUint64(hdr[48:56], dataOff)
	sum := fnvSum(fnvSum(fnvNew(), hdr[0:56]), meta)
	binary.LittleEndian.PutUint64(hdr[56:64], sum)

	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	defer os.Remove(tmp) // no-op after the rename succeeds
	w := bufio.NewWriterSize(f, 1<<20)
	w.Write(hdr[:])
	w.Write(meta)
	for pad := dataOff - uint64(headerSize) - metaLen; pad > 0; pad-- {
		w.WriteByte(0)
	}
	var row [8]byte
	for _, p := range c.Order {
		for _, v := range c.Pts.At(int(p)) {
			binary.LittleEndian.PutUint64(row[:], math.Float64bits(v))
			if _, err := w.Write(row[:]); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	// The data must reach the disk before the rename does: the payload is
	// not checksummed, so a store renamed over unwritten blocks would open
	// and give wrong labels.
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	return SyncDir(filepath.Dir(path))
}

// SyncDir makes a rename inside dir durable. Windows cannot sync a directory
// handle opened read-only (FlushFileBuffers fails with access denied), so
// there the rename is left to the file system.
func SyncDir(dir string) error {
	if runtime.GOOS == "windows" {
		return nil
	}
	f, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = f.Sync()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
