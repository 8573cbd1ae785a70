package pdbscan

import (
	"fmt"

	"pdbscan/internal/cellstore"
	"pdbscan/internal/core"
	"pdbscan/internal/geom"
	"pdbscan/internal/parallel"
)

// WriteStore persists this Clusterer's grid cell structure and points to path
// as an mmap-able cell store (internal/cellstore format), laid out
// shard-contiguously so OpenStoreClusterer + Config.Spill can later cluster
// the dataset one shard window at a time. shards controls the layout
// granularity — more shards mean smaller resident windows for Spill runs;
// shards <= 0 picks roughly one shard per 64k points. The grid structure is
// built first if no run has needed it yet (with a default worker pool).
//
// The store records the permutation back to this Clusterer's point order, so
// runs on the reopened store return labels indexed exactly like runs here.
func (c *Clusterer) WriteStore(path string, shards int) error {
	if c.store != nil {
		return fmt.Errorf("pdbscan: this Clusterer is already store-backed; copy the store file instead of re-exporting it")
	}
	ex := parallel.NewPool(0)
	cells, err := c.cellsFor(false, ex)
	if err != nil {
		return err
	}
	if shards <= 0 {
		shards = c.pts.N / autoShardPoints
		if shards < 1 {
			shards = 1
		}
	}
	part, err := c.partitionFor(cells, shards, ex)
	if err != nil {
		return err
	}
	return cellstore.Write(path, cells, part)
}

// OpenStoreClusterer opens a cell store written by WriteStore and returns a
// Clusterer backed by it. Spill runs (Config.Spill) stream the store one
// shard window at a time under Config.MaxResidentBytes. Every other use —
// non-Spill runs, Prepare, sampled runs, BuildHierarchy — first gathers the
// points from the store once, into the writing Clusterer's point order (a
// heap copy of the payload, as an in-memory Clusterer's cells hold), and
// then runs the normal in-RAM paths. Either way, results are indexed in the
// point order of the Clusterer that wrote the store and are bit-identically
// equal to that Clusterer's own results for every method.
//
// Call Close when done to release the file handle.
func OpenStoreClusterer(path string) (*Clusterer, error) {
	st, err := cellstore.Open(path)
	if err != nil {
		return nil, err
	}
	return &Clusterer{
		// Data stays nil: the in-RAM paths take their points from
		// pointsFor; the metadata-only fields serve NumPoints/Dims/Eps and
		// Spill runs.
		pts:   geom.Points{N: st.NumPoints(), D: st.Dims()},
		eps:   st.Eps(),
		arena: core.NewArena(),
		store: st,
	}, nil
}

// Close releases a store-backed Clusterer's file handle. It is a no-op for
// in-memory Clusterers. The Clusterer must not be used after Close.
func (c *Clusterer) Close() error {
	if c.store == nil {
		return nil
	}
	return c.store.Close()
}
