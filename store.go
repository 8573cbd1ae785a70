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
// shard window at a time under Config.MaxResidentBytes; non-Spill runs map
// the whole point payload (resident on demand via the page cache) and run the
// normal in-RAM paths. Either way, results are indexed in the point order of
// the Clusterer that wrote the store — bit-identically equal to that
// Clusterer's own results for every grid-layout method.
//
// Call Close when done to release the mappings and the file handle.
func OpenStoreClusterer(path string) (*Clusterer, error) {
	st, err := cellstore.Open(path)
	if err != nil {
		return nil, err
	}
	return &Clusterer{
		// Data stays nil until a non-Spill run maps the payload; the
		// metadata-only fields serve NumPoints/Dims/Eps and Spill runs.
		pts:   geom.Points{N: st.NumPoints(), D: st.Dims()},
		eps:   st.Eps(),
		arena: core.NewArena(),
		store: st,
	}, nil
}

// Close releases a store-backed Clusterer's file handle and whole-payload
// mapping. It is a no-op for in-memory Clusterers. The Clusterer must not be
// used after Close.
func (c *Clusterer) Close() error {
	if c.store == nil {
		return nil
	}
	c.storeMu.Lock()
	defer c.storeMu.Unlock()
	if c.storeMap != nil {
		c.storeMap.Release()
		c.storeMap = nil
		c.pts.Data = nil
	}
	return c.store.Close()
}

// ensureMapped makes the whole point payload addressable as c.pts for the
// in-RAM paths of a store-backed Clusterer. Store order is the layout on
// disk; results are scattered back to the writer's order by
// core.ScatterResult.
func (c *Clusterer) ensureMapped() error {
	if c.store == nil || c.pts.Data != nil {
		return nil
	}
	c.storeMu.Lock()
	defer c.storeMu.Unlock()
	if c.pts.Data != nil {
		return nil
	}
	m, err := c.store.MapPoints(0, c.store.NumCells())
	if err != nil {
		return err
	}
	c.storeMap = m
	c.pts.Data = m.Data
	return nil
}
