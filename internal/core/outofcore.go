package core

import (
	"fmt"

	"pdbscan/internal/cellstore"
	"pdbscan/internal/geom"
	"pdbscan/internal/grid"
	"pdbscan/internal/parallel"
)

// OOCStats reports the residency accounting of one RunOutOfCore call. All
// figures cover point-data windows only: the run additionally keeps O(n)
// bookkeeping resident (core flags, labels, the cell-level union-find and the
// store metadata), which is orders of magnitude smaller than the points and
// documented as outside the MaxResidentBytes budget.
type OOCStats struct {
	// BytesMapped is the cumulative bytes of point data mapped across every
	// window of both sweeps.
	BytesMapped int64
	// PeakResidentBytes is the largest single window mapping — the most
	// point data resident at any moment (windows are mapped one at a time
	// and released before the next one).
	PeakResidentBytes int64
	// ShardsResidentPeak is the widest halo window, in shards.
	ShardsResidentPeak int
}

// RunOutOfCore executes the pipeline over a cell store without ever holding
// the whole dataset in memory: the sharded executor (runShards) over one
// window per shard, swept in shard order. A window maps only the shard's halo
// window — the contiguous byte range holding the shard plus every shard
// owning one of its halo cells, which is exactly the state the
// partition/merge argument of RunSharded says a shard needs (core marking
// reads halo points; a cross-shard cell-graph edge joins two cells that are
// each in the other's halo). Each window is mapped twice: once for the graph
// sweep and once for the border sweep.
//
// Exactness mirrors RunSharded: a window's cell structure is the store's
// cell-major layout as is (absolute lattice anchoring places every point in
// a bit-identically positioned cell, and the store preserves within-cell
// point order, so every geometric predicate evaluates on identical
// operands), core flags are decomposable and accumulate in one global
// store-order array, and all unions go into one global union-find over the
// *writer's* cell ids, with every pair oriented by those ids as the in-RAM
// window orients it — union-by-min-index roots and DenseRoots label
// assignment then reproduce the in-RAM run's labels bit-for-bit, GraphApprox
// included.
// Store-order results are scattered to the writer's point order at the end.
//
// maxResidentBytes > 0 is a hard budget on a single window mapping: a window
// that exceeds it fails the run with an error naming the shortfall (rewrite
// the store with more shards, or raise the budget).
//
// A Sample mask is rejected: it is keyed by the writer's point order, while
// the windows index core flags in store order.
func RunOutOfCore(store *cellstore.Store, p Params, maxResidentBytes int64) (*Result, *OOCStats, error) {
	if p.Sample != nil {
		return nil, nil, fmt.Errorf("core: RunOutOfCore does not take a Sample mask (its windows index core flags in store order)")
	}
	src := &storeSource{store: store, maxRes: maxResidentBytes}
	res, err := runShards(src, store.Dims(), store.NumPoints(), store.NumCells(), p)
	if err != nil {
		return nil, nil, err
	}
	scatterResult(p.Exec, res, store.OrigIdx())
	return res, &src.stats, nil
}

// scatterResult re-indexes a store-order result in place into the writer's
// point order: labels, core flags and border keys move through origIdx, the
// writer's point index of each store row.
func scatterResult(ex *parallel.Pool, res *Result, origIdx []uint32) {
	n := len(res.Labels)
	labels := make([]int32, n)
	coreFlags := make([]bool, n)
	ex.For(n, func(i int) {
		oi := origIdx[i]
		labels[oi] = res.Labels[i]
		coreFlags[oi] = res.Core[i]
	})
	border := make(map[int32][]int32, len(res.Border))
	for p, ls := range res.Border {
		border[int32(origIdx[p])] = ls
	}
	res.Labels, res.Core, res.Border = labels, coreFlags, border
}

// storeSource is the cell store source: one window per shard, mapped from the
// store. Store cell ids are the writer's cell ids, so a window's local id is
// its global id less the window's first cell.
type storeSource struct {
	store  *cellstore.Store
	maxRes int64
	stats  OOCStats
}

func (s *storeSource) windows() int { return s.store.NumShards() }

// open maps shard sh's halo window and stands the mapped range up as the
// window's cell structure directly — the store already holds the cell-major,
// lattice-ordered layout BuildCellMajor wants, so there is no per-window
// re-gather: no semisort, no coordinate hashing, no cell table, and the
// pipeline's payload aliases the mapping itself (zero copy against the
// residency budget). Local cell ids are store order from the window's first
// cell.
//
// A window builds boxes over every window cell — halo cells are the targets
// of the neighbor sweep, core scans and pair tests — and neighbor lists for
// the owned cells only: every executor step walks Neighbors[g] from an owned
// g, and owned-only lists keep each cell's list to one build per sweep.
func (s *storeSource) open(r *shardRun, sh int, border bool) (*shardWindow, error) {
	store := s.store
	wlo, whi := store.Window(sh)
	cellLo, _ := store.ShardCells(wlo)
	_, cellHi := store.ShardCells(whi)
	m, err := store.MapPoints(cellLo, cellHi)
	if err != nil {
		return nil, err
	}
	if s.maxRes > 0 && m.Bytes > s.maxRes {
		m.Release()
		return nil, fmt.Errorf("core: shard %d's halo window needs %d bytes resident, over the %d-byte budget; rewrite the store with more shards or raise MaxResidentBytes", sh, m.Bytes, s.maxRes)
	}
	s.stats.BytesMapped += m.Bytes
	s.stats.PeakResidentBytes = max(s.stats.PeakResidentBytes, m.Bytes)
	s.stats.ShardsResidentPeak = max(s.stats.ShardsResidentPeak, whi-wlo+1)

	d := store.Dims()
	pts := geom.Points{N: len(m.Data) / d, D: d, Data: m.Data}
	numCells := cellHi - cellLo
	cellStart := make([]int32, numCells+1)
	abs := make([]int64, numCells*d)
	for i := 0; i <= numCells; i++ {
		cellStart[i] = int32(store.CellPointStart(cellLo+i) - m.PointLo)
	}
	if int(cellStart[numCells]) != pts.N {
		m.Release()
		return nil, fmt.Errorf("core: window of shard %d maps %d points, cell offsets say %d (corrupt store?)", sh, pts.N, cellStart[numCells])
	}
	for i := 0; i < numCells; i++ {
		for j := 0; j < d; j++ {
			abs[i*d+j] = store.AbsCoord(cellLo+i, j)
		}
	}
	shardOf := make([]int32, numCells)
	for t := wlo; t <= whi; t++ {
		lo, hi := store.ShardCells(t)
		for i := lo; i < hi; i++ {
			shardOf[i-cellLo] = int32(t)
		}
	}
	ownLo, ownHi := store.ShardCells(sh)
	owned := r.rs.cellIDs(ownLo-cellLo, ownHi-cellLo)

	ex := r.p.Exec
	cells := grid.BuildCellMajor(ex, pts, store.Eps(), cellStart, abs, store.Axis())
	cells.ComputeNeighbors(ex, owned)
	w := &shardWindow{
		st:        r.window(cells, cellLo, m.PointLo),
		owned:     owned,
		cross:     owned,
		shardOf:   shardOf,
		recollect: ownLo - cellLo,
		flagLo:    m.PointLo,
		close:     m.Release,
	}
	if border {
		w.recollect = numCells
	}
	return w, nil
}

func (s *storeSource) label(ex *parallel.Pool, coreFlags []bool, labels []int32, cellLabel func(gc int32) int32) {
	ex.ForGrain(s.store.NumCells(), 8, func(sc int) {
		lbl := cellLabel(int32(sc))
		lo, hi := s.store.CellPointStart(sc), s.store.CellPointStart(sc+1)
		for i := lo; i < hi; i++ {
			if coreFlags[i] {
				labels[i] = lbl
			} else {
				labels[i] = -1
			}
		}
	})
}
