package core

import (
	"fmt"

	"pdbscan/internal/grid"
	"pdbscan/internal/prim"
)

// Incremental carries the pipeline state that survives between streaming
// runs: core flags per point slot and the boolean cell-graph edge set — the
// two caches that skip distance work — plus each small cell's core list as
// cell-relative offsets and each cell's core box, which spare clean cells
// the re-collection. It pairs with grid.Dynamic — the cell slots and point
// slots the caches are keyed by are the ones Dynamic keeps stable across
// mutations — and with the affected set a Snapshot reports: only state whose
// inputs fall in that set is recomputed by RunIncremental. Labels and
// borders are rebuilt every run, and per-cell quadtrees build lazily for
// the cells a run actually queries.
//
// The zero value is not usable; create with NewIncremental. An Incremental
// must not be shared between concurrent RunIncremental calls (the streaming
// API serializes).
type Incremental struct {
	valid  bool
	minPts int // the MinPts coreFlags hold for

	// coreFlags[p] for every point slot; stale entries are overwritten for
	// affected cells and cleared for freed slots on every run.
	coreFlags []bool

	// Per cell slot: the core list of a cell smaller than MinPts as offsets
	// into the cell's row range (row − CellStart[g]; larger cells are
	// all-core), and the core bounding box of every cell. A clean cell keeps
	// its point list across snapshots, so its offsets stay valid while the
	// rows themselves move. Not serialized: listsValid is false after a
	// restore, and the next run re-collects every cell.
	coreOff    [][]int32
	coreBBLo   []float64
	coreBBHi   []float64
	listsValid bool

	// edges holds the connectivity boolean of every neighboring core-cell
	// pair: edges[g] lists, in ascending h order, the booleans for g's
	// neighbors h < g that are core cells (mirroring the sorted Neighbors
	// lists, so a tick can walk cache and neighbor list in lockstep with no
	// lookups). Unlike Run, the incremental path evaluates every pair (no
	// already-connected pruning) precisely so this set is complete: the next
	// tick can then union preserved booleans for clean pairs without
	// re-deriving connectivity order.
	edges    [][]edgeEntry
	edgeKind GraphStrategy // GraphBCP (all exact methods) or GraphApprox
	edgeRho  float64

	// edgesSpare is the previous tick's top-level edge table, recycled as
	// the next tick's newEdges so a steady-state tick allocates no
	// cell-count-sized table. Only the outer slice is reused — the per-cell
	// entry lists may be aliased between consecutive tables (the clean-cell
	// fast path re-points them), so entries are never appended in place.
	edgesSpare [][]edgeEntry
}

// NewIncremental returns an empty cache; the first RunIncremental on it
// computes everything and later runs reuse whatever the DirtyInfo allows.
func NewIncremental() *Incremental {
	return &Incremental{}
}

// Fresh reports whether the cache has absorbed no run yet — the next
// RunIncremental on it recomputes everything regardless of the DirtyInfo.
// Callers use it to report full rebuilds (e.g. after a sharded run dropped
// the caches) honestly in their stats.
func (inc *Incremental) Fresh() bool { return !inc.valid }

// edgeEntry records one evaluated cell-graph pair (h < g, stored under g).
type edgeEntry struct {
	h    int32
	conn bool
}

// RunIncremental executes the pipeline over a Dynamic snapshot, recomputing
// MarkCore and the cell-graph edges only for cells in dirty's affected set
// (plus everything, when MinPts or the connectivity kind changed since the
// cached state was built) and reusing inc's caches for the rest. Clean
// cells' core lists are rebased from cached offsets, cluster connectivity is
// rebuilt from the preserved + recomputed edge booleans with a fresh
// union-find, and labels and borders are re-derived in full — all cheap
// linear passes compared to the distance work the caches avoid.
//
// The result is exactly the clustering Run produces on the same cells, up to
// cluster label permutation. The exact graph strategies (BCP, quadtree, USEC,
// Delaunay) all define the same cell connectivity, so the incremental path
// evaluates exact edges with filtered BCP regardless of which exact strategy
// p.Graph names; GraphApprox keeps its approximate quadtree semantics
// (deterministic per cell pair, hence cacheable). Bucketing is a scheduling
// heuristic for the pruned batch path and is ignored here.
func RunIncremental(cells *grid.Cells, p Params, inc *Incremental, dirty *grid.DirtyInfo) (*Result, error) {
	if err := validateParams(cells, &p); err != nil {
		return nil, err
	}
	if inc == nil || dirty == nil {
		return nil, fmt.Errorf("core: RunIncremental requires an Incremental cache and DirtyInfo")
	}
	if p.Sample != nil {
		return nil, fmt.Errorf("core: sampled-core mode is batch-only (no incremental path)")
	}

	// Normalize the connectivity kind: every exact strategy shares one edge
	// boolean ("some core pair within eps"), computed by filtered BCP.
	kind := GraphBCP
	if p.Graph == GraphApprox {
		kind = GraphApprox
	}
	p.Graph = kind

	numCells := cells.NumCells()
	n := cells.Pts.N

	// Core-dirty: the cell's own point set (or its eps-neighborhood) changed,
	// or the cached core flags were computed for a different MinPts. The hot
	// loops take (allDirty, affected) directly — a closure call per neighbor
	// visit is measurable at cell-graph scale.
	allDirty := dirty.Full || !inc.valid || p.MinPts != inc.minPts
	affected := dirty.Affected

	st := newPipeline(cells, p)
	defer st.release()

	// Cancellation boundary: a cancelled incremental run leaves inc's caches
	// half-absorbed (flags, offsets, boxes and edges are updated in place),
	// so the cache is poisoned before the error returns — the owner either
	// drops it (StreamingClusterer replaces a failed run's cache) or the next
	// run sees Fresh() and recomputes everything. Either way no stale entry
	// survives.
	boundary := func(name string) error {
		err := st.phase(name)
		if err != nil {
			inc.valid = false
		}
		return err
	}

	// MarkCore, restricted to core-dirty cells over the cached flags.
	if err := boundary("mark"); err != nil {
		return nil, err
	}
	if len(inc.coreFlags) < n {
		inc.coreFlags = append(inc.coreFlags, make([]bool, n-len(inc.coreFlags))...)
	}
	st.coreFlags = inc.coreFlags[:n]
	if p.Mark == MarkQuadtree {
		st.rs.allTrees = lazyTreeBuf(st.rs.allTrees, numCells)
		st.allTrees = st.rs.allTrees
	}
	st.ex.For(n, func(i int) {
		if cells.CellOf[i] < 0 {
			st.coreFlags[i] = false // freed point slot
		}
	})
	st.ex.BlockedFor(numCells, 1, func(lo, hi int) {
		ws := st.getWS()
		for g := lo; g < hi; g++ {
			if st.cancelled() {
				break
			}
			if (allDirty || affected[g]) && cells.CellSize(g) > 0 {
				st.markCellCore(g, ws)
			}
		}
		st.putWS(ws)
	})

	if err := boundary("collect"); err != nil {
		return nil, err
	}
	st.collectCoreIncremental(inc, !allDirty && inc.listsValid, affected)
	if err := boundary("graph"); err != nil {
		return nil, err
	}
	st.clusterCoreIncremental(inc, kind, allDirty, affected)
	if err := boundary("label"); err != nil {
		return nil, err
	}
	labels, numClusters := st.coreLabels()
	if err := boundary("border"); err != nil {
		return nil, err
	}
	border := st.clusterBorder(labels, numClusters)
	if err := boundary("done"); err != nil {
		return nil, err
	}
	inc.valid = true
	inc.listsValid = true
	inc.minPts = p.MinPts

	// The result's flags must not alias the cache (the cache mutates on the
	// next run).
	coreOut := make([]bool, n)
	copy(coreOut, st.coreFlags)
	return &Result{
		Core:        coreOut,
		Labels:      labels,
		Border:      border,
		NumClusters: numClusters,
	}, nil
}

// collectCoreIncremental is collectCore over the cached offsets and boxes:
// with reuse, a clean cell rebases its cached offsets onto this snapshot's
// rows (a cell of at least MinPts points aliases its whole row range) and
// keeps its cached box; every other cell re-derives list and box from the
// flags and refreshes the cache.
func (st *pipeline) collectCoreIncremental(inc *Incremental, reuse bool, affected []bool) {
	c := st.cells
	numCells := c.NumCells()
	nb := numCells * c.Pts.D
	st.initCoreState()
	for len(inc.coreOff) < numCells {
		inc.coreOff = append(inc.coreOff, nil)
	}
	if len(inc.coreBBLo) < nb {
		inc.coreBBLo = append(inc.coreBBLo, make([]float64, nb-len(inc.coreBBLo))...)
		inc.coreBBHi = append(inc.coreBBHi, make([]float64, nb-len(inc.coreBBHi))...)
	}
	st.coreBBLo, st.coreBBHi = inc.coreBBLo[:nb], inc.coreBBHi[:nb]
	st.ex.ForGrain(numCells, 1, func(g int) {
		base := c.CellStart[g]
		small := c.CellSize(g) < st.p.MinPts
		if reuse && !affected[g] {
			if !small {
				st.corePts[g] = c.RowsOf(g)
				return
			}
			off := inc.coreOff[g]
			core := st.coreStore[base : base : base+int32(len(off))]
			for _, o := range off {
				core = append(core, base+o)
			}
			st.corePts[g] = core
			return
		}
		st.collectCellCore(g)
		if small {
			off := inc.coreOff[g][:0]
			for _, r := range st.corePts[g] {
				off = append(off, r-base)
			}
			inc.coreOff[g] = off
		}
	})
	st.coreCells = prim.FilterIndex(st.ex, numCells, func(g int) bool {
		return len(st.corePts[g]) > 0
	})
}

// clusterCoreIncremental builds the cell graph like clusterCore, but
// evaluates the connectivity boolean of every neighboring core-cell pair —
// reusing the cached boolean when both endpoints are outside the core-dirty
// set — and unions all true edges into a fresh union-find. Evaluating every
// pair (instead of pruning already-connected ones) is what keeps inc.edges a
// complete function of the point set, so cleanness of the two endpoint cells
// alone certifies a cached value.
func (st *pipeline) clusterCoreIncremental(inc *Incremental, kind GraphStrategy, allDirty bool, affected []bool) {
	numCells := st.cells.NumCells()
	st.initUF(numCells)

	connect := st.connectFn() // p.Graph is normalized to kind

	// A cached edge boolean is reusable only if it was computed by the same
	// deterministic function: same MinPts (core point sets), same kind, and
	// same rho for approx.
	reusable := inc.valid && inc.minPts == st.p.MinPts &&
		inc.edgeKind == kind && (kind != GraphApprox || inc.edgeRho == st.p.Rho)

	evaluate := func(g, h int32, ws *workerScratch) bool {
		// The core-bounding-box filter is part of the edge function (shared
		// with clusterCore, so the booleans — and for approx, the actual
		// query sequence — match the from-scratch path).
		if st.k.BoxBoxDistSqAt(st.coreBBLo, st.coreBBHi, g, h) > st.eps2 {
			return false
		}
		return connect(g, h, ws)
	}

	// Recycle the previous tick's top-level table (cleared to full capacity:
	// stale entries must not pin vanished cells' lists even when the cell
	// count shrank); the per-cell entry lists are never reused in place —
	// see the edgesSpare invariant.
	newEdges := inc.edgesSpare
	if cap(newEdges) < numCells {
		newEdges = make([][]edgeEntry, numCells)
	} else {
		newEdges = newEdges[:cap(newEdges)]
		clear(newEdges)
		newEdges = newEdges[:numCells]
	}
	st.ex.BlockedFor(len(st.coreCells), 1, func(blo, bhi int) {
		ws := st.getWS()
		defer st.putWS(ws)
		for i := blo; i < bhi; i++ {
			if st.cancelled() {
				break // partial edge table; RunIncremental poisons the cache
			}
			g := st.coreCells[i]
			// A clean cell's cached entry list is aligned with its (unchanged,
			// sorted) neighbor list: walk the two in lockstep. An entry whose h
			// is clean carries a valid boolean; affected h's are re-evaluated
			// (their core point set may have changed).
			var prev []edgeEntry
			if reusable && !allDirty && !affected[g] && int(g) < len(inc.edges) {
				prev = inc.edges[g]
				// Fast path: no neighbor below g is dirty, so the cached entry
				// list is valid wholesale — just union its true edges.
				fast := true
				for _, h := range st.cells.Neighbors[g] {
					if h < g && affected[h] {
						fast = false
						break
					}
				}
				if fast {
					for _, e := range prev {
						if e.conn {
							st.uf.Union(g, e.h)
						}
					}
					newEdges[g] = prev
					continue
				}
			}
			pi := 0
			out := make([]edgeEntry, 0, len(prev))
			for _, h := range st.cells.Neighbors[g] {
				if h >= g || len(st.corePts[h]) == 0 {
					continue
				}
				for pi < len(prev) && prev[pi].h < h {
					pi++
				}
				var conn bool
				if prev != nil && !affected[h] && pi < len(prev) && prev[pi].h == h {
					conn = prev[pi].conn
				} else {
					conn = evaluate(g, h, ws)
				}
				out = append(out, edgeEntry{h: h, conn: conn})
				if conn {
					st.uf.Union(g, h)
				}
			}
			newEdges[g] = out
		}
	})

	// Replace the edge cache wholesale: entries for vanished cells drop out
	// by construction. The displaced table becomes the next tick's spare.
	inc.edgesSpare = inc.edges
	inc.edges = newEdges
	inc.edgeKind = kind
	inc.edgeRho = st.p.Rho
}
