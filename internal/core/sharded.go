package core

import (
	"fmt"

	"pdbscan/internal/grid"
	"pdbscan/internal/parallel"
	"pdbscan/internal/prim"
	"pdbscan/internal/unionfind"
)

// RunSharded executes the pipeline as a partition/merge computation over a
// spatial Partition of the cells: the sharded executor (runShards) over one
// window that holds every shard. Several shards run each step in parallel,
// each shard serially; one shard (Run) runs each step as a parallel loop
// over its cells. Cross-shard pairs are visited only from the Partition's
// Boundary cells.
//
// The result is the same for every partition of the same cells — bit for
// bit, not merely up to label permutation — for every strategy including
// GraphApprox:
//
//   - Core flags are decomposable: a point's flag depends only on points
//     within eps, all reachable through its cell's neighbor list regardless
//     of which shard owns them (halo cells are read, never written).
//   - Every per-pair connectivity predicate (connectFn) is a pure function
//     of the oriented cell pair, and processPair orients every pair by
//     global cell id, so the connected components equal those of the full
//     edge set no matter which step — intra-shard or cross-shard —
//     evaluates an edge, or skips it as already connected. GraphDelaunay has
//     no per-pair predicate; each shard triangulates its own core points
//     (the subset triangulation contains the subset's Euclidean MST,
//     preserving every intra-shard eps-connection) and cross-shard edges use
//     exact BCP, which lands on the same exact components every exact
//     strategy defines.
//   - Union-by-index makes a component's root its minimum cell index —
//     independent of union order — and DenseRoots assigns labels by root
//     order, so equal components mean equal labels.
//
// Bucketing (Section 4.4) schedules a one-shard window's graph step in
// size-sorted batches. A window with several shards ignores it: each shard
// already processes its cells in size-sorted order, serially, so earlier
// (larger) cells prune later queries within the shard. Results are
// unaffected either way (the components do not depend on evaluation order).
//
// A Sample mask is keyed by original point index, as the in-RAM window's
// core flags are.
func RunSharded(cells *grid.Cells, p Params, part *grid.Partition) (*Result, error) {
	if cells.Neighbors == nil || part == nil || len(part.ShardOf) != cells.NumCells() {
		return nil, fmt.Errorf("core: RunSharded requires cells with neighbor lists and a Partition of them")
	}
	src := &ramSource{cells: cells, part: part}
	defer src.release()
	return runShards(src, cells.Pts.D, cells.Pts.N, cells.NumCells(), p)
}

// shardSource yields the windows a sharded run sweeps. A window is a cell
// structure holding one or more whole shards plus their halos.
type shardSource interface {
	// windows is the number of windows per sweep.
	windows() int
	// open readies window w of the graph sweep or of the border sweep,
	// standing its pipeline up with r.window.
	open(r *shardRun, w int, border bool) (*shardWindow, error)
	// label writes every point's label in flag order: cellLabel(gc) for the
	// core points of global cell gc, -1 for every other point.
	label(ex *parallel.Pool, coreFlags []bool, labels []int32, cellLabel func(gc int32) int32)
}

// shardWindow is one open window: its pipeline (whose core flags and
// union-find are the run's) and the shards it owns.
type shardWindow struct {
	st      *pipeline
	owned   [][]int32 // per owned shard: its cells, ascending local ids
	cross   [][]int32 // per owned shard: the owned cells that may neighbor an earlier shard
	shardOf []int32   // local cell -> shard
	// recollect is the number of leading local cells whose core state this
	// window rebuilds from the run's flags before the step that reads it:
	// earlier shards' cells before the cross-shard pairs, every cell before
	// the borders of a window mapped afresh.
	recollect int
	flagLo    int    // the run's flag index of the window's first point
	close     func() // nil: the window stays open for the next sweep
}

// shardRun is the state of one run of the executor, keyed globally: core
// flags and labels in flag order, and the union-find over global cell ids.
type shardRun struct {
	phaseClock
	p         Params
	src       shardSource
	uf        *unionfind.UF
	coreFlags []bool
	hasCore   []bool // per global cell: holds a core point
	labels    []int32
	border    borderSet
}

// runShards is the batch executor, behind Run, RunSharded and RunOutOfCore:
// run with the batch graph step, graphSteps. Its graph sweep runs, per
// window, the steps "mark" (MarkCore and core collection for the owned
// cells), "graph" (the intra-shard cell graph) and "merge" (every pair
// between an owned cell and a cell of an earlier shard — each cross-shard
// pair once, in the step of its later shard).
func runShards(src shardSource, d, n, numCells int, p Params) (*Result, error) {
	if err := validateParams(d, n, &p); err != nil {
		return nil, err
	}
	r := newShardRun(src, numCells, p, make([]bool, n)) // flags escape into Result.Core
	return r.run(r.graphSteps)
}

// newShardRun readies a run over the source's numCells global cells whose
// core flags, in flag order, are coreFlags.
func newShardRun(src shardSource, numCells int, p Params, coreFlags []bool) *shardRun {
	r := &shardRun{
		p:         p,
		src:       src,
		uf:        unionfind.New(numCells),
		coreFlags: coreFlags,
		hasCore:   make([]bool, numCells),
		border:    borderSet{m: make(map[int32][]int32)},
	}
	r.phaseClock.p = &r.p
	return r
}

// run is the one step sequence of every clustering run. The graph sweep
// runs graph on each window; graph must leave the run's core flags final,
// hasCore set for every global cell holding a core point, and every core
// cell edge unioned into the run's union-find. Labels are then assigned once
// over the global cells ("label"), and the border sweep attaches every
// window's owned non-core points ("border").
func (r *shardRun) run(graph func(*shardWindow) error) (*Result, error) {
	if err := r.sweep(false, graph); err != nil {
		return nil, err
	}
	if err := r.phase("label"); err != nil {
		return nil, err
	}
	ex := r.p.Exec
	roots, dense := unionfind.DenseRoots(ex, r.uf, func(g int32) bool { return r.hasCore[g] })
	r.labels = make([]int32, len(r.coreFlags))
	r.src.label(ex, r.coreFlags, r.labels, func(gc int32) int32 {
		if !r.hasCore[gc] {
			return -1
		}
		return dense[r.uf.Find(gc)]
	})
	if err := r.sweep(true, r.borderStep); err != nil {
		return nil, err
	}
	if err := r.phase("done"); err != nil {
		return nil, err
	}
	return &Result{
		Core:        r.coreFlags,
		Labels:      r.labels,
		Border:      r.border.m,
		NumClusters: len(roots),
	}, nil
}

// sweep opens each window in turn, runs step on it and closes it. Steps end
// by closing their last phase, and sweep closes any phase still open before
// it opens a window, so opening and closing windows stays outside every
// phase.
func (r *shardRun) sweep(border bool, step func(*shardWindow) error) error {
	for w := range r.src.windows() {
		if err := r.phase(""); err != nil {
			return err
		}
		win, err := r.src.open(r, w, border)
		if err != nil {
			return err
		}
		err = step(win)
		if win.close != nil {
			win.close()
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// window stands a pipeline up over a window's cells: its core flags are the
// run's, from flag index flagLo on, and its unions land in the run's
// union-find, local cell g as global cell cellLo+g. The caller releases it.
func (r *shardRun) window(cells *grid.Cells, cellLo, flagLo int) *pipeline {
	st := newPipeline(cells, r.p)
	st.cellLo = int32(cellLo)
	st.uf = r.uf
	st.coreFlags = r.coreFlags[flagLo : flagLo+cells.Pts.N]
	if st.p.Mark == MarkQuadtree {
		st.rs.allTrees = lazyTreeBuf(st.rs.allTrees, cells.NumCells())
		st.allTrees = st.rs.allTrees
	}
	st.initCoreState()
	return st
}

// graphSteps runs the graph sweep's steps on one window.
func (r *shardRun) graphSteps(w *shardWindow) error {
	st := w.st
	if err := r.phase("mark"); err != nil {
		return err
	}
	w.each(w.ownedCells, func(g int32, ws *workerScratch) {
		st.markCellCore(int(g), ws)
		st.collectCellCore(int(g))
		if len(st.corePts[g]) > 0 {
			r.hasCore[st.gid(g)] = true
		}
	})

	if err := r.phase("graph"); err != nil {
		return err
	}
	var connect connectFunc
	if st.p.Graph == GraphDelaunay {
		// Each shard triangulates its own core points; cross-shard pairs
		// take the exact per-pair predicate.
		connect = st.bcpConnected
		st.ex.ForGrain(len(w.owned), 1, func(i int) {
			var coreCells []int32
			for _, g := range w.owned[i] {
				if len(st.corePts[g]) > 0 {
					coreCells = append(coreCells, g)
				}
			}
			st.delaunayUnion(coreCells)
		})
	} else {
		connect = st.connectFn()
		// Owned core cells in SortBySize order (Algorithm 3, line 3), each
		// examining its same-shard neighbors of lower id (local ids order
		// as global ones within a window).
		sorted := func(i int, ws *workerScratch) []int32 {
			order := ws.cellOrder[:0]
			for _, g := range w.owned[i] {
				if len(st.corePts[g]) > 0 {
					order = append(order, g)
				}
			}
			prim.Sort(st.ex, order, st.coreSizeLess)
			ws.cellOrder = order // keep grown capacity
			return order
		}
		pairs := func(g int32, ws *workerScratch) {
			s := w.shardOf[g]
			for _, h := range st.cells.Neighbors[g] {
				if h < g && w.shardOf[h] == s {
					st.processPair(g, h, connect, ws)
				}
			}
		}
		if st.p.Bucketing && len(w.owned) == 1 {
			// Bucketing (Section 4.4): the sorted cells in Buckets batches,
			// sequential across batches and parallel within each, so the
			// unions of earlier (larger) cells prune later batches' queries.
			ws := st.getWS()
			order := sorted(0, ws)
			size := max(1, (len(order)+st.p.Buckets-1)/st.p.Buckets)
			for lo := 0; lo < len(order) && !st.cancelled(); lo += size {
				st.eachCell(order[lo:min(lo+size, len(order))], pairs)
			}
			st.putWS(ws)
		} else {
			w.each(sorted, pairs)
		}
	}

	if err := r.phase("merge"); err != nil {
		return err
	}
	st.ex.ForGrain(w.recollect, 1, st.collectCellCore)
	w.each(func(i int, _ *workerScratch) []int32 { return w.cross[i] }, func(g int32, ws *workerScratch) {
		if len(st.corePts[g]) == 0 {
			return
		}
		s := w.shardOf[g]
		for _, h := range st.cells.Neighbors[g] {
			if w.shardOf[h] < s {
				st.processPair(g, h, connect, ws)
			}
		}
	})
	return r.phase("")
}

// borderStep attaches the border points of one window's owned cells. Core
// flags and core labels are final, and every neighbor of an owned cell is
// in the window.
func (r *shardRun) borderStep(w *shardWindow) error {
	st := w.st
	if err := r.phase("border"); err != nil {
		return err
	}
	st.ex.ForGrain(w.recollect, 1, st.collectCellCore)
	labels := r.labels[w.flagLo : w.flagLo+st.cells.Pts.N]
	w.each(w.ownedCells, func(g int32, ws *workerScratch) {
		st.borderCell(int(g), labels, ws, &r.border, int32(w.flagLo))
	})
	return r.phase("")
}

// ownedCells lists the cells of the window's i-th owned shard.
func (w *shardWindow) ownedCells(i int, _ *workerScratch) []int32 { return w.owned[i] }

// each runs body over the cells list(i, ws) returns for every owned shard i,
// stopping at cancellation. The window decides the loop shape: several
// shards run in parallel, each one serially on one goroutine; a single
// shard runs in parallel over its cells.
func (w *shardWindow) each(list func(i int, ws *workerScratch) []int32, body func(g int32, ws *workerScratch)) {
	st := w.st
	if len(w.owned) != 1 {
		st.ex.ForGrain(len(w.owned), 1, func(i int) {
			ws := st.getWS()
			for _, g := range list(i, ws) {
				if st.cancelled() {
					break
				}
				body(g, ws)
			}
			st.putWS(ws)
		})
		return
	}
	lws := st.getWS()
	st.eachCell(list(0, lws), body)
	st.putWS(lws)
}

// eachCell runs body over cells as a parallel loop of blocks, each with its
// own worker scratch, stopping at cancellation.
func (st *pipeline) eachCell(cells []int32, body func(g int32, ws *workerScratch)) {
	st.ex.BlockedFor(len(cells), 1, func(lo, hi int) {
		ws := st.getWS()
		for _, g := range cells[lo:hi] {
			if st.cancelled() {
				break
			}
			body(g, ws)
		}
		st.putWS(ws)
	})
}

// ramSource is the in-RAM source: one window over every cell, whose local
// cell ids are the global ones, kept open across both sweeps.
type ramSource struct {
	cells *grid.Cells
	part  *grid.Partition
	win   *shardWindow
}

func (s *ramSource) windows() int { return 1 }

func (s *ramSource) open(r *shardRun, _ int, _ bool) (*shardWindow, error) {
	if s.win == nil {
		s.win = &shardWindow{
			st:      r.window(s.cells, 0, 0),
			owned:   s.part.Owned,
			cross:   s.part.Boundary,
			shardOf: s.part.ShardOf,
		}
	}
	return s.win, nil
}

// label walks the points in flag order. A point in no cell (a Dynamic
// snapshot's freed slot) is never core, so it reads -1 with the rest.
func (s *ramSource) label(ex *parallel.Pool, coreFlags []bool, labels []int32, cellLabel func(gc int32) int32) {
	ex.For(len(labels), func(i int) {
		if coreFlags[i] {
			labels[i] = cellLabel(s.cells.CellOf[i])
		} else {
			labels[i] = -1
		}
	})
}

// release returns the window's scratch to the arena.
func (s *ramSource) release() {
	if s.win != nil {
		s.win.st.release()
	}
}
