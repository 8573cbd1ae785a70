package core

import (
	"cmp"
	"fmt"
	"slices"

	"pdbscan/internal/grid"
	"pdbscan/internal/parallel"
	"pdbscan/internal/prim"
	"pdbscan/internal/unionfind"
)

// RunSharded executes the pipeline as a partition/merge computation over a
// spatial Partition of the cells: the sharded executor (runShards) over one
// window that holds every shard. Every step of a window is one parallel loop
// over the window's cells, however many shards it owns (Algorithm 3's loop
// over the core cells, pruned by the shared union-find). The graph step
// evaluates the pairs within a shard; cross-shard pairs are visited only
// from the Partition's Boundary cells, in the merge step.
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
// Bucketing (Section 4.4) schedules every window's graph step in size-sorted
// batches. Results are unaffected either way (the components do not depend
// on evaluation order).
//
// A Sample mask is keyed by original point index, as the in-RAM window's
// core flags are.
func RunSharded(cells *grid.Cells, p Params, part *grid.Partition) (*Result, error) {
	if cells.Neighbors == nil || part == nil || len(part.ShardOf) != cells.NumCells() {
		return nil, fmt.Errorf("core: RunSharded requires cells with neighbor lists and a Partition of them")
	}
	return runShards(&ramSource{cells: cells, part: part}, cells.Pts.D, cells.Pts.N, cells.NumCells(), p)
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

// shardWindow is one open window: its pipeline (whose core flags, union-find
// and scratch are the run's) and the cells it owns.
type shardWindow struct {
	st      *pipeline
	owned   []int32 // the owned cells, ascending local ids
	cross   []int32 // the owned cells that may neighbor an earlier shard
	shardOf []int32 // local cell -> shard
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
// The union-find and hasCore live in the run's scratch, checked out of
// p.Arena for the run and shared by every window's pipeline.
type shardRun struct {
	phaseClock
	p         Params
	src       shardSource
	rs        *runScratch
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
// core flags, in flag order, are coreFlags. run returns its scratch.
func newShardRun(src shardSource, numCells int, p Params, coreFlags []bool) *shardRun {
	rs := p.Arena.getRun()
	rs.uf.Reset(numCells)
	rs.hasCore = boolBuf(rs.hasCore, numCells)
	r := &shardRun{
		p:         p,
		src:       src,
		rs:        rs,
		uf:        &rs.uf,
		coreFlags: coreFlags,
		hasCore:   rs.hasCore,
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
	defer r.p.Arena.putRun(r.rs)
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
// run's, from flag index flagLo on, its unions land in the run's union-find,
// local cell g as global cell cellLo+g, and its buffers are the run's
// scratch, which one window at a time uses.
func (r *shardRun) window(cells *grid.Cells, cellLo, flagLo int) *pipeline {
	st := newPipeline(cells, r.p, r.rs)
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

// graphSteps runs the graph sweep's steps on one window, each a parallel
// loop over the window's cells.
func (r *shardRun) graphSteps(w *shardWindow) error {
	st := w.st
	if err := r.phase("mark"); err != nil {
		return err
	}
	st.eachCell(w.owned, func(g int32, ws *workerScratch) {
		st.markCellCore(int(g), ws)
		st.collectCellCore(int(g))
		if len(st.corePts[g]) > 0 {
			r.hasCore[st.gid(g)] = true
		}
	})

	if err := r.phase("graph"); err != nil {
		return err
	}
	ws := st.getWS()
	defer st.putWS(ws)
	order := ws.cellOrder[:0]
	for _, g := range w.owned {
		if len(st.corePts[g]) > 0 {
			order = append(order, g)
		}
	}
	ws.cellOrder = order // keep grown capacity
	var connect connectFunc
	if st.p.Graph == GraphDelaunay {
		// Each shard's owned core points are triangulated on their own, the
		// shards in parallel: insertion is serial and grows faster than the
		// point count, so one triangulation over a window of several shards
		// is the slower schedule. Cross-shard pairs take the exact per-pair
		// predicate.
		connect = st.bcpConnected
		slices.SortStableFunc(order, func(a, b int32) int { return cmp.Compare(w.shardOf[a], w.shardOf[b]) })
		var starts []int // where each shard's cells begin in order
		for i, g := range order {
			if i == 0 || w.shardOf[g] != w.shardOf[order[i-1]] {
				starts = append(starts, i)
			}
		}
		starts = append(starts, len(order))
		st.ex.ForGrain(len(starts)-1, 1, func(i int) { st.delaunayUnion(order[starts[i]:starts[i+1]]) })
	} else {
		connect = st.connectFn()
		// Owned core cells in SortBySize order (Algorithm 3, line 3), each
		// examining its same-shard neighbors of lower id (local ids order
		// as global ones within a window). Without Bucketing the sorted
		// cells are one batch; with it (Section 4.4) they run in Buckets
		// batches, sequential across batches and parallel within each, so
		// the unions of earlier (larger) cells prune later batches' queries.
		prim.Sort(st.ex, order, st.coreSizeLess)
		batches := 1
		if st.p.Bucketing {
			batches = st.p.Buckets
		}
		size := max(1, (len(order)+batches-1)/batches)
		for lo := 0; lo < len(order) && !st.cancelled(); lo += size {
			st.eachCell(order[lo:min(lo+size, len(order))], func(g int32, ws *workerScratch) {
				s := w.shardOf[g]
				for _, h := range st.cells.Neighbors[g] {
					if h < g && w.shardOf[h] == s {
						st.processPair(g, h, connect, ws)
					}
				}
			})
		}
	}

	if err := r.phase("merge"); err != nil {
		return err
	}
	st.ex.ForGrain(w.recollect, 1, st.collectCellCore)
	st.eachCell(w.cross, func(g int32, ws *workerScratch) {
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
	st.eachCell(w.owned, func(g int32, ws *workerScratch) {
		st.borderCell(int(g), labels, ws, &r.border, int32(w.flagLo))
	})
	return r.phase("")
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
// cell ids are the global ones, kept open across both sweeps. Its cross
// cells are every shard's Boundary cells.
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
			owned:   r.rs.cellIDs(0, s.cells.NumCells()),
			cross:   slices.Concat(s.part.Boundary...),
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
