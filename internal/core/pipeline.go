// Package core implements the paper's primary contribution: the parallel
// DBSCAN pipeline of Algorithm 1 — MarkCore (Algorithm 2), ClusterCore
// (Algorithm 3) with every cell-graph strategy the paper describes (BCP,
// quadtree range queries, approximate quadtree, USEC with line separation,
// Delaunay triangulation), the reduced-connectivity-query optimization with a
// lock-free union-find, the bucketing heuristic, and ClusterBorder
// (Algorithm 4).
package core

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"pdbscan/internal/geom"
	"pdbscan/internal/grid"
	"pdbscan/internal/parallel"
	"pdbscan/internal/quadtree"
	"pdbscan/internal/unionfind"
)

// MarkStrategy selects how RangeCount queries are answered in MarkCore.
type MarkStrategy int

const (
	// MarkScan compares the query point against every point of the
	// neighboring cell (the theoretically-efficient method of Section 4.3).
	MarkScan MarkStrategy = iota
	// MarkQuadtree answers RangeCount with a per-cell quadtree (Section 5.2).
	MarkQuadtree
)

// GraphStrategy selects how cell-graph connectivity queries are answered in
// ClusterCore.
type GraphStrategy int

const (
	// GraphBCP computes bichromatic closest pairs with point filtering and
	// blocked early termination (Section 4.4).
	GraphBCP GraphStrategy = iota
	// GraphQuadtree issues exact quadtree range queries from each core point
	// to the neighboring cell, with early termination (Section 5.2).
	GraphQuadtree
	// GraphApprox issues approximate quadtree range queries (approximate
	// DBSCAN, Sections 5.2 and 6.3). Requires Rho > 0.
	GraphApprox
	// GraphUSEC solves unit-spherical emptiness checking with line
	// separation via circle wavefronts (Section 4.4; 2D only).
	GraphUSEC
	// GraphDelaunay builds a Delaunay triangulation of all core points and
	// keeps inter-cell edges of length at most eps (Section 4.4; 2D only).
	GraphDelaunay
)

// Params configures a pipeline run.
type Params struct {
	MinPts    int
	Rho       float64 // approximation parameter (GraphApprox only)
	Mark      MarkStrategy
	Graph     GraphStrategy
	Bucketing bool // process core cells in size-sorted batches (Section 4.4)
	Buckets   int  // number of batches when Bucketing (default 32)

	// Sample, when non-nil, selects the DBSCAN++ sampled-core mode: core
	// status is computed only for points i with Sample[i] set (the counting
	// set stays all points, so a sampled point's core decision is exact);
	// unsampled points are never core and are attached border-style to the
	// clusters of nearby sampled cores. len(Sample) must equal the point
	// count. Nil runs exact DBSCAN. See UniformMask and KCenterMask for the
	// deterministic samplers.
	Sample []bool

	// Exec is the executor every parallel phase runs on. A nil Exec is the
	// default (GOMAXPROCS) pool. Threading the executor through Params — as
	// opposed to a process-wide worker count — is what makes concurrent Run
	// calls with different budgets safe.
	Exec *parallel.Pool

	// Arena pools the pipeline's scratch buffers across runs; nil means no
	// pooling (one-shot behavior). Clusterer and StreamingClusterer thread
	// their per-instance arena here so repeated runs are near-allocation-free.
	Arena *Arena

	// Timings, when non-nil, receives the wall-clock duration of each
	// pipeline phase of the run (the observability seam RunStats is built
	// on). Each phase's duration is added at its completion, by the run's
	// own goroutine, so pass a zeroed PhaseTimings per run.
	Timings *PhaseTimings

	// PhaseHook, when non-nil, is called on the run's goroutine at the start
	// of each pipeline phase with the phase's name. Run, RunSharded and
	// RunOutOfCore announce "mark", "graph", "merge", "label", "border" and
	// "done"; RunIncremental announces "mark", "collect", "graph", "label",
	// "border" and "done"; ComputeHierarchy builds announce "coredist",
	// "edges", "mst" and "done". Out-of-core runs announce "mark", "graph",
	// "merge" and "border" once per shard window.
	// It exists for observability and for tests that need a deterministic
	// point inside a run (the cancellation suite cancels a context from it);
	// it must be cheap and must not mutate pipeline state.
	PhaseHook func(phase string)
}

// PhaseTimings records how long each pipeline phase of one run took; a phase
// announced once per shard window accumulates over the windows. The batch
// paths (Run, RunSharded, RunOutOfCore) report their per-window mark+collect
// step as Mark, the intra-shard graph as Graph, and the cross-shard pairs as
// Merge, and leave Collect zero; the incremental path reports collection as
// Collect and leaves Merge zero.
type PhaseTimings struct {
	Mark    time.Duration // MarkCore (Algorithm 2)
	Collect time.Duration // per-cell core lists, boxes, core-cell set (RunIncremental)
	Graph   time.Duration // ClusterCore cell graph (Algorithm 3)
	Merge   time.Duration // cross-shard pairs (zero work with one shard)
	Label   time.Duration // dense label assignment
	Border  time.Duration // ClusterBorder (Algorithm 4)

	// ComputeHierarchy phases (zero on clustering runs).
	CoreDist time.Duration // per-point core distances
	Edges    time.Duration // mutual-reachability candidate enumeration + per-block Kruskal
	MST      time.Duration // global sort + final Kruskal merge
}

// Result is the clustering output.
type Result struct {
	// Core[i] reports whether point i is a core point.
	Core []bool
	// Labels[i] is the cluster of point i in [0, NumClusters), or -1 for
	// noise. Border points belonging to several clusters get the smallest
	// label; their full membership is in Border.
	Labels []int32
	// Border maps a border point to all clusters it belongs to (ascending),
	// for the points that belong to more than one.
	Border map[int32][]int32
	// NumClusters is the number of clusters found.
	NumClusters int
}

// pipeline carries the state between the phases of Algorithm 1.
type pipeline struct {
	cells *grid.Cells
	p     Params
	eps   float64
	eps2  float64
	ex    *parallel.Pool // == p.Exec; the executor for every parallel phase
	k     geom.Kernel    // dimension-resolved distance kernel over pts

	// The point store every phase indexes: the cells' cell-major payload.
	// Every point index flowing through the phases (cell point lists, core
	// lists, border candidates, tree indices) is a payload row; per-point
	// state keyed by original index (coreFlags, labels, Sample) is reached
	// through cells.Order.
	pts geom.Points

	arena *Arena      // == p.Arena (nil: no pooling)
	rs    *runScratch // this run's checked-out scratch

	phaseClock

	// cellLo is the global cell id (the union-find key) of window-local cell
	// 0; 0 on every path but out-of-core windows.
	cellLo int32

	coreFlags []bool
	corePts   [][]int32 // per cell: payload rows of its core points
	coreStore []int32   // flat backing of small-cell core lists
	coreBBLo  []float64 // per cell: bounding box of its core points
	coreBBHi  []float64
	coreCells []int32 // cells with at least one core point

	uf *unionfind.UF

	// Lazy per-cell quadtrees: over all points (MarkCore) and over core
	// points (ClusterCore); built on first use, guarded by sync.Once.
	allTrees  []lazyTree
	coreTrees []lazyTree

	// Lazy per-cell USEC state (2D): core points sorted by x and by y, and
	// the four directional envelopes.
	usecCells []usecCell

	// Grid cells only: the lattice reach and the L1-offset span d·reach+1
	// that latticeKey ranks neighbors by.
	latticeReach, latticeSpan int
}

type lazyTree struct {
	once sync.Once
	tree *quadtree.Tree
}

// validateParams checks Params against n points of dimension d and applies
// defaults (shared by every entry point).
func validateParams(d, n int, p *Params) error {
	if p.MinPts < 1 {
		return fmt.Errorf("core: MinPts must be >= 1, got %d", p.MinPts)
	}
	if p.Graph == GraphApprox && p.Rho <= 0 {
		return fmt.Errorf("core: GraphApprox requires Rho > 0, got %v", p.Rho)
	}
	if (p.Graph == GraphUSEC || p.Graph == GraphDelaunay) && d != 2 {
		return fmt.Errorf("core: USEC and Delaunay strategies are 2D only (d=%d)", d)
	}
	if p.Sample != nil && len(p.Sample) != n {
		return fmt.Errorf("core: Sample mask has %d entries for %d points", len(p.Sample), n)
	}
	if p.Buckets <= 0 {
		p.Buckets = 32
	}
	return nil
}

// validateCells is validateParams for a run over prepared cells.
func validateCells(cells *grid.Cells, p *Params) error {
	if cells.Neighbors == nil {
		return fmt.Errorf("core: cells have no neighbor lists; call a ComputeNeighbors method first")
	}
	return validateParams(cells.Pts.D, cells.Pts.N, p)
}

// newPipeline builds the per-run state over the cells: the
// dimension-resolved kernel over their payload, with buffers from rs, a
// runScratch the caller checked out of p.Arena and returns after the run.
func newPipeline(cells *grid.Cells, p Params, rs *runScratch) *pipeline {
	pts := cells.PayloadPts()
	st := &pipeline{
		cells: cells, p: p, eps: cells.Eps, eps2: cells.Eps * cells.Eps,
		ex: p.Exec, k: geom.NewKernel(pts), arena: p.Arena, rs: rs,
		pts: pts,
	}
	if cells.Coords != nil {
		st.latticeReach = cells.LatticeReach()
		st.latticeSpan = cells.Pts.D*st.latticeReach + 1
	}
	st.phaseClock.p = &st.p
	return st
}

// getWS checks a workerScratch out for one parallel block.
func (st *pipeline) getWS() *workerScratch { return st.arena.getWorker() }

// putWS returns a block's workerScratch.
func (st *pipeline) putWS(ws *workerScratch) { st.arena.putWorker(ws) }

// cancelled reports whether the run's executor context is done (the
// per-cell cooperative check of the phase loops; an atomic load on the fast
// path).
func (st *pipeline) cancelled() bool { return st.ex.Cancelled() }

// phaseClock is a run's phase cursor: dur (a field of p.Timings, nil when
// timings are off or no phase is open) receives the time since t0 when the
// next phase transition closes the open phase.
type phaseClock struct {
	p   *Params
	t0  time.Time
	dur *time.Duration
}

// phase announces a phase transition: it adds the open phase's duration to
// Timings, fires the PhaseHook, and reports the executor context's error —
// the pipeline's cancellation boundary. Each phase function runs only when
// the boundary before it is clean, so a cancelled run unwinds after at most
// one phase's grain of work, with every output left unconsumed. "done"
// closes the last phase without opening a new one; the empty name closes
// the open phase silently (no hook), keeping the work until the next
// announcement — such as mapping a shard window — outside every phase.
func (c *phaseClock) phase(name string) error {
	now := time.Now()
	if c.dur != nil {
		*c.dur += now.Sub(c.t0)
	}
	c.t0 = now
	c.dur = nil
	if tm := c.p.Timings; tm != nil {
		switch name {
		case "mark":
			c.dur = &tm.Mark
		case "collect":
			c.dur = &tm.Collect
		case "graph":
			c.dur = &tm.Graph
		case "merge":
			c.dur = &tm.Merge
		case "label":
			c.dur = &tm.Label
		case "border":
			c.dur = &tm.Border
		case "coredist":
			c.dur = &tm.CoreDist
		case "edges":
			c.dur = &tm.Edges
		case "mst":
			c.dur = &tm.MST
		}
	}
	if c.p.PhaseHook != nil && name != "" {
		c.p.PhaseHook(name)
	}
	return c.p.Exec.Err()
}

// Run executes the full pipeline on prepared cells (Neighbors must have been
// computed): RunSharded over a one-shard partition, whose one window runs
// each step as a parallel loop over every cell. If the executor pool carries
// a cancelled context — or the context is cancelled while the run is in
// flight — Run stops at the next phase or cell boundary and returns the
// context's error; the partial state stays inside the run's arena scratch,
// which the release leaves ready for the owner's next run.
func Run(cells *grid.Cells, p Params) (*Result, error) {
	part, err := grid.MakePartition(p.Exec, cells, 1)
	if err != nil {
		return nil, err
	}
	return RunSharded(cells, p, part)
}

// initCoreState readies the per-cell core buffers (lists, flat backing,
// bounding boxes) from the run scratch. Every cell's entries are overwritten
// by collectCellCore before any read, so no clearing is needed.
func (st *pipeline) initCoreState() {
	c := st.cells
	d := c.Pts.D
	numCells := c.NumCells()
	st.rs.corePts = slicesBuf(st.rs.corePts, numCells)
	st.rs.coreStore = int32Buf(st.rs.coreStore, len(c.Order))
	st.rs.coreBBLo = floatBuf(st.rs.coreBBLo, numCells*d)
	st.rs.coreBBHi = floatBuf(st.rs.coreBBHi, numCells*d)
	st.corePts = st.rs.corePts
	st.coreStore = st.rs.coreStore
	st.coreBBLo = st.rs.coreBBLo
	st.coreBBHi = st.rs.coreBBHi
}

// collectCellCore derives cell g's core point list and core bounding box from
// the core flags (the per-cell body shared by every path, so the paths can
// never desynchronize). All-core cells alias the cell's row list; small
// cells write into their disjoint region of the flat coreStore.
func (st *pipeline) collectCellCore(g int) {
	c := st.cells
	d := c.Pts.D
	rows := c.RowsOf(g)
	var core []int32
	if st.p.Sample == nil && len(rows) >= st.p.MinPts {
		// Every point is core; alias the cell's slice. (Under a sample mask
		// only the sampled points of a big cell are core, so the alias is
		// wrong there and the flag scan below runs instead.)
		core = rows
	} else {
		orig := c.PointsOf(g)
		off := c.CellStart[g]
		core = st.coreStore[off : off : off+int32(len(rows))]
		for i, r := range rows {
			if st.coreFlags[orig[i]] {
				core = append(core, r)
			}
		}
	}
	st.corePts[g] = core
	if len(core) > 0 {
		lo := st.coreBBLo[g*d : (g+1)*d]
		hi := st.coreBBHi[g*d : (g+1)*d]
		copy(lo, st.at(core[0]))
		copy(hi, st.at(core[0]))
		for _, p := range core[1:] {
			row := st.at(p)
			for j, v := range row {
				if v < lo[j] {
					lo[j] = v
				}
				if v > hi[j] {
					hi[j] = v
				}
			}
		}
	}
}

// quadtreeRoot returns a cube enclosing cell g's points, suitable as a
// quadtree root: the grid cube for grid cells, or the squared-up bounding box
// for box cells (whose extent is at most eps/sqrt(d) by construction, so the
// approximate depth bound still holds).
func (st *pipeline) quadtreeRoot(g int) (lo []float64, side float64) {
	c := st.cells
	if c.Coords != nil {
		lo, _ = c.GridCube(g)
		return lo, c.Side
	}
	bbLo, bbHi := c.CellBox(g)
	lo = make([]float64, c.Pts.D)
	copy(lo, bbLo)
	side = 0
	for j := range bbLo {
		if e := bbHi[j] - bbLo[j]; e > side {
			side = e
		}
	}
	if side == 0 {
		side = math.SmallestNonzeroFloat64
	}
	// Slightly inflate so points on the upper face fall strictly inside.
	side *= 1 + 1e-12
	return lo, side
}

// allTree returns (building on first use) the quadtree over all points of
// cell g, used by MarkQuadtree.
func (st *pipeline) allTree(g int32) *quadtree.Tree {
	lt := &st.allTrees[g]
	lt.once.Do(func() {
		idx := slices.Clone(st.cells.RowsOf(int(g)))
		lo, side := st.quadtreeRoot(int(g))
		lt.tree = quadtree.Build(st.ex, st.pts, idx, lo, side, -1)
	})
	return lt.tree
}

// coreTree returns (building on first use) the quadtree over the core points
// of cell g. maxDepth depends on the graph strategy: exact for GraphQuadtree,
// capped for GraphApprox.
func (st *pipeline) coreTree(g int32) *quadtree.Tree {
	lt := &st.coreTrees[g]
	lt.once.Do(func() {
		idx := slices.Clone(st.corePts[g])
		lo, side := st.quadtreeRoot(int(g))
		maxDepth := -1
		if st.p.Graph == GraphApprox {
			maxDepth = quadtree.ApproxDepth(st.p.Rho)
		}
		lt.tree = quadtree.Build(st.ex, st.pts, idx, lo, side, maxDepth)
	})
	return lt.tree
}

// at returns the coordinate row of payload row p.
func (st *pipeline) at(p int32) []float64 { return st.pts.At(int(p)) }

// distSq between two points by index, through the run's kernel.
func (st *pipeline) distSq(a, b int32) float64 {
	return st.k.DistSq(a, b)
}
