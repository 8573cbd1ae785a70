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
	"pdbscan/internal/prim"
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
	// on). Written once, at phase completion, by the run's own goroutine.
	Timings *PhaseTimings

	// PhaseHook, when non-nil, is called on the run's goroutine at the start
	// of each pipeline phase with the phase's name: "mark", "collect",
	// "graph", "merge" (sharded only), "label", "border" — and, for
	// ComputeHierarchy builds, "coredist", "edges", "mst". It exists for
	// observability and for tests that need a deterministic point inside a
	// run (the cancellation suite cancels a context from it); it must be
	// cheap and must not mutate pipeline state.
	PhaseHook func(phase string)
}

// PhaseTimings records how long each pipeline phase of one run took. The
// sharded path reports its per-shard mark+collect pass as Mark, its
// intra-shard graph pass as Graph, and its boundary pass as Merge; the
// monolithic and incremental paths leave Merge zero.
type PhaseTimings struct {
	Mark    time.Duration // MarkCore (Algorithm 2)
	Collect time.Duration // per-cell core lists, boxes, core-cell set
	Graph   time.Duration // ClusterCore cell graph (Algorithm 3)
	Merge   time.Duration // sharded boundary merge (RunSharded only)
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
	rs    *runScratch // this run's checked-out scratch; returned by release

	// Phase timing cursor: phaseDur (a field of p.Timings, nil when timings
	// are off) receives the elapsed time since phaseT0 at the next phase
	// transition.
	phaseT0  time.Time
	phaseDur *time.Duration

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
}

type lazyTree struct {
	once sync.Once
	tree *quadtree.Tree
}

// validateParams checks cells/Params compatibility and applies defaults
// (shared by Run and RunIncremental).
func validateParams(cells *grid.Cells, p *Params) error {
	if cells.Neighbors == nil {
		return fmt.Errorf("core: cells have no neighbor lists; call a ComputeNeighbors method first")
	}
	if p.MinPts < 1 {
		return fmt.Errorf("core: MinPts must be >= 1, got %d", p.MinPts)
	}
	if p.Graph == GraphApprox && p.Rho <= 0 {
		return fmt.Errorf("core: GraphApprox requires Rho > 0, got %v", p.Rho)
	}
	if (p.Graph == GraphUSEC || p.Graph == GraphDelaunay) && cells.Pts.D != 2 {
		return fmt.Errorf("core: USEC and Delaunay strategies are 2D only (d=%d)", cells.Pts.D)
	}
	if p.Sample != nil && len(p.Sample) != cells.Pts.N {
		return fmt.Errorf("core: Sample mask has %d entries for %d points", len(p.Sample), cells.Pts.N)
	}
	if p.Buckets <= 0 {
		p.Buckets = 32
	}
	return nil
}

// newPipeline builds the per-run state: the dimension-resolved kernel over
// the cells' payload and a runScratch checked out of p.Arena (fresh when
// nil). Callers must pair it with release.
func newPipeline(cells *grid.Cells, p Params) *pipeline {
	pts := cells.PayloadPts()
	return &pipeline{
		cells: cells, p: p, eps: cells.Eps, eps2: cells.Eps * cells.Eps,
		ex: p.Exec, k: geom.NewKernel(pts), arena: p.Arena, rs: p.Arena.getRun(),
		pts: pts,
	}
}

// release returns the run's scratch to the arena. The scratch keeps aliases
// into the cells (core point lists alias cell point lists) — that is fine,
// the arena belongs to the Clusterer that owns the cells.
func (st *pipeline) release() {
	st.arena.putRun(st.rs)
	st.rs = nil
}

// getWS checks a workerScratch out for one parallel block (or one shard).
func (st *pipeline) getWS() *workerScratch { return st.arena.getWorker() }

// putWS returns a block's workerScratch.
func (st *pipeline) putWS(ws *workerScratch) { st.arena.putWorker(ws) }

// initUF readies the union-find over numCells cells from the run scratch.
func (st *pipeline) initUF(numCells int) {
	st.rs.uf.Reset(numCells)
	st.uf = &st.rs.uf
}

// cancelled reports whether the run's executor context is done (the
// per-cell cooperative check of the phase loops; an atomic load on the fast
// path).
func (st *pipeline) cancelled() bool { return st.ex.Cancelled() }

// phase announces a phase transition: it stamps the previous phase's
// duration into Timings, fires the PhaseHook, and reports the executor
// context's error — the pipeline's cancellation boundary. Each phase
// function runs only when the boundary before it is clean, so a cancelled
// run unwinds after at most one phase's grain of work, with every output
// left unconsumed. "done" closes the last phase without opening a new one.
func (st *pipeline) phase(name string) error {
	now := time.Now()
	if st.phaseDur != nil {
		*st.phaseDur = now.Sub(st.phaseT0)
	}
	st.phaseT0 = now
	st.phaseDur = nil
	if tm := st.p.Timings; tm != nil {
		switch name {
		case "mark":
			st.phaseDur = &tm.Mark
		case "collect":
			st.phaseDur = &tm.Collect
		case "graph":
			st.phaseDur = &tm.Graph
		case "merge":
			st.phaseDur = &tm.Merge
		case "label":
			st.phaseDur = &tm.Label
		case "border":
			st.phaseDur = &tm.Border
		case "coredist":
			st.phaseDur = &tm.CoreDist
		case "edges":
			st.phaseDur = &tm.Edges
		case "mst":
			st.phaseDur = &tm.MST
		}
	}
	if st.p.PhaseHook != nil {
		st.p.PhaseHook(name)
	}
	return st.ex.Err()
}

// Run executes the full pipeline on prepared cells (Neighbors must have been
// computed). If the executor pool carries a cancelled context — or the
// context is cancelled while the run is in flight — Run stops at the next
// phase or cell boundary and returns the context's error; the partial state
// stays inside the run's arena scratch, which the release leaves ready for
// the owner's next run.
func Run(cells *grid.Cells, p Params) (*Result, error) {
	if err := validateParams(cells, &p); err != nil {
		return nil, err
	}
	st := newPipeline(cells, p)
	defer st.release()
	if err := st.phase("mark"); err != nil {
		return nil, err
	}
	st.markCore()
	if err := st.phase("collect"); err != nil {
		return nil, err
	}
	st.collectCore()
	if err := st.phase("graph"); err != nil {
		return nil, err
	}
	st.clusterCore()
	if err := st.phase("label"); err != nil {
		return nil, err
	}
	labels, numClusters := st.coreLabels()
	if err := st.phase("border"); err != nil {
		return nil, err
	}
	border := st.clusterBorder(labels, numClusters)
	if err := st.phase("done"); err != nil {
		return nil, err
	}
	return &Result{
		Core:        st.coreFlags,
		Labels:      labels,
		Border:      border,
		NumClusters: numClusters,
	}, nil
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

// collectCore builds the per-cell core point lists, core bounding boxes, and
// the list of core cells.
func (st *pipeline) collectCore() {
	numCells := st.cells.NumCells()
	st.initCoreState()
	st.ex.ForGrain(numCells, 1, func(g int) { st.collectCellCore(g) })
	st.coreCells = prim.FilterIndex(st.ex, numCells, func(g int) bool {
		return len(st.corePts[g]) > 0
	})
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

// coreLabels assigns dense cluster labels to core points from the union-find
// state over cells and returns (labels, numClusters); non-core points get -1.
func (st *pipeline) coreLabels() ([]int32, int) {
	c := st.cells
	// Mark and densify the union-find roots of the core cells (a cell is
	// core iff it kept at least one core point).
	roots, dense := unionfind.DenseRoots(st.ex, st.uf, func(g int32) bool {
		return len(st.corePts[g]) > 0
	})
	labels := make([]int32, c.Pts.N)
	st.ex.For(c.Pts.N, func(i int) {
		if st.coreFlags[i] {
			labels[i] = dense[st.uf.Find(c.CellOf[i])]
		} else {
			labels[i] = -1
		}
	})
	return labels, len(roots)
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
