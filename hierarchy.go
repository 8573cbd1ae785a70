package pdbscan

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"pdbscan/internal/core"
	"pdbscan/internal/geom"
	"pdbscan/internal/grid"
	"pdbscan/internal/parallel"
	"pdbscan/internal/unionfind"
)

// Hierarchy is the eps-bounded DBSCAN* dendrogram of a Clusterer's points at
// one MinPts: the per-point core distances and the mutual-reachability
// minimum spanning forest, built once, with the forest edges sorted by
// weight. Any eps' in (0, Eps()] is then answered by CutEps — replaying the
// union-find over the edge prefix with weight <= eps'² — in near-linear time
// instead of a full clustering run, and CutK / ExtractStable read richer
// structure off the same forest.
//
// CutEps is exactly equivalent to a batch run at the same radius: every
// predicate on both sides is the identical squared-distance comparison
// (d² <= eps'², k-th smallest d² <= eps'²), so the forest threshold
// reproduces Cluster's components bit-for-bit, not merely approximately —
// the property the hierarchy conformance suite in oracle_test.go pins.
//
// A Hierarchy is immutable after construction and safe for concurrent use;
// concurrent CutEps calls serialize only the (cheap) union-find replay and
// run their border attachment in parallel.
type Hierarchy struct {
	cells  *grid.Cells
	k      geom.Kernel
	minPts int
	eps    float64 // the build (maximum queryable) radius
	eps2   float64

	cd2      []float64     // squared core distances; +Inf beyond eps
	edges    []core.MREdge // MR-MSF, ascending by (W2, A, B)
	cdSorted []float64     // finite cd2 values, ascending (CutK event scan)

	stats HierarchyStats

	// Incremental replay state: the union-find currently reflects the edge
	// prefix [0, replayPos). A query at a larger prefix advances it; a
	// smaller one resets and replays from the start. Guarded by mu — the
	// replay is the only mutable state, so concurrent cuts serialize here
	// and nowhere else.
	mu        sync.Mutex
	replayUF  *unionfind.UF
	replayPos int
}

// HierarchyStats describes one completed BuildHierarchy: phase wall-clock
// times and the size of the structure.
type HierarchyStats struct {
	CoreDist time.Duration // per-point core distance pass
	Edges    time.Duration // mutual-reachability enumeration + per-block Kruskal
	MST      time.Duration // global sort + final Kruskal
	Total    time.Duration
	NumEdges int // forest edges kept
	Workers  int
}

// BuildHierarchy builds (or returns the cached) hierarchy at the given
// MinPts, using all CPUs. It is BuildHierarchyContext with a background
// context and a default Config.
func (c *Clusterer) BuildHierarchy(minPts int) (*Hierarchy, error) {
	return c.BuildHierarchyContext(context.Background(), Config{MinPts: minPts})
}

// BuildHierarchyContext builds the dendrogram for cfg.MinPts on the
// Clusterer's cell structure. Honored Config fields: MinPts and Workers
// (plus Eps, which must be zero or the Clusterer's eps, as for Run); the
// connectivity-strategy fields do not apply — the hierarchy is built by
// direct cell scans.
//
// Hierarchies are cached per MinPts: the first call builds, later calls
// return the same *Hierarchy. Cancellation follows the Clusterer's cache rule
// (memo.get) — a build interrupted by ctx stops at the next phase or cell
// boundary, returns ctx.Err(), and is discarded, so a later call rebuilds
// from scratch rather than serving a half-built structure.
func (c *Clusterer) BuildHierarchyContext(ctx context.Context, cfg Config) (h *Hierarchy, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := c.checkEps(cfg); err != nil {
		return nil, err
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Sampler != SamplerNone {
		return nil, fmt.Errorf("pdbscan: the sampled-core mode does not apply to hierarchy builds; Sampler must be empty, got %q", cfg.Sampler)
	}
	defer recoverRunPanic(ctx, &err)
	ex := parallel.NewPoolContext(ctx, cfg.Workers)
	return c.hiers.get(ex, cfg.MinPts, func() (*Hierarchy, error) {
		return c.buildHierarchy(cfg.MinPts, ex)
	})
}

// buildHierarchy runs the core build and assembles the query-side state.
func (c *Clusterer) buildHierarchy(minPts int, ex *parallel.Pool) (*Hierarchy, error) {
	start := time.Now()
	cells, err := c.cellsFor(false, ex)
	if err != nil {
		return nil, err
	}
	var tm core.PhaseTimings
	hd, err := core.ComputeHierarchy(cells, core.Params{
		MinPts:    minPts,
		Exec:      ex,
		Arena:     c.arena,
		Timings:   &tm,
		PhaseHook: c.hierHook,
	})
	if err != nil {
		return nil, err
	}
	eps2 := c.eps * c.eps
	cdSorted := make([]float64, 0, len(hd.CoreDist2))
	for _, v := range hd.CoreDist2 {
		if v <= eps2 {
			cdSorted = append(cdSorted, v)
		}
	}
	sort.Float64s(cdSorted)
	return &Hierarchy{
		cells:    cells,
		k:        geom.NewKernel(cells.Pts),
		minPts:   minPts,
		eps:      c.eps,
		eps2:     eps2,
		cd2:      hd.CoreDist2,
		edges:    hd.Edges,
		cdSorted: cdSorted,
		stats: HierarchyStats{
			CoreDist: tm.CoreDist,
			Edges:    tm.Edges,
			MST:      tm.MST,
			Total:    time.Since(start),
			NumEdges: len(hd.Edges),
			Workers:  ex.Workers(),
		},
		replayUF: unionfind.New(cells.Pts.N),
	}, nil
}

// Eps returns the build radius: the largest eps CutEps can answer.
func (h *Hierarchy) Eps() float64 { return h.eps }

// MinPts returns the MinPts the hierarchy was built for.
func (h *Hierarchy) MinPts() int { return h.minPts }

// NumPoints returns the number of points.
func (h *Hierarchy) NumPoints() int { return h.cells.Pts.N }

// NumEdges returns the number of mutual-reachability forest edges.
func (h *Hierarchy) NumEdges() int { return len(h.edges) }

// BuildStats returns the phase timings of the build that produced h.
func (h *Hierarchy) BuildStats() HierarchyStats { return h.stats }

// CoreDistances returns a fresh copy of the per-point core distances: the
// distance to each point's MinPts-th nearest neighbor (counting itself), or
// +Inf for points with fewer than MinPts neighbors within the build eps.
func (h *Hierarchy) CoreDistances() []float64 {
	out := make([]float64, len(h.cd2))
	for i, v := range h.cd2 {
		out[i] = math.Sqrt(v)
	}
	return out
}

// ValidateEps checks that eps is a valid CutEps radius for this hierarchy:
// finite, positive, and at most the build eps. It is the validation CutEps
// itself applies; engine.Submit calls it up front so malformed sweep jobs
// are rejected at submission rather than at run time.
func (h *Hierarchy) ValidateEps(eps float64) error {
	if math.IsNaN(eps) || math.IsInf(eps, 0) || eps <= 0 {
		return fmt.Errorf("pdbscan: CutEps requires a finite eps > 0, got %v", eps)
	}
	if eps > h.eps {
		return fmt.Errorf("pdbscan: CutEps(%v) exceeds the hierarchy's build eps %v (build a Clusterer with a larger eps)", eps, h.eps)
	}
	return nil
}

// CutEps returns the DBSCAN clustering at radius eps (0 < eps <= Eps()) and
// the hierarchy's MinPts — label-permutation-equal to Cluster at the same
// parameters. It is CutEpsContext with a background context and all CPUs.
func (h *Hierarchy) CutEps(eps float64) (*Result, error) {
	return h.CutEpsContext(context.Background(), eps, 0)
}

// CutEpsContext is CutEps under a context and an explicit worker budget
// (0 = all CPUs). The replay itself is serial and brief; workers parallelize
// the border-attachment pass.
func (h *Hierarchy) CutEpsContext(ctx context.Context, eps float64, workers int) (res *Result, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := h.ValidateEps(eps); err != nil {
		return nil, err
	}
	if workers < 0 {
		return nil, fmt.Errorf("pdbscan: Workers must be >= 0, got %d (0 means all CPUs)", workers)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	defer recoverRunPanic(ctx, &err)
	return h.cutAt(ctx, eps*eps, workers)
}

// cutAt produces the clustering at squared threshold t2. Core points are
// those with cd2 <= t2; their components are the components of the forest
// prefix with W2 <= t2 (the Kruskal threshold property); border points
// attach to every cluster with a core point within the radius, exactly as
// the batch border pass does.
func (h *Hierarchy) cutAt(ctx context.Context, t2 float64, workers int) (*Result, error) {
	ex := parallel.NewPoolContext(ctx, workers)
	n := len(h.cd2)
	coreFlags := make([]bool, n)
	labels := make([]int32, n)
	rootLbl := make([]int32, n)
	for i := range rootLbl {
		rootLbl[i] = -1
	}
	prefix := sort.Search(len(h.edges), func(i int) bool { return h.edges[i].W2 > t2 })

	h.mu.Lock()
	if prefix < h.replayPos {
		h.replayUF.Reset(n)
		h.replayPos = 0
	}
	for _, e := range h.edges[h.replayPos:prefix] {
		h.replayUF.Union(e.A, e.B)
	}
	h.replayPos = prefix
	// Dense labels in ascending point order: Union links the higher root
	// under the lower, so a component's root is its minimum point index —
	// the numbering is deterministic regardless of how the prefix was
	// replayed.
	num := int32(0)
	for i := 0; i < n; i++ {
		if h.cd2[i] > t2 {
			labels[i] = -1
			continue
		}
		coreFlags[i] = true
		r := h.replayUF.Find(int32(i))
		if rootLbl[r] < 0 {
			rootLbl[r] = num
			num++
		}
		labels[i] = rootLbl[r]
	}
	h.mu.Unlock()

	if err := ex.Err(); err != nil {
		return nil, err
	}
	border := h.attachBorders(ex, t2, coreFlags, labels)
	if err := ex.Err(); err != nil {
		return nil, err
	}
	return &Result{
		Labels:      labels,
		Core:        coreFlags,
		Border:      border,
		NumClusters: int(num),
	}, nil
}

// attachBorders assigns each non-core point within the radius of some core
// point to that point's cluster (smallest label as primary; full membership
// in the returned map for multi-cluster border points). The build grid's
// neighbor lists cover every pair within the build eps, hence every pair
// within the (smaller) query radius. Unlike the batch border pass there is
// no one-label-per-cell shortcut: at a query radius below the build eps a
// single cell can hold core points of several clusters.
func (h *Hierarchy) attachBorders(ex *parallel.Pool, t2 float64, coreFlags []bool, labels []int32) map[int32][]int32 {
	c := h.cells
	numCells := c.NumCells()
	// Cells without any core at this threshold cannot attach a border point;
	// marking them once lets the scan skip whole cells (and, at small query
	// radii where cores are rare, nearly all work) instead of rediscovering
	// their emptiness point by point.
	coreIn := make([]bool, numCells)
	for g := 0; g < numCells; g++ {
		for _, p := range c.PointsOf(g) {
			if coreFlags[p] {
				coreIn[g] = true
				break
			}
		}
	}
	border := make(map[int32][]int32)
	var mu sync.Mutex
	ex.BlockedFor(numCells, 1, func(lo, hi int) {
		var found []int32
		var multiP []int32
		var multiM [][]int32
		for g := lo; g < hi; g++ {
			if ex.Cancelled() {
				break // partial labels; cutAt bails before building a Result
			}
			anyNear := coreIn[g]
			for _, nb := range c.Neighbors[g] {
				if anyNear {
					break
				}
				anyNear = coreIn[nb]
			}
			if !anyNear {
				continue
			}
			for _, p := range c.PointsOf(g) {
				if coreFlags[p] {
					continue
				}
				found = found[:0]
				if coreIn[g] {
					found = h.borderScanCell(p, int32(g), t2, coreFlags, labels, found)
				}
				for _, nb := range c.Neighbors[g] {
					if coreIn[nb] {
						found = h.borderScanCell(p, nb, t2, coreFlags, labels, found)
					}
				}
				if len(found) == 0 {
					continue
				}
				// Non-core points are visited by exactly one block (their own
				// cell's), so these writes never race.
				labels[p] = found[0]
				if len(found) > 1 {
					multiP = append(multiP, p)
					multiM = append(multiM, append([]int32(nil), found...))
				}
			}
		}
		if len(multiP) > 0 {
			mu.Lock()
			for i, p := range multiP {
				border[p] = multiM[i]
			}
			mu.Unlock()
		}
	})
	return border
}

// borderScanCell collects (ascending, deduplicated) the labels of cell g's
// core points within sqrt(t2) of point p.
func (h *Hierarchy) borderScanCell(p, g int32, t2 float64, coreFlags []bool, labels []int32, found []int32) []int32 {
	c := h.cells
	if h.k.PointBoxDistSqAt(p, c.BBLo, c.BBHi, g) > t2 {
		return found
	}
	for _, q := range c.PointsOf(int(g)) {
		if !coreFlags[q] {
			continue
		}
		lbl := labels[q]
		if containsLabel32(found, lbl) {
			continue
		}
		if h.k.DistSq(p, q) <= t2 {
			found = insertLabel32(found, lbl)
		}
	}
	return found
}

func containsLabel32(set []int32, l int32) bool {
	for _, v := range set {
		if v == l {
			return true
		}
	}
	return false
}

func insertLabel32(set []int32, l int32) []int32 {
	i := len(set)
	set = append(set, l)
	for i > 0 && set[i-1] > l {
		set[i] = set[i-1]
		i--
	}
	set[i] = l
	return set
}

// CutK returns the clustering with exactly k clusters, when some radius in
// (0, Eps()] yields one, together with such a radius. The cluster count as
// eps grows is not monotone — merges reduce it while newly core points add
// singleton clusters — so CutK scans the event values (core distances and
// forest edge weights) and picks the first threshold whose count is k. The
// returned radius is chosen inside that threshold's realizing interval so
// it round-trips: CutEps(eps) reproduces the returned result exactly. CutK
// errors when no threshold yields exactly k clusters.
func (h *Hierarchy) CutK(k int) (*Result, float64, error) {
	return h.CutKContext(context.Background(), k, 0)
}

// CutKContext is CutK under a context and an explicit worker budget.
func (h *Hierarchy) CutKContext(ctx context.Context, k, workers int) (res *Result, eps float64, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if k < 1 {
		return nil, 0, fmt.Errorf("pdbscan: CutK requires k >= 1, got %d", k)
	}
	if workers < 0 {
		return nil, 0, fmt.Errorf("pdbscan: Workers must be >= 0, got %d (0 means all CPUs)", workers)
	}
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	defer recoverRunPanic(ctx, &err)
	// clusters(t) = #{cd2 <= t} - #{forest edges with W2 <= t}: every core
	// point opens a cluster, every forest edge below the threshold merges
	// two (forest edges have no cycles and their endpoints are core at the
	// edge's weight). Scan the merged event sequence; evaluate only after
	// consuming all events of equal value.
	t2 := math.NaN()
	i, j := 0, 0
	for i < len(h.cdSorted) || j < len(h.edges) {
		var t float64
		if i < len(h.cdSorted) && (j >= len(h.edges) || h.cdSorted[i] <= h.edges[j].W2) {
			t = h.cdSorted[i]
		} else {
			t = h.edges[j].W2
		}
		for i < len(h.cdSorted) && h.cdSorted[i] <= t {
			i++
		}
		for j < len(h.edges) && h.edges[j].W2 <= t {
			j++
		}
		if i-j == k {
			t2 = t
			break
		}
	}
	if math.IsNaN(t2) {
		return nil, 0, fmt.Errorf("pdbscan: no eps in (0, %v] yields exactly %d clusters at MinPts=%d", h.eps, k, h.minPts)
	}
	// The count stays k on [t2, tNext) — up to the next event, or to the
	// build threshold when t2 was the last one.
	tNext := h.eps2
	if i < len(h.cdSorted) && h.cdSorted[i] < tNext {
		tNext = h.cdSorted[i]
	}
	if j < len(h.edges) && h.edges[j].W2 < tNext {
		tNext = h.edges[j].W2
	}
	// Return a radius whose square lands inside the plateau, so CutEps(eps)
	// reproduces this exact result despite sqrt rounding: start from the
	// plateau midpoint and nudge by ulps until the event count agrees.
	countAt := func(t float64) int {
		ci := sort.SearchFloat64s(h.cdSorted, t)
		for ci < len(h.cdSorted) && h.cdSorted[ci] == t {
			ci++
		}
		cj := sort.Search(len(h.edges), func(x int) bool { return h.edges[x].W2 > t })
		return ci - cj
	}
	eps = math.Sqrt(t2 + (tNext-t2)/2)
	if eps > h.eps {
		eps = h.eps
	}
	for try := 0; countAt(eps*eps) != k; try++ {
		if try >= 64 {
			// Pathologically narrow plateau: answer at the exact internal
			// threshold; the reported radius is then only approximate.
			res, err = h.cutAt(ctx, t2, workers)
			return res, math.Sqrt(t2), err
		}
		if eps*eps < t2 {
			eps = math.Nextafter(eps, math.Inf(1))
		} else {
			eps = math.Nextafter(eps, 0)
		}
	}
	res, err = h.cutAt(ctx, eps*eps, workers)
	if err != nil {
		return nil, 0, err
	}
	return res, eps, nil
}
