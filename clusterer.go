package pdbscan

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"pdbscan/internal/cellstore"
	"pdbscan/internal/core"
	"pdbscan/internal/geom"
	"pdbscan/internal/grid"
	"pdbscan/internal/parallel"
)

// Clusterer holds the eps-dependent spatial structure — the cell partition
// and its neighbor lists (Sections 4.1, 4.2, 5.1) — and answers repeated Run
// calls against it. The structure depends only on the points and Eps, not on
// MinPts, Method's connectivity strategy, Rho, or Bucketing, so a parameter
// sweep over those (the workflow of Section 7 and of examples/paramsearch)
// pays the grid construction once instead of once per run.
//
// A Clusterer is safe for concurrent use: Run calls may overlap freely, each
// honoring its own Config.Workers budget. The cell structure for each layout
// (grid, and box for 2D methods) is built lazily on the first Run that needs
// it; concurrent first Runs block until the one build finishes.
//
// The points slice handed to NewClustererFlat (or the rows copied by
// NewClusterer) must not be mutated while the Clusterer is in use.
type Clusterer struct {
	pts geom.Points
	eps float64

	grid lazyCells // grid layout (Section 4.1), any dimension
	box  lazyCells // box layout (Section 4.2), 2D methods only

	// parts caches the spatial partitions by (cells, shard count): like the
	// cells they cut, they depend only on the points and eps, so a sweep of
	// Runs pays MakePartition's sorts once.
	partMu sync.Mutex
	parts  map[partKey]*grid.Partition

	// samples caches the sampled-core masks by (sampler, fraction, seed):
	// a mask depends only on the points and those three knobs, so a sweep of
	// sampled Runs (or repeated service requests with one sampling config)
	// pays the sampler once. Masks are immutable once built; cancelled
	// builds are never cached.
	sampleMu sync.Mutex
	samples  map[sampleKey][]bool

	// arena pools the pipeline's per-run and per-worker scratch buffers, so
	// repeated Run calls are near-allocation-free in steady state. Checkout
	// is per run (concurrent Runs each pop their own scratch), so sharing
	// the arena across overlapping Runs is safe.
	arena *core.Arena

	// hiers caches one Hierarchy per MinPts (hierarchies depend only on the
	// points, eps, and MinPts). Entries follow the lazyCells discipline —
	// cancelled builds are discarded, never latched.
	hierMu   sync.Mutex
	hiers    map[int]*lazyHierarchy
	hierHook func(phase string) // test seam: forwarded as the build's PhaseHook

	statsMu   sync.Mutex
	lastStats RunStats

	// store, when non-nil, backs this Clusterer with an on-disk cell store
	// (OpenStoreClusterer): Spill runs stream it window by window, the
	// in-RAM paths address the whole payload through storeMap (created
	// lazily, resident on demand via the page cache), and every result is
	// scattered back to the writing Clusterer's point order.
	store    *cellstore.Store
	storeMu  sync.Mutex
	storeMap *cellstore.Mapping

	builds atomic.Int32 // number of completed cell-structure builds (for tests)
}

// lazyCells builds a cell structure at most once — unless a build is
// cancelled, in which case the half-built structure is discarded and the
// next run that needs the layout rebuilds it from scratch (which is why this
// is explicit state rather than a sync.Once: a Once would latch the
// cancelled build forever). While a build is in flight, `building` holds a
// channel closed when it finishes, so waiting runs can select it against
// their own cancellation instead of blocking unboundedly on the mutex.
type lazyCells struct {
	mu       sync.Mutex
	building chan struct{} // non-nil while a build is in flight
	cells    *grid.Cells
}

// NewClusterer prepares a Clusterer for the given coordinate rows (all rows
// must have the same dimensionality) at the given eps. The points are copied.
func NewClusterer(points [][]float64, eps float64) (*Clusterer, error) {
	pts, err := geom.FromRows(points)
	if err != nil {
		return nil, err
	}
	return newClusterer(pts, eps)
}

// NewClustererFlat prepares a Clusterer over n = len(data)/dims points stored
// row-major in a flat slice, without copying. data must not be mutated while
// the Clusterer is in use.
func NewClustererFlat(data []float64, dims int, eps float64) (*Clusterer, error) {
	if dims <= 0 {
		return nil, fmt.Errorf("pdbscan: dims must be positive, got %d", dims)
	}
	if len(data) == 0 || len(data)%dims != 0 {
		return nil, fmt.Errorf("pdbscan: data length %d is not a positive multiple of dims %d", len(data), dims)
	}
	return newClusterer(geom.Points{N: len(data) / dims, D: dims, Data: data}, eps)
}

func newClusterer(pts geom.Points, eps float64) (*Clusterer, error) {
	if eps <= 0 {
		return nil, fmt.Errorf("pdbscan: Eps must be positive, got %v", eps)
	}
	// Non-finite or out-of-lattice-range coordinates would corrupt the grid
	// construction; reject them up front with a clear error.
	if err := checkCoords(pts.Data, pts.D, eps); err != nil {
		return nil, err
	}
	return &Clusterer{pts: pts, eps: eps, arena: core.NewArena()}, nil
}

// Eps returns the radius this Clusterer was built for.
func (c *Clusterer) Eps() float64 { return c.eps }

// NumPoints returns the number of points.
func (c *Clusterer) NumPoints() int { return c.pts.N }

// Dims returns the dimensionality of the points.
func (c *Clusterer) Dims() int { return c.pts.D }

// validateBudgetConfig checks the scheduling fields (Workers, Shards) that
// both Prepare and the Run-shaped entry points must reject — one function so
// the conditions and messages cannot diverge.
func validateBudgetConfig(cfg *Config) error {
	if cfg.Workers < 0 {
		return fmt.Errorf("pdbscan: Workers must be >= 0, got %d (0 means all CPUs)", cfg.Workers)
	}
	if cfg.Shards < 0 {
		return fmt.Errorf("pdbscan: Shards must be >= 0, got %d (0 means auto, 1 forces one shard)", cfg.Shards)
	}
	return nil
}

// resolveMethod maps cfg.Method (defaulting by dimension d) to the pipeline
// strategies, reporting whether the 2D box layout is needed.
func resolveMethod(d int, cfg *Config, params *core.Params) (useBox bool, err error) {
	method := cfg.Method
	if method == "" || method == MethodAuto {
		if d == 2 {
			method = Method2DGridBCP
		} else {
			method = MethodExact
		}
	}
	switch method {
	case MethodExact:
		params.Mark, params.Graph = core.MarkScan, core.GraphBCP
	case MethodExactQt:
		params.Mark, params.Graph = core.MarkQuadtree, core.GraphQuadtree
	case MethodApprox:
		params.Mark, params.Graph = core.MarkScan, core.GraphApprox
	case MethodApproxQt:
		params.Mark, params.Graph = core.MarkQuadtree, core.GraphApprox
	case Method2DGridBCP, Method2DBoxBCP:
		params.Mark, params.Graph = core.MarkScan, core.GraphBCP
		useBox = method == Method2DBoxBCP
	case Method2DGridUSEC, Method2DBoxUSEC:
		params.Mark, params.Graph = core.MarkScan, core.GraphUSEC
		useBox = method == Method2DBoxUSEC
	case Method2DGridDelaunay, Method2DBoxDelaunay:
		params.Mark, params.Graph = core.MarkScan, core.GraphDelaunay
		useBox = method == Method2DBoxDelaunay
	default:
		return false, fmt.Errorf("pdbscan: unknown method %q", method)
	}
	if params.Graph == core.GraphApprox && params.Rho == 0 {
		params.Rho = 0.01 // the paper's default
	}
	is2DOnly := method == Method2DGridBCP || method == Method2DGridUSEC ||
		method == Method2DGridDelaunay || useBox
	if is2DOnly && d != 2 {
		return false, fmt.Errorf("pdbscan: method %q requires 2-dimensional points, got d=%d", method, d)
	}
	return useBox, nil
}

// cellsFor returns the cell structure for the requested layout, building it
// on first use with the given executor. If the executor's context is
// cancelled during (or before) the build, the half-built structure is
// discarded, the context's error is returned, and the next run that needs
// the layout rebuilds it. A run that arrives while another run's build is
// in flight waits for that build — but selects the wait against its own
// cancellation, so a cancelled waiter still returns promptly instead of
// blocking for the duration of someone else's build.
func (c *Clusterer) cellsFor(useBox bool, ex *parallel.Pool) (*grid.Cells, error) {
	lc := &c.grid
	if useBox {
		lc = &c.box
	}
	for {
		lc.mu.Lock()
		if lc.cells != nil {
			cells := lc.cells
			lc.mu.Unlock()
			return cells, nil
		}
		if err := ex.Err(); err != nil {
			lc.mu.Unlock()
			return nil, err
		}
		if lc.building == nil {
			// Claim the build. The lock is released while building (the
			// build parallelizes on ex); done is closed when it settles.
			// The settle runs in a defer so that a panic inside the build
			// (surfaced as an error at the API boundary) still releases the
			// build slot — otherwise every later run would deadlock on it.
			done := make(chan struct{})
			lc.building = done
			lc.mu.Unlock()
			var cells *grid.Cells
			publish := false
			defer func() {
				lc.mu.Lock()
				lc.building = nil
				if publish {
					lc.cells = cells
					c.builds.Add(1)
				}
				lc.mu.Unlock()
				close(done)
			}()
			cells = c.buildCells(useBox, ex)
			// A build on a cancelled pool may have skipped parallel blocks,
			// leaving the structure arbitrary; publish only clean builds.
			if err := ex.Err(); err != nil {
				return nil, err
			}
			publish = true
			return cells, nil
		}
		done := lc.building
		lc.mu.Unlock()
		select {
		case <-done:
			// Re-check: the build either published (fast path above) or was
			// cancelled by its owner (this run claims the rebuild).
		case <-ex.Done():
			return nil, ex.Err()
		}
	}
}

// buildCells constructs the requested layout's cell structure on ex.
func (c *Clusterer) buildCells(useBox bool, ex *parallel.Pool) *grid.Cells {
	if useBox {
		cells := grid.BuildBox2D(ex, c.pts, c.eps)
		cells.ComputeNeighborsBox2D(ex)
		return cells
	}
	cells := grid.BuildGrid(ex, c.pts, c.eps)
	cells.ComputeNeighbors(ex, nil)
	return cells
}

// sampleKey identifies one sampled-core mask in the Clusterer's cache.
type sampleKey struct {
	sampler Sampler
	frac    float64
	seed    int64
}

// sampleFor returns the cached sampled-core mask for cfg's sampling knobs,
// building it on first use with the given executor. Masks are immutable once
// built; the lock only serializes construction. A mask built on a cancelled
// pool may be arbitrary (the samplers bail early) and is never cached.
func (c *Clusterer) sampleFor(cfg *Config, ex *parallel.Pool) ([]bool, error) {
	key := sampleKey{cfg.Sampler, cfg.SampleFrac, cfg.SampleSeed}
	c.sampleMu.Lock()
	defer c.sampleMu.Unlock()
	if m, ok := c.samples[key]; ok {
		return m, nil
	}
	var mask []bool
	switch cfg.Sampler {
	case SamplerUniform:
		mask = core.UniformMask(ex, c.pts.N, cfg.SampleFrac, cfg.SampleSeed)
	case SamplerKCenter:
		mask = core.KCenterMask(ex, c.pts, cfg.SampleFrac, cfg.SampleSeed)
	default:
		return nil, fmt.Errorf("pdbscan: unknown sampler %q", cfg.Sampler)
	}
	if err := ex.Err(); err != nil {
		return nil, err
	}
	if c.samples == nil {
		c.samples = make(map[sampleKey][]bool)
	}
	c.samples[key] = mask
	return mask, nil
}

// partKey identifies one cached partition: the cells it cuts (one layout's
// published structure) and the requested shard count. Both layouts have a
// one-shard partition, so the shard count alone does not name one.
type partKey struct {
	cells  *grid.Cells
	shards int
}

// partitionFor returns the cached partition of the given cells for the given
// shard count, building it on first use. Partitions are immutable once
// built; the lock only serializes construction.
func (c *Clusterer) partitionFor(cells *grid.Cells, shards int, ex *parallel.Pool) (*grid.Partition, error) {
	key := partKey{cells, shards}
	c.partMu.Lock()
	defer c.partMu.Unlock()
	if p, ok := c.parts[key]; ok {
		return p, nil
	}
	p, err := grid.MakePartition(ex, cells, shards)
	if err != nil {
		return nil, err
	}
	// A partition cut on a cancelled pool may be arbitrary; never cache it.
	if err := ex.Err(); err != nil {
		return nil, err
	}
	if c.parts == nil {
		c.parts = make(map[partKey]*grid.Partition)
	}
	c.parts[key] = p
	return p, nil
}

// Prepare eagerly builds the cell structure cfg's Method needs (the grid
// layout, or the 2D box layout for 2d-box-* methods) with cfg.Workers,
// without clustering. The structure is otherwise built lazily by the first
// Run that needs it — with that Run's worker budget. A sweep whose first Run
// is deliberately narrow (Workers: 1) can call Prepare first so the
// expensive construction still parallelizes. Calling Prepare when the
// structure already exists is a no-op.
func (c *Clusterer) Prepare(cfg Config) (err error) {
	// Same panic boundary as the run entry points: a worker panic during the
	// eager build surfaces as an error, not a crash.
	defer recoverRunPanic(context.Background(), &err)
	if err := c.checkEps(cfg); err != nil {
		return err
	}
	if err := validateBudgetConfig(&cfg); err != nil {
		return err
	}
	if c.store != nil && !cfg.Spill {
		if err := c.ensureMapped(); err != nil {
			return err
		}
	}
	if cfg.Spill {
		return nil // Spill runs need no in-RAM cell structure
	}
	var params core.Params
	useBox, err := resolveMethod(c.pts.D, &cfg, &params)
	if err != nil {
		return err
	}
	if resolveShards(&cfg, c.pts.N) > 1 {
		useBox = false // a sharded Run will use the grid layout
	}
	_, err = c.cellsFor(useBox, parallel.NewPool(cfg.Workers))
	return err
}

func (c *Clusterer) checkEps(cfg Config) error {
	if cfg.Eps != 0 && cfg.Eps != c.eps {
		return fmt.Errorf("pdbscan: Clusterer built for Eps=%v cannot run with Eps=%v (create a new Clusterer)", c.eps, cfg.Eps)
	}
	return nil
}

// Run clusters the points with this Clusterer's precomputed cell structure.
// cfg.Eps must be zero (meaning "the Clusterer's eps") or equal to Eps();
// every other Config field is honored per call, including Workers — distinct
// Run calls, even concurrent ones, never share parallelism state. The result
// is identical to Cluster with the same Config.
//
// Run is RunContext with a background (never-cancelled) context.
func (c *Clusterer) Run(cfg Config) (*Result, error) {
	return c.RunContext(context.Background(), cfg)
}

// RunContext is Run under a context: when ctx is cancelled (or its deadline
// passes) while the run is in flight, the run stops cooperatively at the
// next phase or cell boundary — promptly, without waiting for the clustering
// to finish — and returns ctx.Err(). The Clusterer remains fully usable: the
// run's pooled scratch is released in a reusable state, a cell structure
// whose build was interrupted is discarded and rebuilt by the next run, and
// the next uncancelled RunContext returns exactly what it would have had the
// cancelled run never happened. Cancellation never corrupts results — a run
// either completes and returns the same clustering Run would, or returns
// ctx.Err() and no result.
//
// The cell structure is built lazily by the first run that needs it, with
// that run's Workers budget; call Prepare to build it eagerly with a budget
// of your choice.
func (c *Clusterer) RunContext(ctx context.Context, cfg Config) (res *Result, err error) {
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
	defer recoverRunPanic(ctx, &err)
	start := time.Now()
	ex := parallel.NewPoolContext(ctx, cfg.Workers)
	var tm core.PhaseTimings
	params := core.Params{
		MinPts:    cfg.MinPts,
		Rho:       cfg.Rho,
		Bucketing: cfg.Bucketing,
		Buckets:   cfg.Buckets,
		Exec:      ex,
		Arena:     c.arena,
		Timings:   &tm,
	}
	useBox, err := resolveMethod(c.pts.D, &cfg, &params)
	if err != nil {
		return nil, err
	}
	var cres *core.Result
	var ooc core.OOCStats // residency accounting; zero for in-RAM runs
	shards := 1
	if cfg.Spill {
		// Out-of-core: sweep the store's shards one halo window at a time.
		// Validate already rejected Sampler and explicit Shards; the shard
		// schedule is the store's layout.
		if c.store == nil {
			return nil, fmt.Errorf("pdbscan: Spill requires a store-backed Clusterer (OpenStoreClusterer)")
		}
		var st *core.OOCStats
		cres, st, err = core.RunOutOfCore(c.store, params, cfg.MaxResidentBytes)
		if err != nil {
			return nil, err
		}
		ooc, shards = *st, c.store.NumShards()
	} else {
		if cres, shards, err = c.runInRAM(ex, &cfg, params, useBox); err != nil {
			return nil, err
		}
		if c.store != nil {
			// Store-backed payloads are laid out in store order; hand
			// results back in the writing Clusterer's point order.
			core.ScatterResult(ex, cres, c.store.OrigIdx())
		}
	}
	total := time.Since(start)
	phases := tm.Mark + tm.Graph + tm.Merge + tm.Label + tm.Border
	c.statsMu.Lock()
	c.lastStats = RunStats{
		MarkCore:           tm.Mark,
		ClusterCore:        tm.Graph + tm.Merge,
		Border:             tm.Label + tm.Border,
		Build:              total - phases,
		Total:              total,
		Shards:             shards,
		Workers:            ex.Workers(),
		BytesMapped:        ooc.BytesMapped,
		PeakResidentBytes:  ooc.PeakResidentBytes,
		ShardsResidentPeak: ooc.ShardsResidentPeak,
	}
	c.statsMu.Unlock()
	return &Result{
		Labels:      cres.Labels,
		Core:        cres.Core,
		Border:      cres.Border,
		NumClusters: cres.NumClusters,
	}, nil
}

// runInRAM runs the sharded executor over this Clusterer's cell structure
// and reports the effective shard count.
func (c *Clusterer) runInRAM(ex *parallel.Pool, cfg *Config, params core.Params, useBox bool) (*core.Result, int, error) {
	if c.store != nil {
		if err := c.ensureMapped(); err != nil {
			return nil, 0, err
		}
	}
	if cfg.Sampler != SamplerNone {
		mask, err := c.sampleFor(cfg, ex)
		if err != nil {
			return nil, 0, err
		}
		params.Sample = mask
	}
	// A cut needs the anchored lattice, so a multi-shard run is served by
	// the grid layout — 2d-box-* methods keep their connectivity strategy
	// (identical clustering; see Config.Shards). One shard takes any layout.
	shards := resolveShards(cfg, c.pts.N)
	useBox = useBox && shards == 1
	cells, err := c.cellsFor(useBox, ex)
	if err != nil {
		return nil, 0, err
	}
	part, err := c.partitionFor(cells, shards, ex)
	if err != nil {
		return nil, 0, err
	}
	cres, err := core.RunSharded(cells, params, part)
	return cres, part.NumShards, err
}

// LastRunStats returns the RunStats of the most recent completed (successful)
// run on this Clusterer. Concurrent runs record their stats in completion
// order; cancelled or failed runs record nothing.
func (c *Clusterer) LastRunStats() RunStats {
	c.statsMu.Lock()
	defer c.statsMu.Unlock()
	return c.lastStats
}

// recoverRunPanic is the API-boundary panic handler of every run-shaped entry
// point: a worker panic recovered by internal/parallel (or any panic on the
// run's own goroutine) surfaces as an error instead of crashing the process.
// On a cancelled context the panic is attributed to the cancellation — a
// construct on a cancelled pool is allowed to skip blocks, and downstream
// code that consumed such output before noticing the cancellation may fail
// arbitrarily — and ctx.Err() is returned, which is the contract callers
// already handle.
func recoverRunPanic(ctx context.Context, err *error) {
	if r := recover(); r != nil {
		*err = runPanicError(ctx, r)
	}
}

// runPanicError classifies a recovered run panic into the error the API
// returns (shared by the batch and streaming boundary handlers, so the
// attribution rules cannot diverge).
func runPanicError(ctx context.Context, r any) error {
	if cerr := ctx.Err(); cerr != nil {
		return cerr
	}
	if pe, ok := r.(*parallel.PanicError); ok {
		return fmt.Errorf("pdbscan: %w", pe)
	}
	return fmt.Errorf("pdbscan: internal panic: %v\n%s", r, debug.Stack())
}
