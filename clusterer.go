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
// it; a Run that needs a structure another Run is still building waits for
// that build, or for its own cancellation, whichever comes first.
//
// The points slice handed to NewClustererFlat (or the rows copied by
// NewClusterer) must not be mutated while the Clusterer is in use.
type Clusterer struct {
	pts geom.Points // Data is nil for a store-backed Clusterer; see pointsFor
	eps float64

	// Everything a Clusterer derives from its points is built once, on first
	// use, through a memo (see memo.get): the cell structure per layout
	// (false: grid, Section 4.1; true: box, Section 4.2), its partitions by
	// (cells, shard count), the sampled-core masks by (sampler, fraction,
	// seed), the hierarchies by MinPts, and a store-backed Clusterer's
	// points. None depends on anything else a Run varies, so a sweep pays
	// each once.
	cells    memo[bool, *grid.Cells]
	parts    memo[partKey, *grid.Partition]
	samples  memo[sampleKey, []bool]
	hiers    memo[int, *Hierarchy]
	storePts memo[struct{}, geom.Points]

	// arena pools the pipeline's per-run and per-worker scratch buffers, so
	// repeated Run calls are near-allocation-free in steady state. Checkout
	// is per run (concurrent Runs each pop their own scratch), so sharing
	// the arena across overlapping Runs is safe.
	arena *core.Arena

	hierHook func(phase string) // test seam: forwarded as the build's PhaseHook

	statsMu   sync.Mutex
	lastStats RunStats

	// store, when non-nil, backs this Clusterer with an on-disk cell store
	// (OpenStoreClusterer): Spill runs stream it window by window, and the
	// in-RAM paths run on the points gathered from it once, in the writing
	// Clusterer's point order (pointsFor).
	store *cellstore.Store
}

// memo builds the value of each key at most once and keeps it. The first
// request for a key claims the build and runs it outside the lock, so builds
// of different keys run side by side; a request that finds the key's build in
// flight waits for it, or for its own pool's cancellation, whichever comes
// first. A build that fails, or whose pool was cancelled (its parallel loops
// may have skipped blocks), is discarded, not kept, and the next request
// builds again — which is why this is not a sync.Once, which would latch the
// failed build forever.
type memo[K comparable, V any] struct {
	mu      sync.Mutex
	entries map[K]*memoEntry[V]
	builds  atomic.Int32 // kept builds (for tests)
}

// memoEntry is one key's build: in flight until done is closed, kept after
// that if ok. A discarded build's entry leaves the map before done closes.
type memoEntry[V any] struct {
	done chan struct{}
	val  V
	ok   bool
}

// get returns key's kept value — at once, even on a cancelled pool — or
// builds it with build, whose parallel work runs on ex.
func (m *memo[K, V]) get(ex *parallel.Pool, key K, build func() (V, error)) (V, error) {
	var zero V
	for {
		m.mu.Lock()
		e := m.entries[key]
		if e != nil && e.ok {
			m.mu.Unlock()
			return e.val, nil
		}
		if err := ex.Err(); err != nil {
			m.mu.Unlock()
			return zero, err
		}
		if e == nil {
			e = &memoEntry[V]{done: make(chan struct{})}
			if m.entries == nil {
				m.entries = make(map[K]*memoEntry[V])
			}
			m.entries[key] = e
			m.mu.Unlock()
			return m.run(ex, key, e, build)
		}
		m.mu.Unlock()
		select {
		case <-e.done:
			// Kept (the fast path above), or discarded (this request claims
			// the rebuild).
		case <-ex.Done():
			return zero, ex.Err()
		}
	}
}

// run builds the entry this request claimed. The settle is deferred, so a
// panicking build (surfaced as an error at the API boundary) still releases
// its claim instead of leaving every later request waiting on it.
func (m *memo[K, V]) run(ex *parallel.Pool, key K, e *memoEntry[V], build func() (V, error)) (V, error) {
	keep := false
	var v V
	defer func() {
		m.mu.Lock()
		if keep {
			e.val, e.ok = v, true
			m.builds.Add(1)
		} else {
			delete(m.entries, key)
		}
		m.mu.Unlock()
		close(e.done)
	}()
	v, err := build()
	if err == nil {
		err = ex.Err()
	}
	if err != nil {
		var zero V
		return zero, err
	}
	keep = true
	return v, nil
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
// on first use with the given executor (see memo.get for what a cancelled or
// concurrent request sees).
func (c *Clusterer) cellsFor(useBox bool, ex *parallel.Pool) (*grid.Cells, error) {
	return c.cells.get(ex, useBox, func() (*grid.Cells, error) {
		pts, err := c.pointsFor(ex)
		if err != nil {
			return nil, err
		}
		if useBox {
			cells := grid.BuildBox2D(ex, pts, c.eps)
			cells.ComputeNeighborsBox2D(ex)
			return cells, nil
		}
		cells := grid.BuildGrid(ex, pts, c.eps)
		cells.ComputeNeighbors(ex, nil)
		return cells, nil
	})
}

// sampleKey identifies one sampled-core mask in the Clusterer's cache.
type sampleKey struct {
	sampler Sampler
	frac    float64
	seed    int64
}

// sampleFor returns the sampled-core mask for cfg's sampling knobs, building
// it on first use with the given executor. Masks are immutable once built.
func (c *Clusterer) sampleFor(cfg *Config, ex *parallel.Pool) ([]bool, error) {
	key := sampleKey{cfg.Sampler, cfg.SampleFrac, cfg.SampleSeed}
	return c.samples.get(ex, key, func() ([]bool, error) {
		switch cfg.Sampler {
		case SamplerUniform:
			return core.UniformMask(ex, c.pts.N, cfg.SampleFrac, cfg.SampleSeed), nil
		case SamplerKCenter:
			pts, err := c.pointsFor(ex)
			if err != nil {
				return nil, err
			}
			return core.KCenterMask(ex, pts, cfg.SampleFrac, cfg.SampleSeed), nil
		}
		return nil, fmt.Errorf("pdbscan: unknown sampler %q", cfg.Sampler)
	})
}

// partKey identifies one cached partition: the cells it cuts (one layout's
// kept structure) and the requested shard count. Both layouts have a
// one-shard partition, so the shard count alone does not name one.
type partKey struct {
	cells  *grid.Cells
	shards int
}

// partitionFor returns the partition of the given cells for the given shard
// count, building it on first use. Partitions are immutable once built.
func (c *Clusterer) partitionFor(cells *grid.Cells, shards int, ex *parallel.Pool) (*grid.Partition, error) {
	return c.parts.get(ex, partKey{cells, shards}, func() (*grid.Partition, error) {
		return grid.MakePartition(ex, cells, shards)
	})
}

// pointsFor returns the points every in-RAM structure is built on, in this
// Clusterer's point order. A store-backed Clusterer gathers them from the
// store once: row r of the store's payload is the writing Clusterer's point
// OrigIdx()[r], so its cells, masks, hierarchies and results are the
// writer's own. The mapping is released once the rows are copied.
func (c *Clusterer) pointsFor(ex *parallel.Pool) (geom.Points, error) {
	if c.store == nil {
		return c.pts, nil
	}
	return c.storePts.get(ex, struct{}{}, func() (geom.Points, error) {
		m, err := c.store.MapPoints(0, c.store.NumCells())
		if err != nil {
			return geom.Points{}, err
		}
		defer m.Release()
		n, d := c.pts.N, c.pts.D
		data := make([]float64, n*d)
		orig := c.store.OrigIdx()
		ex.BlockedFor(n, 0, func(lo, hi int) {
			for r := lo; r < hi; r++ {
				o := int(orig[r]) * d
				copy(data[o:o+d], m.Data[r*d:(r+1)*d])
			}
		})
		return geom.Points{N: n, D: d, Data: data}, nil
	})
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

// ValidateConfig reports the error RunContext would reject cfg with before
// it runs: an Eps other than 0 or Eps(), the checks of Config.Validate, a
// method the points' dimensionality rules out, and Spill on a Clusterer
// with no cell store. A service calls it to answer a bad request before
// queueing the run (engine.Submit does, for batch jobs).
func (c *Clusterer) ValidateConfig(cfg Config) error {
	if err := c.checkEps(cfg); err != nil {
		return err
	}
	if err := cfg.Validate(); err != nil {
		return err
	}
	if _, err := resolveMethod(c.pts.D, &cfg, &core.Params{}); err != nil {
		return err
	}
	if cfg.Spill && c.store == nil {
		return fmt.Errorf("pdbscan: Spill requires a store-backed Clusterer (OpenStoreClusterer)")
	}
	return nil
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
	if err := c.ValidateConfig(cfg); err != nil {
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
		// ValidateConfig already rejected Sampler, explicit Shards and a
		// Clusterer with no store; the shard schedule is the store's layout.
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
