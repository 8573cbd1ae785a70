package pdbscan

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"pdbscan/internal/core"
	"pdbscan/internal/grid"
	"pdbscan/internal/parallel"
)

// StreamingClusterer maintains a point set under insertions and removals and
// re-clusters it incrementally: each Run touches only the cells whose
// eps-neighborhood changed since the previous Run, reusing everything else —
// cell point lists, bounding boxes, neighbor lists, core flags, per-cell
// quadtrees, and cell-graph edge booleans. The per-tick cost is proportional
// to the dirtied region (plus cheap linear bookkeeping), not to the distance
// work of a full re-clustering, which is what makes sliding-window workloads
// (lidar frames, live geodata, telemetry) affordable at high tick rates.
//
// The guarantee is exactness, not approximation: for every Method (including
// the Gan–Tao approximate ones) Run returns the same clustering a from-scratch
// Cluster produces on the current point set, up to cluster label permutation.
// This works because the cell structure depends only on the points and Eps
// (Sections 4.1–4.2) and is anchored to the absolute side-grid lattice, and
// because every piece of derived state is invalidated whenever anything in
// its eps-neighborhood changes. The oracle and metamorphic test suites
// enforce the equality on every tick.
//
// Points are identified by the int64 ids Insert assigns; results are reported
// in insertion order (row k of a StreamResult is the k-th oldest live point).
// A StreamingClusterer is safe for concurrent use; mutations and Runs are
// serialized internally (the incremental caches are single-writer), while
// each Run still parallelizes internally under its own Config.Workers budget.
//
// Two minor semantic differences from the batch path, both method-visible
// only in performance, never in results: the 2d-box-* methods are served by
// the grid cell layout (identical clustering — all exact methods agree), and
// Config.Bucketing is ignored (it batches the pruned graph loop of a
// one-shard batch run, which the incremental edge evaluation replaces).
//
// A Run takes one shard: Config.Shards must be 0 (auto) or 1, and a larger
// count is rejected, as Sampler and Spill are. A sharded run could not reuse
// the incremental caches, and per-tick reuse is this type's reason to exist.
type StreamingClusterer struct {
	mu    sync.Mutex
	dims  int
	eps   float64
	dyn   *grid.Dynamic
	inc   *core.Incremental
	arena *core.Arena // pooled pipeline scratch, reused across ticks

	ids    []int64 // live ids, insertion order (hence ascending)
	slots  []int32 // point slot of ids[k] (kept aligned with ids)
	nextID int64

	lastStats StreamStats
}

// StreamStats describes what the most recent Run had to recompute.
type StreamStats struct {
	// NumPoints and NumCells describe the clustered snapshot (NumCells
	// counts non-empty cells).
	NumPoints int
	NumCells  int
	// DirtyCells is the size of the affected set: cells whose core flags and
	// incident cell-graph edges were recomputed. 0 for a mutation-free,
	// config-stable rerun; equal to NumCells on a Full run.
	DirtyCells int
	// Full marks a run that reused nothing: the first, or one right after a
	// failed run dropped the caches.
	Full bool
}

// LastRunStats returns the StreamStats of the most recent Run.
func (s *StreamingClusterer) LastRunStats() StreamStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastStats
}

// StreamResult is the output of StreamingClusterer.Run. The embedded Result
// is indexed by position in IDs: Labels[k], Core[k], and Border's keys refer
// to the k-th live point in insertion order, whose id is IDs[k].
type StreamResult struct {
	Result
	// IDs lists the live point ids in insertion order, aligned with the
	// embedded Result's rows.
	IDs []int64
}

// LabelOf returns the cluster label of the point with the given id, or
// (-1, false) if the id is not in the result.
func (r *StreamResult) LabelOf(id int64) (int32, bool) {
	// IDs is ascending (ids are assigned from a counter and reported in
	// insertion order), so binary search.
	if k, ok := slices.BinarySearch(r.IDs, id); ok {
		return r.Labels[k], true
	}
	return -1, false
}

// NewStreamingClusterer prepares an empty streaming clusterer for
// dims-dimensional points at the given eps. Like Clusterer, the structure is
// pinned to one eps; runs may vary every other Config field.
func NewStreamingClusterer(dims int, eps float64) (*StreamingClusterer, error) {
	if dims <= 0 {
		return nil, fmt.Errorf("pdbscan: dims must be positive, got %d", dims)
	}
	if eps <= 0 {
		return nil, fmt.Errorf("pdbscan: Eps must be positive, got %v", eps)
	}
	return &StreamingClusterer{
		dims:  dims,
		eps:   eps,
		dyn:   grid.NewDynamic(dims, eps),
		inc:   core.NewIncremental(),
		arena: core.NewArena(),
	}, nil
}

// Dims returns the dimensionality of the points.
func (s *StreamingClusterer) Dims() int { return s.dims }

// Eps returns the radius the structure is built for.
func (s *StreamingClusterer) Eps() float64 { return s.eps }

// Len returns the number of live points.
func (s *StreamingClusterer) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.ids)
}

// IDs returns the live point ids in insertion order.
func (s *StreamingClusterer) IDs() []int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]int64, len(s.ids))
	copy(out, s.ids)
	return out
}

// Point returns a copy of the coordinates of the point with the given id.
func (s *StreamingClusterer) Point(id int64) ([]float64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	k, ok := slices.BinarySearch(s.ids, id)
	if !ok {
		return nil, false
	}
	out := make([]float64, s.dims)
	copy(out, s.dyn.PointAt(s.slots[k]))
	return out, true
}

// Insert adds points given as coordinate rows and returns their assigned ids
// (ascending; ids are never reused). All rows must have length Dims and
// finite coordinates; on error nothing is inserted.
func (s *StreamingClusterer) Insert(points [][]float64) ([]int64, error) {
	for i, row := range points {
		if len(row) != s.dims {
			return nil, fmt.Errorf("pdbscan: row %d has %d coords, want %d", i, len(row), s.dims)
		}
		// Finite + lattice-range validation (spread is re-checked against
		// the live set by each snapshot, which can reject a Run later if
		// inserts drift more than 2^31 cells apart).
		if err := checkCoords(row, s.dims, s.eps); err != nil {
			return nil, fmt.Errorf("row %d: %w", i, err)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]int64, len(points))
	for i, row := range points {
		id := s.nextID
		s.nextID++
		s.ids = append(s.ids, id)
		s.slots = append(s.slots, s.dyn.Insert(row))
		out[i] = id
	}
	return out, nil
}

// InsertFlat is Insert for len(data)/Dims points stored row-major in a flat
// slice (the data is copied into the structure either way).
func (s *StreamingClusterer) InsertFlat(data []float64) ([]int64, error) {
	if len(data) == 0 || len(data)%s.dims != 0 {
		return nil, fmt.Errorf("pdbscan: data length %d is not a positive multiple of dims %d", len(data), s.dims)
	}
	rows := make([][]float64, len(data)/s.dims)
	for i := range rows {
		rows[i] = data[i*s.dims : (i+1)*s.dims]
	}
	return s.Insert(rows)
}

// Remove deletes the points with the given ids. If any id is unknown, an
// error is returned and nothing is removed. A repeated id is removed once.
func (s *StreamingClusterer) Remove(ids ...int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, id := range ids {
		if _, ok := slices.BinarySearch(s.ids, id); !ok {
			return fmt.Errorf("pdbscan: unknown point id %d", id)
		}
	}
	// Mark each removed entry's slot -1 (a repeated id finds its entry
	// already marked), then compact the table once from the first mark.
	first := len(s.ids)
	for _, id := range ids {
		k, _ := slices.BinarySearch(s.ids, id)
		if s.slots[k] < 0 {
			continue
		}
		s.dyn.Remove(s.slots[k])
		s.slots[k] = -1
		first = min(first, k)
	}
	kept := first
	for k := first; k < len(s.ids); k++ {
		if s.slots[k] >= 0 {
			s.ids[kept], s.slots[kept] = s.ids[k], s.slots[k]
			kept++
		}
	}
	s.ids, s.slots = s.ids[:kept], s.slots[:kept]
	return nil
}

// Window evicts the oldest points until at most n remain (the sliding-window
// primitive) and returns the evicted ids in eviction (insertion) order.
func (s *StreamingClusterer) Window(n int) []int64 {
	if n < 0 {
		n = 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.ids) <= n {
		return nil
	}
	evict := make([]int64, len(s.ids)-n)
	copy(evict, s.ids[:len(evict)])
	for _, slot := range s.slots[:len(evict)] {
		s.dyn.Remove(slot)
	}
	s.ids = append(s.ids[:0], s.ids[len(evict):]...)
	s.slots = append(s.slots[:0], s.slots[len(evict):]...)
	return evict
}

// ValidateConfig reports the error RunContext would reject cfg with before
// it touches the point set: the checks of Config.Validate, an Eps other
// than 0 or Eps(), the batch-only settings (a Sampler, Spill, Shards above
// 1), and a method the stream's dimensionality rules out. A service calls
// it to answer a bad request before queueing the run (engine.Submit does,
// for streaming jobs).
func (s *StreamingClusterer) ValidateConfig(cfg Config) error {
	if cfg.Eps != 0 && cfg.Eps != s.eps {
		return fmt.Errorf("pdbscan: StreamingClusterer built for Eps=%v cannot run with Eps=%v (create a new one)", s.eps, cfg.Eps)
	}
	if err := cfg.Validate(); err != nil {
		return err
	}
	if cfg.Sampler != SamplerNone {
		// The incremental caches pin exact per-cell core state; a sampled
		// tick would invalidate them wholesale. Batch-only by design.
		return fmt.Errorf("pdbscan: the sampled-core mode is batch-only; StreamingClusterer does not accept Sampler %q", cfg.Sampler)
	}
	if cfg.Spill {
		// Out-of-core runs stream an immutable on-disk store; the dynamic
		// grid lives in RAM. Use Snapshot/RestoreStreaming to persist
		// streaming state instead.
		return fmt.Errorf("pdbscan: out-of-core runs are batch-only; StreamingClusterer does not accept Spill")
	}
	if cfg.Shards > 1 {
		// A sharded run would recompute the whole window and drop the
		// incremental caches; per-tick reuse is this type's reason to exist.
		return fmt.Errorf("pdbscan: streaming runs take one shard; StreamingClusterer does not accept Shards %d (0 or 1)", cfg.Shards)
	}
	params := core.Params{Rho: cfg.Rho}
	if _, err := resolveMethod(s.dims, &cfg, &params); err != nil {
		return err
	}
	if params.Graph == core.GraphApprox && params.Rho <= 0 {
		return fmt.Errorf("pdbscan: approximate methods require Rho > 0, got %v", params.Rho)
	}
	return nil
}

// Run re-clusters the current point set, touching only state invalidated by
// the mutations since the previous Run (and by Config changes: a different
// MinPts re-marks every cell; a different connectivity kind or Rho re-derives
// every edge). cfg.Eps must be zero or equal to Eps(). Running with no
// mutations and an unchanged Config re-uses everything and is a near-no-op.
//
// Running on an empty point set returns an empty result (unlike Cluster,
// which rejects empty input — a stream is legitimately empty between
// windows).
//
// Run is RunContext with a background (never-cancelled) context.
func (s *StreamingClusterer) Run(cfg Config) (*StreamResult, error) {
	return s.RunContext(context.Background(), cfg)
}

// RunContext is Run under a context: when ctx is cancelled mid-tick, the run
// stops cooperatively at the next phase or cell boundary and returns
// ctx.Err(). The point set itself is untouched (mutations live outside Run),
// but the incremental caches may have absorbed part of the tick, so they are
// dropped — the next RunContext is a full recompute (Full = true in its
// StreamStats) and returns exactly what it would have returned anyway.
//
// The snapshot that ingests pending mutations into the cell structure always
// runs to completion regardless of ctx — a snapshot consumes the dirty set
// and must not be interrupted halfway — so cancellation latency is bounded
// by the snapshot of the pending mutations plus one phase grain; for
// mutation-light ticks both are small.
func (s *StreamingClusterer) RunContext(ctx context.Context, cfg Config) (res *StreamResult, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Reject everything rejectable BEFORE taking the snapshot: a snapshot
	// consumes the dirty set, so a config error surfacing after it would
	// leave the caches out of sync with the structure.
	if err := s.ValidateConfig(cfg); err != nil {
		return nil, err
	}
	params := core.Params{
		MinPts: cfg.MinPts,
		Rho:    cfg.Rho,
	}
	if _, err := resolveMethod(s.dims, &cfg, &params); err != nil {
		return nil, err
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	// API-boundary panic handler (registered after the Unlock defer, so it
	// still holds the lock): a worker panic surfaces as an error via the
	// shared classifier, and the incremental caches — possibly
	// half-absorbed — are dropped.
	defer func() {
		if r := recover(); r != nil {
			s.inc = core.NewIncremental()
			res, err = nil, runPanicError(ctx, r)
		}
	}()
	params.Exec = parallel.NewPoolContext(ctx, cfg.Workers)
	params.Arena = s.arena
	// The snapshot runs on a context-free pool with the same budget: its
	// mutations to the dynamic structure must complete once started (see the
	// RunContext doc).
	cells, dirty, err := s.dyn.Snapshot(parallel.NewPool(cfg.Workers))
	if err != nil {
		return nil, err
	}
	// A fresh cache (first run, or one dropped by a failed run) makes the
	// run full no matter what the snapshot's dirty info says.
	full := dirty.Full || s.inc.Fresh()
	// Run the incremental pipeline even when the stream is empty: every
	// snapshot's DirtyInfo must reach the caches exactly once, and an empty
	// tick is how dying cells' cached core lists get retired (skipping it
	// would leak them into the next non-empty tick as phantom clusters —
	// pinned by the FuzzStreamingOps corpus).
	cres, err := core.RunIncremental(cells, params, s.inc, dirty)
	if err != nil {
		// The snapshot's dirty info is spent but the caches never absorbed
		// it; drop them so the next Run recomputes from clean state instead
		// of silently reusing stale entries.
		s.inc = core.NewIncremental()
		return nil, err
	}
	numCells := 0
	for g := 0; g < cells.NumCells(); g++ {
		if cells.CellSize(g) > 0 {
			numCells++
		}
	}
	dirtyCells := dirty.NumAffected
	if full {
		dirtyCells = numCells
	}
	s.lastStats = StreamStats{
		NumPoints:  len(s.ids),
		NumCells:   numCells,
		DirtyCells: dirtyCells,
		Full:       full,
	}

	// Re-index from point slots to insertion order.
	out := &StreamResult{
		Result: Result{
			Labels:      make([]int32, len(s.ids)),
			Core:        make([]bool, len(s.ids)),
			Border:      make(map[int32][]int32, len(cres.Border)),
			NumClusters: cres.NumClusters,
		},
		IDs: make([]int64, len(s.ids)),
	}
	posOfSlot := make([]int32, s.dyn.NumPointSlots())
	for k, id := range s.ids {
		slot := s.slots[k]
		posOfSlot[slot] = int32(k)
		out.IDs[k] = id
		out.Labels[k] = cres.Labels[slot]
		out.Core[k] = cres.Core[slot]
	}
	for slot, member := range cres.Border {
		out.Border[posOfSlot[slot]] = member
	}
	return out, nil
}
