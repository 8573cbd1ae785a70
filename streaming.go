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
// Config.Bucketing is ignored (it schedules a pruned batch traversal the
// incremental edge evaluation replaces).
//
// Config.Shards > 1 routes a Run through the sharded partition/merge path
// instead of the incremental one: the full window is re-clustered (same
// results, as everywhere) and the incremental caches are dropped, so the
// next incremental Run starts from scratch. Shards = 0 (auto) always stays
// incremental — per-tick reuse is this type's reason to exist.
type StreamingClusterer struct {
	mu    sync.Mutex
	dims  int
	eps   float64
	dyn   *grid.Dynamic
	inc   *core.Incremental
	arena *core.Arena // pooled pipeline scratch, reused across ticks

	ids    []int64         // live ids, insertion order
	slots  []int32         // point slot of ids[k] (kept aligned with ids)
	slotOf map[int64]int32 // id -> point slot
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
	// Full marks a run that reused nothing: the first, one right after a
	// sharded or failed run dropped the caches, or any run through the
	// sharded path itself.
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
		dims:   dims,
		eps:    eps,
		dyn:    grid.NewDynamic(dims, eps),
		inc:    core.NewIncremental(),
		arena:  core.NewArena(),
		slotOf: make(map[int64]int32),
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
	slot, ok := s.slotOf[id]
	if !ok {
		return nil, false
	}
	out := make([]float64, s.dims)
	copy(out, s.dyn.PointAt(slot))
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
		slot := s.dyn.Insert(row)
		s.slotOf[id] = slot
		s.ids = append(s.ids, id)
		s.slots = append(s.slots, slot)
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
// error is returned and nothing is removed.
func (s *StreamingClusterer) Remove(ids ...int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, id := range ids {
		if _, ok := s.slotOf[id]; !ok {
			return fmt.Errorf("pdbscan: unknown point id %d", id)
		}
	}
	removed := make(map[int64]bool, len(ids))
	for _, id := range ids {
		if removed[id] {
			continue
		}
		removed[id] = true
		s.dyn.Remove(s.slotOf[id])
		delete(s.slotOf, id)
	}
	keptIDs := s.ids[:0]
	keptSlots := s.slots[:0]
	for k, id := range s.ids {
		if !removed[id] {
			keptIDs = append(keptIDs, id)
			keptSlots = append(keptSlots, s.slots[k])
		}
	}
	s.ids, s.slots = keptIDs, keptSlots
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
	for k, id := range evict {
		s.dyn.Remove(s.slots[k])
		delete(s.slotOf, id)
	}
	s.ids = append(s.ids[:0], s.ids[len(evict):]...)
	s.slots = append(s.slots[:0], s.slots[len(evict):]...)
	return evict
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
	if cfg.Eps != 0 && cfg.Eps != s.eps {
		return nil, fmt.Errorf("pdbscan: StreamingClusterer built for Eps=%v cannot run with Eps=%v (create a new one)", s.eps, cfg.Eps)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Sampler != SamplerNone {
		// The incremental caches pin exact per-cell core state; a sampled
		// tick would invalidate them wholesale. Batch-only by design.
		return nil, fmt.Errorf("pdbscan: the sampled-core mode is batch-only; StreamingClusterer does not accept Sampler %q", cfg.Sampler)
	}
	if cfg.Spill {
		// Out-of-core runs stream an immutable on-disk store; the dynamic
		// grid lives in RAM. Use Snapshot/RestoreStreaming to persist
		// streaming state instead.
		return nil, fmt.Errorf("pdbscan: out-of-core runs are batch-only; StreamingClusterer does not accept Spill")
	}
	params := core.Params{
		MinPts: cfg.MinPts,
		Rho:    cfg.Rho,
	}
	if _, err := resolveMethod(s.dims, &cfg, &params); err != nil {
		return nil, err
	}
	// Reject everything rejectable BEFORE taking the snapshot: a snapshot
	// consumes the dirty set, so a config error surfacing after it would
	// leave the caches out of sync with the structure.
	if params.Graph == core.GraphApprox && params.Rho <= 0 {
		return nil, fmt.Errorf("pdbscan: approximate methods require Rho > 0, got %v", params.Rho)
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
	ex := parallel.NewPoolContext(ctx, cfg.Workers)
	params.Exec = ex
	params.Arena = s.arena
	// The snapshot runs on a context-free pool with the same budget: its
	// mutations to the dynamic structure must complete once started (see the
	// RunContext doc).
	cells, dirty, err := s.dyn.Snapshot(parallel.NewPool(cfg.Workers))
	if err != nil {
		return nil, err
	}
	var cres *core.Result
	// A fresh cache (first run, or one dropped by a sharded or failed run)
	// makes the run full no matter what the snapshot's dirty info says.
	dirtyCells, full := dirty.NumAffected, dirty.Full || s.inc.Fresh()
	if full {
		dirtyCells = -1 // patched to the live cell count below
	}
	if cfg.Shards > 1 {
		// An explicitly sharded run recomputes everything through the
		// partition/merge path and bypasses the incremental caches. The
		// snapshot's dirty info is consumed here without reaching them, so
		// they are dropped either way — the next incremental Run rebuilds
		// from clean state. (Shards = 0 deliberately stays incremental; see
		// Config.Shards.)
		s.inc = core.NewIncremental()
		part, perr := grid.MakePartition(ex, cells, cfg.Shards)
		if perr != nil {
			return nil, perr
		}
		// A partition cut on a cancelled pool may be arbitrary; bail before
		// handing it to the pipeline.
		if cerr := ex.Err(); cerr != nil {
			return nil, cerr
		}
		if part.NumShards <= 1 {
			// Uncuttable lattice: the monolithic phases parallelize better
			// than a one-shard run would (same fallback as Clusterer.Run).
			cres, err = core.Run(cells, params)
		} else {
			cres, err = core.RunSharded(cells, params, part)
		}
		if err != nil {
			return nil, err
		}
		dirtyCells, full = -1, true // -1: patched to the live cell count below
	} else {
		// Run the incremental pipeline even when the stream is empty: every
		// snapshot's DirtyInfo must reach the caches exactly once, and an
		// empty tick is how dying cells' cached core lists get retired
		// (skipping it would leak them into the next non-empty tick as
		// phantom clusters — pinned by the FuzzStreamingOps corpus).
		cres, err = core.RunIncremental(cells, params, s.inc, dirty)
		if err != nil {
			// The snapshot's dirty info is spent but the caches never
			// absorbed it; drop them so the next Run recomputes from clean
			// state instead of silently reusing stale entries.
			s.inc = core.NewIncremental()
			return nil, err
		}
	}
	numCells := 0
	for g := 0; g < cells.NumCells(); g++ {
		if cells.CellSize(g) > 0 {
			numCells++
		}
	}
	if dirtyCells < 0 {
		dirtyCells = numCells // sharded runs recompute every live cell
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
