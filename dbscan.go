// Package pdbscan is a parallel implementation of exact and approximate
// Euclidean DBSCAN, reproducing "Theoretically-Efficient and Practical
// Parallel DBSCAN" (Wang, Gu, Shun — SIGMOD 2020).
//
// The exact methods return precisely the clustering of the standard DBSCAN
// definition (Ester et al.): core points partitioned by eps-connectivity,
// border points attached to every cluster with a core point within eps, and
// noise labeled -1. The approximate methods implement Gan–Tao approximate
// DBSCAN: identical core points, with cluster merges optional for core pairs
// at distance in (eps, eps(1+rho)].
//
// Quick start:
//
//	res, err := pdbscan.Cluster(points, pdbscan.Config{Eps: 10, MinPts: 100})
//	// res.Labels[i] is point i's cluster (-1 = noise)
//
// For parameter sweeps (MinPts, Method, Rho) over the same points at one Eps,
// build a Clusterer once and call Run repeatedly — the eps-keyed cell
// structure is built a single time and shared across runs:
//
//	c, err := pdbscan.NewClusterer(points, 10)
//	for _, minPts := range []int{10, 50, 100} {
//		res, err := c.Run(pdbscan.Config{MinPts: minPts})
//		...
//	}
//
// All methods run in parallel over the available CPUs; Config.Workers caps
// the parallelism of that one call. The cap is carried by a per-run executor
// (internal/parallel.Pool), never by process-wide state, so any number of
// Cluster and Clusterer.Run calls may run concurrently — each honors its own
// Workers budget.
//
// At scale, runs execute through a sharded partition/merge architecture: the
// cell lattice is cut into contiguous spatial shards clustered independently
// and stitched by a boundary-merge pass. Config.Shards controls it (0 = auto
// from the point count and worker budget); results are identical to the
// monolithic path for every method.
package pdbscan

import (
	"context"
	"fmt"
	"math"
	"time"

	"pdbscan/internal/grid"
	"pdbscan/internal/parallel"
)

// checkCoords validates every coordinate of a point set against the cell
// lattice for the given eps: finite, within the exact-arithmetic range of the
// absolute lattice (|v|/side < grid.MaxExactCells — beyond it floor(v/side)
// quantizes in steps of several cells and clustering would be silently
// wrong), and with per-dimension spread under 2^31 cells (relative cell
// coordinates are int32). One serial pass, shared by Clusterer and
// StreamingClusterer construction/ingest.
func checkCoords(data []float64, d int, eps float64) error {
	side := eps / math.Sqrt(float64(d))
	maxMag := grid.MaxExactCells * side
	lo := make([]float64, d)
	hi := make([]float64, d)
	for j := range lo {
		lo[j] = math.Inf(1)
		hi[j] = math.Inf(-1)
	}
	for i, v := range data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("pdbscan: point %d has a non-finite coordinate (%v)", i/d, v)
		}
		if v >= maxMag || v <= -maxMag {
			return fmt.Errorf("pdbscan: point %d coordinate %v exceeds the exact cell-lattice range (+-%.4g) for Eps=%v; recenter the data closer to the origin or increase Eps", i/d, v, maxMag, eps)
		}
		j := i % d
		if v < lo[j] {
			lo[j] = v
		}
		if v > hi[j] {
			hi[j] = v
		}
	}
	for j := 0; j < d; j++ {
		if (hi[j]-lo[j])/side >= math.MaxInt32 {
			return fmt.Errorf("pdbscan: point spread %v in dimension %d exceeds %d cells of side %v; increase Eps or partition the data", hi[j]-lo[j], j, math.MaxInt32, side)
		}
	}
	return nil
}

// Method selects the algorithm variant. The names follow Section 7.1 of the
// paper.
type Method string

const (
	// MethodAuto picks MethodExact for d >= 3 and Method2DGridBCP for d = 2
	// (the fastest variants in the paper's evaluation).
	MethodAuto Method = "auto"
	// MethodExact marks cores by scanning neighbor cells and connects cells
	// with filtered, early-terminating BCP ("our-exact").
	MethodExact Method = "exact"
	// MethodExactQt answers MarkCore range counts with per-cell quadtrees
	// ("our-exact-qt").
	MethodExactQt Method = "exact-qt"
	// MethodApprox is Gan–Tao approximate DBSCAN with scan-based MarkCore
	// ("our-approx"); requires Rho > 0.
	MethodApprox Method = "approx"
	// MethodApproxQt is MethodApprox with quadtree MarkCore
	// ("our-approx-qt").
	MethodApproxQt Method = "approx-qt"

	// 2D-only variants: cell construction (grid or box) x connectivity
	// (BCP, USEC wavefronts, or Delaunay triangulation).
	Method2DGridBCP      Method = "2d-grid-bcp"
	Method2DGridUSEC     Method = "2d-grid-usec"
	Method2DGridDelaunay Method = "2d-grid-delaunay"
	Method2DBoxBCP       Method = "2d-box-bcp"
	Method2DBoxUSEC      Method = "2d-box-usec"
	Method2DBoxDelaunay  Method = "2d-box-delaunay"
)

// Sampler selects how the sampled-core approximate mode (DBSCAN++, Jang &
// Jiang) picks the subset of points whose core status is computed. The empty
// value disables sampling (exact DBSCAN).
type Sampler string

const (
	// SamplerNone disables sampling: every point gets an exact core decision.
	SamplerNone Sampler = ""
	// SamplerUniform samples each point independently with probability
	// SampleFrac by a seeded hash threshold — O(n), the cheap default.
	SamplerUniform Sampler = "uniform"
	// SamplerKCenter samples ceil(SampleFrac*n) points by greedy K-center
	// (farthest-point traversal), the geometrically-covering sampler DBSCAN++
	// pairs with its approximation guarantee. O(m*n) distances to build, so
	// it suits small fractions; the mask is cached per (sampler, frac, seed)
	// on the Clusterer.
	SamplerKCenter Sampler = "kcenter"
)

// Methods lists every selectable method (excluding MethodAuto), 2D-only ones
// last.
func Methods() []Method {
	return []Method{
		MethodExact, MethodExactQt, MethodApprox, MethodApproxQt,
		Method2DGridBCP, Method2DGridUSEC, Method2DGridDelaunay,
		Method2DBoxBCP, Method2DBoxUSEC, Method2DBoxDelaunay,
	}
}

// Config configures a clustering run.
type Config struct {
	// Eps is the DBSCAN radius (required, > 0).
	Eps float64
	// MinPts is the core-point density threshold (required, >= 1). A point
	// is core iff at least MinPts points (including itself) lie within Eps.
	MinPts int
	// Method selects the algorithm variant; empty means MethodAuto.
	Method Method
	// Rho is the approximation parameter for the approx methods (> 0).
	// Ignored by exact methods. Defaults to 0.01 when an approx method is
	// chosen and Rho is unset, matching the paper's default.
	Rho float64
	// Bucketing enables the size-sorted batched processing of core cells
	// (the "-bucketing" suffix in the paper's experiments).
	Bucketing bool
	// Buckets is the number of batches when Bucketing is set (default 32).
	Buckets int
	// Workers caps the number of OS-level workers used by parallel loops;
	// 0 means all available CPUs.
	Workers int
	// Shards selects the sharded execution path: the anchored cell lattice
	// is split into Shards contiguous spatial blocks with eps-wide halos,
	// each block is clustered independently, and a boundary-merge pass
	// stitches the blocks by evaluating only the cell-graph edges that cross
	// a cut. Results are identical to the monolithic path (Shards = 1) for
	// every method, exact and approximate, up to cluster label permutation —
	// and bit-identical whenever the method runs on the grid layout.
	//
	// 0 means auto: batch runs (Cluster, Clusterer.Run) pick roughly one
	// shard per 64k points, capped at 4x the worker budget and at 1 when
	// Bucketing is set (sharding subsumes the bucketed traversal, so auto
	// defers to the explicit scheduling request); StreamingClusterer.Run
	// always resolves auto to 1, because a sharded run cannot reuse the
	// incremental caches — set Shards explicitly to shard a streaming run,
	// accepting a full recompute. 1 forces the monolithic path. The count is
	// clamped to the occupied lattice (a shard cannot be thinner than one
	// cell slab). Negative values are rejected.
	//
	// The 2d-box-* methods are served by the grid cell layout when
	// Shards > 1 (the box strips have no lattice to cut); the connectivity
	// strategy is preserved and the clustering is identical, as for every
	// exact method.
	Shards int

	// Sampler enables the DBSCAN++ sampled-core approximate mode: core
	// status is computed only for a sample of SampleFrac*n points (their
	// decisions stay exact — the counting set is all points), the sampled
	// cores are clustered by eps-connectivity, and every other point is
	// attached border-style to the clusters of sampled cores within Eps.
	// MarkCore — the dominant phase on dense data — becomes sublinear in n,
	// at the cost of possibly splitting clusters whose density the sample
	// missed; TestSampledQuality holds the trade-off (ARI >= 0.95 vs exact
	// at SampleFrac 0.1 in 2D and 3D). Results are deterministic for a
	// fixed (Sampler, SampleFrac, SampleSeed) at any Workers count.
	//
	// Sampled runs are monolithic and batch-only: Shards must be 0 or 1
	// (auto resolves to 1), and StreamingClusterer rejects samplers.
	Sampler Sampler
	// SampleFrac is the sampled fraction m/n, in (0, 1]; required when
	// Sampler is set, rejected when it is not. 1 samples every point, which
	// reproduces exact DBSCAN.
	SampleFrac float64
	// SampleSeed seeds the sampler. Runs with equal (Sampler, SampleFrac,
	// SampleSeed) over the same points pick the same sample.
	SampleSeed int64

	// Spill selects the out-of-core execution path: shards are swept one halo
	// window at a time from the on-disk cell store, so only a sliver of the
	// point data is ever resident. Requires a store-backed Clusterer
	// (OpenStoreClusterer); the shard schedule comes from the store's layout,
	// so Shards must be 0, and samplers are rejected (their counting set is
	// the whole dataset). Labels are bit-identical to an in-RAM run for every
	// grid-layout method and permutation-equal for the 2d-box-* methods
	// (which the store serves from the grid layout, as sharding does).
	// StreamingClusterer rejects Spill — its state is the in-memory dynamic
	// grid; use Snapshot/RestoreStreaming to persist a stream.
	Spill bool
	// MaxResidentBytes is a hard budget on the point-data bytes resident at
	// any moment of a Spill run (one shard's halo window, page rounding
	// included). 0 means no budget. A window over budget fails the run with
	// an error naming the shortfall — rewrite the store with more shards, or
	// raise the budget. The run's O(n) bookkeeping (core flags, labels,
	// cell-level union-find, store metadata) is small and outside the budget;
	// see RunStats.PeakResidentBytes for what was actually mapped. Requires
	// Spill; negative values are rejected.
	MaxResidentBytes int64
}

// Validate checks every Config field for structural validity: the value
// ranges that hold for any run, independent of the data's dimensionality or
// the Clusterer's eps. It is the exact validation every run-shaped entry
// point (Cluster, Clusterer.Run/RunContext, StreamingClusterer.Run/
// RunContext, engine.Engine.Submit) applies up front, exported so that a
// service can reject a bad request before paying to queue or schedule it.
//
// Eps = 0 is valid here (it means "the Clusterer's eps" on the Clusterer
// entry points; Cluster itself additionally requires Eps > 0, as does
// NewClusterer). Dimensionality-dependent rules (the 2D-only methods) are
// still checked by the run itself, which knows the points.
func (cfg *Config) Validate() error {
	if math.IsNaN(cfg.Eps) || math.IsInf(cfg.Eps, 0) || cfg.Eps < 0 {
		return fmt.Errorf("pdbscan: Eps must be finite and >= 0, got %v (0 defers to the Clusterer's eps)", cfg.Eps)
	}
	if cfg.MinPts < 1 {
		return fmt.Errorf("pdbscan: MinPts must be >= 1, got %d", cfg.MinPts)
	}
	switch cfg.Method {
	case "", MethodAuto, MethodExact, MethodExactQt, MethodApprox, MethodApproxQt,
		Method2DGridBCP, Method2DGridUSEC, Method2DGridDelaunay,
		Method2DBoxBCP, Method2DBoxUSEC, Method2DBoxDelaunay:
	default:
		return fmt.Errorf("pdbscan: unknown method %q", cfg.Method)
	}
	if math.IsNaN(cfg.Rho) || math.IsInf(cfg.Rho, 0) || cfg.Rho < 0 {
		return fmt.Errorf("pdbscan: Rho must be finite and >= 0, got %v (0 selects the default of 0.01 for approximate methods)", cfg.Rho)
	}
	if err := validateBudgetConfig(cfg); err != nil {
		return err
	}
	if cfg.Buckets < 0 {
		return fmt.Errorf("pdbscan: Buckets must not be negative, got %d (0 selects the default of 32)", cfg.Buckets)
	}
	switch cfg.Sampler {
	case SamplerNone:
		if cfg.SampleFrac != 0 {
			return fmt.Errorf("pdbscan: SampleFrac %v requires a Sampler", cfg.SampleFrac)
		}
	case SamplerUniform, SamplerKCenter:
		if math.IsNaN(cfg.SampleFrac) || cfg.SampleFrac <= 0 || cfg.SampleFrac > 1 {
			return fmt.Errorf("pdbscan: SampleFrac must be in (0, 1] with Sampler %q, got %v", cfg.Sampler, cfg.SampleFrac)
		}
		if cfg.Shards > 1 {
			return fmt.Errorf("pdbscan: sampled-core runs are monolithic; Shards must be 0 or 1 with Sampler %q, got %d", cfg.Sampler, cfg.Shards)
		}
	default:
		return fmt.Errorf("pdbscan: unknown sampler %q", cfg.Sampler)
	}
	if cfg.MaxResidentBytes < 0 {
		return fmt.Errorf("pdbscan: MaxResidentBytes must not be negative, got %d (0 means no budget)", cfg.MaxResidentBytes)
	}
	if cfg.MaxResidentBytes > 0 && !cfg.Spill {
		return fmt.Errorf("pdbscan: MaxResidentBytes requires Spill (it budgets the out-of-core window)")
	}
	if cfg.Spill {
		if cfg.Sampler != SamplerNone {
			return fmt.Errorf("pdbscan: sampled-core runs are in-RAM only; Spill rejects Sampler %q", cfg.Sampler)
		}
		if cfg.Shards != 0 {
			return fmt.Errorf("pdbscan: Spill derives its shard schedule from the store layout; Shards must be 0, got %d", cfg.Shards)
		}
	}
	return nil
}

// autoShardPoints is the point count one auto-selected shard targets: small
// enough that multi-million-point inputs decompose well past the worker
// count, large enough that per-shard bookkeeping never dominates.
const autoShardPoints = 1 << 16

// resolveShards maps cfg.Shards to the effective shard count for a batch run
// over n points: explicit counts pass through, 0 applies the auto heuristic
// documented on Config.Shards.
func resolveShards(cfg *Config, n int) int {
	if cfg.Sampler != SamplerNone {
		return 1 // sampled-core runs are monolithic (Validate rejects Shards > 1)
	}
	if cfg.Shards > 0 {
		return cfg.Shards
	}
	if cfg.Bucketing {
		return 1
	}
	s := n / autoShardPoints
	if w := 4 * parallel.NewPool(cfg.Workers).Workers(); s > w {
		s = w
	}
	if s < 1 {
		s = 1
	}
	return s
}

// Result is the clustering output.
type Result struct {
	// Labels[i] is the cluster of point i in [0, NumClusters), or -1 for
	// noise. A border point belonging to several clusters gets the smallest
	// label; see Border.
	Labels []int32
	// Core[i] reports whether point i is a core point.
	Core []bool
	// Border maps border points that belong to more than one cluster to
	// their full ascending membership lists.
	Border map[int32][]int32
	// NumClusters is the number of clusters found.
	NumClusters int
}

// ClusterSizes returns the number of points whose primary label is each
// cluster (border multi-memberships count once, under the primary label).
func (r *Result) ClusterSizes() []int {
	sizes := make([]int, r.NumClusters)
	for _, l := range r.Labels {
		if l >= 0 {
			sizes[l]++
		}
	}
	return sizes
}

// NumNoise returns the number of noise points.
func (r *Result) NumNoise() int {
	c := 0
	for _, l := range r.Labels {
		if l < 0 {
			c++
		}
	}
	return c
}

// CoreOnlyLabels returns the labeling of the DBSCAN* variant (Campello et
// al., cited in the paper's related work): identical clusters but border
// points are excluded — only core points carry labels, everything else is
// noise (-1).
func (r *Result) CoreOnlyLabels() []int32 {
	out := make([]int32, len(r.Labels))
	for i, l := range r.Labels {
		if r.Core[i] {
			out[i] = l
		} else {
			out[i] = -1
		}
	}
	return out
}

// Cluster runs DBSCAN over points given as coordinate rows (all rows must
// have the same dimensionality). It is a one-shot wrapper around Clusterer;
// to run several configurations over the same points at one Eps (a MinPts,
// Method, or Rho sweep), create a Clusterer once and call Run repeatedly.
func Cluster(points [][]float64, cfg Config) (*Result, error) {
	return ClusterContext(context.Background(), points, cfg)
}

// ClusterContext is Cluster under a context: the run stops cooperatively and
// returns ctx.Err() when ctx is cancelled mid-flight (see
// Clusterer.RunContext for the exact semantics).
func ClusterContext(ctx context.Context, points [][]float64, cfg Config) (*Result, error) {
	c, err := NewClusterer(points, cfg.Eps)
	if err != nil {
		return nil, err
	}
	return c.RunContext(ctx, cfg)
}

// ClusterFlat runs DBSCAN over n = len(data)/dims points stored row-major in
// a flat slice, avoiding the copy of Cluster. data must not be mutated while
// clustering runs.
func ClusterFlat(data []float64, dims int, cfg Config) (*Result, error) {
	return ClusterFlatContext(context.Background(), data, dims, cfg)
}

// ClusterFlatContext is ClusterFlat under a context (see Clusterer.RunContext
// for the cancellation semantics).
func ClusterFlatContext(ctx context.Context, data []float64, dims int, cfg Config) (*Result, error) {
	c, err := NewClustererFlat(data, dims, cfg.Eps)
	if err != nil {
		return nil, err
	}
	return c.RunContext(ctx, cfg)
}

// RunStats reports the phase breakdown of a batch run (Clusterer.Run or
// RunContext), retrievable with Clusterer.LastRunStats. Durations are
// wall-clock; phases overlap nothing, so Build + MarkCore + ClusterCore +
// Border ~= Total (Build absorbs structure construction, partitioning, and
// the run's fixed bookkeeping, and is near zero once the eps-keyed cell
// structure is cached).
type RunStats struct {
	// Build is the time this run spent outside the pipeline phases: cell
	// structure construction (first run per layout only; on Spill runs, the
	// per-window cells of every mapped window), partition cuts, validation,
	// and result assembly.
	Build time.Duration
	// MarkCore is Algorithm 2 (core-point marking).
	MarkCore time.Duration
	// ClusterCore covers core collection, the cell graph (Algorithm 3), and
	// — on sharded runs — the boundary merge.
	ClusterCore time.Duration
	// Border covers dense label assignment and ClusterBorder (Algorithm 4).
	Border time.Duration
	// Total is the end-to-end wall time of the run.
	Total time.Duration
	// Shards is the effective shard count the run executed with (1 =
	// monolithic).
	Shards int
	// Workers is the effective worker budget of the run.
	Workers int

	// BytesMapped is the cumulative point-data bytes mapped across every
	// window turn of a Spill run (zero otherwise). Each shard's halo window
	// is mapped once per pass (mark/graph, then border), so this typically
	// lands at 2-6x the dataset size depending on halo overlap.
	BytesMapped int64
	// PeakResidentBytes is the largest single window mapping of a Spill run —
	// the most point data resident at any moment (windows are mapped one at a
	// time and released before the next turn). This is the figure
	// Config.MaxResidentBytes bounds.
	PeakResidentBytes int64
	// ShardsResidentPeak is the widest halo window of a Spill run, in shards.
	ShardsResidentPeak int
}
