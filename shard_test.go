package pdbscan

import (
	"fmt"
	"strings"
	"testing"

	"pdbscan/internal/parallel"
)

// equivalentResults checks that two results are the same clustering up to a
// bijective relabeling of clusters: identical core flags and noise, a
// consistent label bijection over every point, and border membership sets
// that match under that bijection. labelsEqual is the strict (identity
// relabeling) form; this is the invariance the sharded path guarantees
// against the monolithic one even when the two run on different cell layouts
// (2d-box-* methods, whose sharded runs use the grid lattice).
func equivalentResults(a, b *Result) error {
	if len(a.Labels) != len(b.Labels) {
		return fmt.Errorf("length %d vs %d", len(a.Labels), len(b.Labels))
	}
	if a.NumClusters != b.NumClusters {
		return fmt.Errorf("NumClusters %d vs %d", a.NumClusters, b.NumClusters)
	}
	// The bijection is built from core points only: a core point belongs to
	// exactly one cluster, and every cluster has core points, so the core
	// rows determine the full correspondence. Border primary labels cannot
	// seed it — a multi-membership border point takes the smallest label in
	// each result's own numbering, which may name different clusters on the
	// two sides.
	ab := make([]int32, a.NumClusters) // a-label -> b-label
	ba := make([]int32, b.NumClusters)
	for i := range ab {
		ab[i] = -1
	}
	for i := range ba {
		ba[i] = -1
	}
	for i := range a.Labels {
		if a.Core[i] != b.Core[i] {
			return fmt.Errorf("core flag of point %d: %v vs %v", i, a.Core[i], b.Core[i])
		}
		if !a.Core[i] {
			continue
		}
		la, lb := a.Labels[i], b.Labels[i]
		if ab[la] == -1 && ba[lb] == -1 {
			ab[la], ba[lb] = lb, la
		} else if ab[la] != lb || ba[lb] != la {
			return fmt.Errorf("core point %d breaks the label bijection: %d vs %d (mapped %d, %d)", i, la, lb, ab[la], ba[lb])
		}
	}
	// Every point's full membership set must match under the bijection
	// (border points may belong to several clusters; noise to none).
	memberships := func(r *Result, i int) []int32 {
		if m, ok := r.Border[int32(i)]; ok {
			return m
		}
		if r.Labels[i] < 0 {
			return nil
		}
		return []int32{r.Labels[i]}
	}
	for i := range a.Labels {
		ma, mb := memberships(a, i), memberships(b, i)
		if len(ma) != len(mb) {
			return fmt.Errorf("point %d: memberships %v vs %v", i, ma, mb)
		}
		set := make(map[int32]bool, len(ma))
		for _, l := range ma {
			set[ab[l]] = true
		}
		for _, l := range mb {
			if !set[l] {
				return fmt.Errorf("point %d: memberships %v map to %v, missing %d", i, ma, set, l)
			}
		}
	}
	return nil
}

// TestShardedMatchesMonolithicAllMethods pins the tentpole equivalence on a
// mid-size input: for every method and several shard counts, the sharded
// path must reproduce the monolithic clustering — bit-identically for
// grid-layout methods (sharding preserves even the label order there), and
// up to label permutation for the 2d-box-* methods, which sharding serves
// from the grid lattice.
func TestShardedMatchesMonolithicAllMethods(t *testing.T) {
	for _, d := range []int{2, 3} {
		rows := blobs(3000, d, 42)
		for _, m := range streamMethodsFor(d) {
			mono, err := Cluster(rows, Config{Eps: 2.5, MinPts: 6, Method: m, Shards: 1})
			if err != nil {
				t.Fatalf("%s monolithic: %v", m, err)
			}
			boxLayout := m == Method2DBoxBCP || m == Method2DBoxUSEC || m == Method2DBoxDelaunay
			for _, k := range []int{2, 5, 16} {
				sh, err := Cluster(rows, Config{Eps: 2.5, MinPts: 6, Method: m, Shards: k})
				if err != nil {
					t.Fatalf("%s shards=%d: %v", m, k, err)
				}
				if err := equivalentResults(sh, mono); err != nil {
					t.Fatalf("d=%d %s shards=%d: %v", d, m, k, err)
				}
				if !boxLayout {
					if err := labelsEqual(sh, mono); err != nil {
						t.Fatalf("d=%d %s shards=%d: sharded labels should be bit-identical on the grid layout: %v", d, m, k, err)
					}
				}
			}
		}
	}
}

// TestShardedBucketingInteraction: Bucketing at several shards gives the
// one-shard result, and the auto heuristic follows the point count and the
// worker budget alone.
func TestShardedBucketingInteraction(t *testing.T) {
	rows := blobs(2000, 2, 31)
	cfg := Config{Eps: 2.5, MinPts: 5, Bucketing: true, Buckets: 4}
	mono, err := Cluster(rows, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Shards = 3
	sh, err := Cluster(rows, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := labelsEqual(sh, mono); err != nil {
		t.Fatalf("bucketing + shards: %v", err)
	}
	// The auto heuristic resolves to >1 for a large input.
	if got := resolveShards(&Config{}, 1<<20); got < 2 {
		t.Fatalf("auto shards at 1M points = %d, want > 1", got)
	}
	if got := resolveShards(&Config{}, 1000); got != 1 {
		t.Fatalf("auto shards at 1k points = %d, want 1", got)
	}
	// Auto is capped by the worker budget; explicit counts pass through.
	w := parallel.NewPool(2).Workers()
	if got := resolveShards(&Config{Workers: 2}, 1<<30); got != 4*w {
		t.Fatalf("auto shards cap = %d, want %d", got, 4*w)
	}
	if got := resolveShards(&Config{Shards: 7}, 10); got != 7 {
		t.Fatalf("explicit shards = %d, want 7", got)
	}
	// Prepare shares the Shards validation and the layout decision.
	c, err := NewClusterer(rows, 2.5)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Prepare(Config{Shards: -2}); err == nil {
		t.Fatal("Prepare accepted negative Shards")
	}
	if err := c.Prepare(Config{Shards: 4}); err != nil {
		t.Fatal(err)
	}
}

// TestShardedStreamingRun checks that a streaming Run rejects Shards > 1
// before it takes the snapshot: the rejected run consumes neither the caches
// nor the pending mutations, so the next run absorbs them incrementally (not
// Full) and matches a from-scratch Cluster, and Shards 1 stays incremental.
func TestShardedStreamingRun(t *testing.T) {
	rows := blobs(1200, 2, 17)
	s, err := NewStreamingClusterer(2, 2.5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Insert(rows[:800]); err != nil {
		t.Fatal(err)
	}
	cfg := Config{MinPts: 6}
	if _, err := s.Run(cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Insert(rows[800:]); err != nil {
		t.Fatal(err)
	}
	shCfg := cfg
	shCfg.Shards = 4
	if _, err := s.Run(shCfg); err == nil || !strings.Contains(err.Error(), "Shards") {
		t.Fatalf("streaming Run with Shards 4: err = %v, want a Shards rejection", err)
	}
	inc, err := s.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st := s.LastRunStats(); st.Full || st.DirtyCells == 0 {
		t.Fatalf("run after a rejected sharded run = %+v, want an incremental run over the pending inserts", st)
	}
	want, err := Cluster(rows, Config{Eps: 2.5, MinPts: 6, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := equivalentResults(&inc.Result, want); err != nil {
		t.Fatalf("incremental run after a rejected sharded run: %v", err)
	}
	// Shards = 1 is the incremental path too: no mutations, so the run
	// reuses everything.
	one := cfg
	one.Shards = 1
	if _, err := s.Run(one); err != nil {
		t.Fatal(err)
	}
	if st := s.LastRunStats(); st.Full || st.DirtyCells != 0 {
		t.Fatalf("Shards = 1 streaming run was not incremental: %+v", st)
	}
}

// TestShardedEmptyStream: Shards > 1 is rejected on an empty stream too (the
// check reads only the Config), while Shards = 1 on an empty stream returns
// an empty result.
func TestShardedEmptyStream(t *testing.T) {
	s, err := NewStreamingClusterer(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(Config{MinPts: 2, Shards: 3}); err == nil {
		t.Fatal("empty stream accepted Shards 3")
	}
	res, err := s.Run(Config{MinPts: 2, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumClusters != 0 || len(res.Labels) != 0 {
		t.Fatalf("empty stream: %d clusters, %d labels", res.NumClusters, len(res.Labels))
	}
}

// TestShardedMoreShardsThanCells: shard counts far beyond the occupied
// lattice are clamped, not errors — a one-cell input runs with any Shards.
func TestShardedMoreShardsThanCells(t *testing.T) {
	rows := [][]float64{{0, 0}, {0.1, 0.1}, {0.2, 0}, {0.1, 0}}
	mono, err := Cluster(rows, Config{Eps: 10, MinPts: 2, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	sh, err := Cluster(rows, Config{Eps: 10, MinPts: 2, Shards: 64})
	if err != nil {
		t.Fatal(err)
	}
	if err := labelsEqual(sh, mono); err != nil {
		t.Fatal(err)
	}
	// Streaming rejects the shard count however few cells there are, and
	// its one-shard run agrees.
	s, err := NewStreamingClusterer(2, 10)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Insert(rows); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(Config{MinPts: 2, Shards: 64}); err == nil {
		t.Fatal("streaming Run accepted Shards 64")
	}
	res, err := s.Run(Config{MinPts: 2, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := labelsEqual(&res.Result, mono); err != nil {
		t.Fatal(err)
	}
}
