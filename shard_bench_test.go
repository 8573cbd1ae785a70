package pdbscan

import (
	"fmt"
	"testing"

	"pdbscan/internal/dataset"
)

// BenchmarkSharded compares the monolithic clustering phase (Shards = 1)
// against the sharded partition/merge path at 1M points on a prepared
// Clusterer, so the numbers isolate the execution architecture from the
// (shared) grid build. Shard-level parallelism with serial per-shard phases
// replaces the barrier-separated parallel loops of the monolithic pipeline;
// the gap widens with core count (on a single-core runner the two are at
// parity, the partition/merge overhead being within noise).
func BenchmarkSharded(b *testing.B) {
	n := 1_000_000
	if testing.Short() {
		n = 100_000
	}
	pts := dataset.SeedSpreader(dataset.SeedSpreaderConfig{N: n, D: 2, Seed: 1})
	const eps, minPts = 1000.0, 100
	c, err := NewClustererFlat(pts.Data, pts.D, eps)
	if err != nil {
		b.Fatal(err)
	}
	if err := c.Prepare(Config{}); err != nil {
		b.Fatal(err)
	}
	for _, shards := range []int{1, 0, 4, 16} {
		name := fmt.Sprintf("shards=%d", shards)
		if shards == 0 {
			name = "shards=auto"
		} else if shards == 1 {
			name = "monolithic"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := c.Run(Config{MinPts: minPts, Shards: shards}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkShardedOneShot measures the full Cluster call (grid build +
// clustering) with and without sharding, the end-to-end number a one-shot
// caller sees.
func BenchmarkShardedOneShot(b *testing.B) {
	n := 300_000
	if testing.Short() {
		n = 50_000
	}
	pts := dataset.SeedSpreader(dataset.SeedSpreaderConfig{N: n, D: 3, Seed: 2})
	const eps, minPts = 2000.0, 100
	for _, shards := range []int{1, 0} {
		name := "monolithic"
		if shards == 0 {
			name = "shards=auto"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := ClusterFlat(pts.Data, pts.D, Config{
					Eps: eps, MinPts: minPts, Shards: shards,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
