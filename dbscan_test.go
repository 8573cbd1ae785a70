package pdbscan

import (
	"fmt"
	"math/rand"
	"testing"

	"pdbscan/internal/geom"
	"pdbscan/internal/metrics"
)

func blobs(n, d int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	centers := [][]float64{}
	for c := 0; c < 4; c++ {
		ctr := make([]float64, d)
		for j := range ctr {
			ctr[j] = rng.Float64() * 100
		}
		centers = append(centers, ctr)
	}
	rows := make([][]float64, n)
	for i := range rows {
		row := make([]float64, d)
		if rng.Float64() < 0.08 {
			for j := range row {
				row[j] = rng.Float64() * 100
			}
		} else {
			c := centers[rng.Intn(len(centers))]
			for j := range row {
				row[j] = c[j] + rng.NormFloat64()*2
			}
		}
		rows[i] = row
	}
	return rows
}

func toPoints(rows [][]float64) geom.Points {
	p, _ := geom.FromRows(rows)
	return p
}

func TestAllMethodsMatchOracle2D(t *testing.T) {
	rows := blobs(400, 2, 1)
	eps, minPts := 3.0, 5
	ref := metrics.BruteDBSCAN(toPoints(rows), eps, minPts)
	for _, m := range Methods() {
		cfg := Config{Eps: eps, MinPts: minPts, Method: m}
		res, err := Cluster(rows, cfg)
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if m == MethodApprox || m == MethodApproxQt {
			if err := metrics.ValidApproxResult(toPoints(rows), eps, 0.01, minPts,
				res.Core, res.Labels, res.Border); err != nil {
				t.Fatalf("%s: %v", m, err)
			}
			continue
		}
		if err := metrics.SameDBSCANResult(ref, res.Core, res.Labels, res.Border, res.NumClusters); err != nil {
			t.Fatalf("%s: %v", m, err)
		}
	}
}

func TestAllMethodsMatchOracleHighDim(t *testing.T) {
	for _, d := range []int{3, 5, 7} {
		rows := blobs(300, d, int64(d))
		eps, minPts := 5.0, 6
		ref := metrics.BruteDBSCAN(toPoints(rows), eps, minPts)
		for _, m := range []Method{MethodExact, MethodExactQt} {
			for _, bucketing := range []bool{false, true} {
				cfg := Config{Eps: eps, MinPts: minPts, Method: m, Bucketing: bucketing}
				res, err := Cluster(rows, cfg)
				if err != nil {
					t.Fatalf("%s d=%d: %v", m, d, err)
				}
				if err := metrics.SameDBSCANResult(ref, res.Core, res.Labels, res.Border, res.NumClusters); err != nil {
					t.Fatalf("%s d=%d bucketing=%v: %v", m, d, bucketing, err)
				}
			}
		}
		for _, m := range []Method{MethodApprox, MethodApproxQt} {
			cfg := Config{Eps: eps, MinPts: minPts, Method: m, Rho: 0.05}
			res, err := Cluster(rows, cfg)
			if err != nil {
				t.Fatalf("%s d=%d: %v", m, d, err)
			}
			if err := metrics.ValidApproxResult(toPoints(rows), eps, 0.05, minPts,
				res.Core, res.Labels, res.Border); err != nil {
				t.Fatalf("%s d=%d: %v", m, d, err)
			}
		}
	}
}

func TestAutoMethodSelection(t *testing.T) {
	rows2 := blobs(200, 2, 9)
	if _, err := Cluster(rows2, Config{Eps: 3, MinPts: 5}); err != nil {
		t.Fatalf("auto 2D: %v", err)
	}
	rows5 := blobs(200, 5, 10)
	if _, err := Cluster(rows5, Config{Eps: 5, MinPts: 5}); err != nil {
		t.Fatalf("auto 5D: %v", err)
	}
}

func TestClusterFlatMatchesCluster(t *testing.T) {
	rows := blobs(300, 3, 11)
	flat := make([]float64, 0, len(rows)*3)
	for _, r := range rows {
		flat = append(flat, r...)
	}
	a, err := Cluster(rows, Config{Eps: 4, MinPts: 5})
	if err != nil {
		t.Fatal(err)
	}
	b, err := ClusterFlat(flat, 3, Config{Eps: 4, MinPts: 5})
	if err != nil {
		t.Fatal(err)
	}
	if a.NumClusters != b.NumClusters {
		t.Fatalf("cluster counts differ: %d vs %d", a.NumClusters, b.NumClusters)
	}
	if ari := metrics.AdjustedRandIndex(a.Labels, b.Labels); ari != 1 {
		t.Fatalf("ARI = %v", ari)
	}
}

func TestWorkersConfig(t *testing.T) {
	rows := blobs(500, 3, 12)
	var base *Result
	for _, w := range []int{1, 2, 8} {
		res, err := Cluster(rows, Config{Eps: 4, MinPts: 8, Workers: w})
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if base == nil {
			base = res
			continue
		}
		if res.NumClusters != base.NumClusters {
			t.Fatalf("workers=%d: %d clusters vs %d", w, res.NumClusters, base.NumClusters)
		}
		if ari := metrics.AdjustedRandIndex(res.Labels, base.Labels); ari != 1 {
			t.Fatalf("workers=%d: ARI %v", w, ari)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	rows := blobs(50, 2, 13)
	cases := []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"zero eps", Config{Eps: 0, MinPts: 5}, false},
		{"negative eps", Config{Eps: -1, MinPts: 5}, false},
		{"zero minpts", Config{Eps: 1, MinPts: 0}, false},
		{"unknown method", Config{Eps: 1, MinPts: 5, Method: "bogus"}, false},
		{"negative workers", Config{Eps: 1, MinPts: 5, Workers: -1}, false},
		{"negative buckets", Config{Eps: 1, MinPts: 5, Buckets: -3, Bucketing: true}, false},
		{"negative buckets without bucketing", Config{Eps: 1, MinPts: 5, Buckets: -1}, false},
		{"negative shards", Config{Eps: 1, MinPts: 5, Shards: -1}, false},
		{"very negative shards", Config{Eps: 1, MinPts: 5, Shards: -64}, false},
		{"valid default buckets", Config{Eps: 1, MinPts: 5, Bucketing: true}, true},
		{"valid explicit buckets", Config{Eps: 1, MinPts: 5, Bucketing: true, Buckets: 1}, true},
		{"valid zero workers", Config{Eps: 1, MinPts: 5, Workers: 0}, true},
		{"valid auto shards", Config{Eps: 1, MinPts: 5, Shards: 0}, true},
		{"valid explicit shards", Config{Eps: 1, MinPts: 5, Shards: 3}, true},
		{"valid shards beyond cells", Config{Eps: 1, MinPts: 5, Shards: 1000}, true},
	}
	for _, c := range cases {
		_, err := Cluster(rows, c.cfg)
		if c.ok && err != nil {
			t.Fatalf("%s: unexpected error: %v", c.name, err)
		}
		if !c.ok && err == nil {
			t.Fatalf("%s: expected error", c.name)
		}
		// The streaming Run path shares the validation, and takes one
		// shard at most.
		streamOK := c.ok && c.cfg.Shards <= 1
		s, serr := NewStreamingClusterer(2, 1)
		if serr != nil {
			t.Fatal(serr)
		}
		if _, serr = s.Insert(rows); serr != nil {
			t.Fatal(serr)
		}
		runCfg := c.cfg
		runCfg.Eps = 0 // streaming pins eps at construction
		_, err = s.Run(runCfg)
		if streamOK && err != nil {
			t.Fatalf("%s (streaming): unexpected error: %v", c.name, err)
		}
		if !streamOK && c.cfg.Eps > 0 && err == nil {
			t.Fatalf("%s (streaming): expected error", c.name)
		}
	}
	// 2D-only method on 3D data.
	rows3 := blobs(50, 3, 14)
	if _, err := Cluster(rows3, Config{Eps: 1, MinPts: 5, Method: Method2DGridUSEC}); err == nil {
		t.Fatal("expected error for 2D method on 3D data")
	}
	// Empty input.
	if _, err := Cluster(nil, Config{Eps: 1, MinPts: 5}); err == nil {
		t.Fatal("expected error for empty input")
	}
	// Bad flat input.
	if _, err := ClusterFlat([]float64{1, 2, 3}, 2, Config{Eps: 1, MinPts: 5}); err == nil {
		t.Fatal("expected error for ragged flat input")
	}
	if _, err := ClusterFlat(nil, 0, Config{Eps: 1, MinPts: 5}); err == nil {
		t.Fatal("expected error for zero dims")
	}
}

func TestResultHelpers(t *testing.T) {
	rows := blobs(400, 2, 15)
	res, err := Cluster(rows, Config{Eps: 3, MinPts: 5})
	if err != nil {
		t.Fatal(err)
	}
	sizes := res.ClusterSizes()
	if len(sizes) != res.NumClusters {
		t.Fatalf("sizes len = %d, want %d", len(sizes), res.NumClusters)
	}
	total := 0
	for _, s := range sizes {
		if s == 0 {
			t.Fatal("empty cluster in sizes")
		}
		total += s
	}
	if total+res.NumNoise() != len(rows) {
		t.Fatalf("sizes+noise = %d, want %d", total+res.NumNoise(), len(rows))
	}
}

func TestMethodsListUsable(t *testing.T) {
	// Every listed method must run on 2D data (approx defaults Rho).
	rows := blobs(150, 2, 16)
	for _, m := range Methods() {
		if _, err := Cluster(rows, Config{Eps: 3, MinPts: 5, Method: m}); err != nil {
			t.Fatalf("%s: %v", m, err)
		}
	}
}

func ExampleCluster() {
	points := [][]float64{
		{0, 0}, {0.1, 0}, {0, 0.1}, {0.1, 0.1}, // a dense blob
		{5, 5}, {5.1, 5}, {5, 5.1}, {5.1, 5.1}, // another blob
		{2.5, 2.5}, // noise
	}
	res, err := Cluster(points, Config{Eps: 0.5, MinPts: 3})
	if err != nil {
		panic(err)
	}
	fmt.Println("clusters:", res.NumClusters, "noise:", res.NumNoise())
	// Output: clusters: 2 noise: 1
}
