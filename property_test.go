package pdbscan

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"pdbscan/internal/dataset"
	"pdbscan/internal/geom"
	"pdbscan/internal/metrics"
)

// TestPropertyExactMatchesOracle is the randomized end-to-end property test:
// for arbitrary small point sets and parameters, every exact method must
// reproduce the brute-force DBSCAN result exactly.
func TestPropertyExactMatchesOracle(t *testing.T) {
	type input struct {
		Seed   int64
		EpsQ   uint8 // quantized eps selector
		MinPts uint8
		Dims   uint8
	}
	cfgCheck := func(in input) bool {
		rng := rand.New(rand.NewSource(in.Seed))
		d := 2 + int(in.Dims)%3 // 2..4
		n := 40 + rng.Intn(120)
		rows := make([][]float64, n)
		for i := range rows {
			row := make([]float64, d)
			for j := range row {
				// Mix of clustered and spread-out points.
				if rng.Float64() < 0.5 {
					row[j] = math.Floor(rng.Float64()*4) * 10
				} else {
					row[j] = rng.Float64() * 40
				}
				row[j] += rng.NormFloat64()
			}
			rows[i] = row
		}
		eps := []float64{0.5, 1.5, 3, 6, 12}[int(in.EpsQ)%5]
		minPts := 1 + int(in.MinPts)%8
		pts, _ := geom.FromRows(rows)
		ref := metrics.BruteDBSCAN(pts, eps, minPts)
		methods := []Method{MethodExact, MethodExactQt}
		if d == 2 {
			methods = append(methods, Method2DGridUSEC, Method2DBoxBCP, Method2DGridDelaunay)
		}
		for _, m := range methods {
			res, err := Cluster(rows, Config{Eps: eps, MinPts: minPts, Method: m})
			if err != nil {
				t.Logf("%s: %v", m, err)
				return false
			}
			if err := metrics.SameDBSCANResult(ref, res.Core, res.Labels, res.Border, res.NumClusters); err != nil {
				t.Logf("%s eps=%v minPts=%d d=%d n=%d: %v", m, eps, minPts, d, n, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(cfgCheck, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyApproxIsValid checks the Gan–Tao validity of the approximate
// methods over random inputs and rho values.
func TestPropertyApproxIsValid(t *testing.T) {
	type input struct {
		Seed int64
		RhoQ uint8
	}
	cfgCheck := func(in input) bool {
		rng := rand.New(rand.NewSource(in.Seed))
		n := 40 + rng.Intn(100)
		rows := make([][]float64, n)
		for i := range rows {
			rows[i] = []float64{
				math.Floor(rng.Float64()*5)*8 + rng.NormFloat64(),
				math.Floor(rng.Float64()*5)*8 + rng.NormFloat64(),
				math.Floor(rng.Float64()*5)*8 + rng.NormFloat64(),
			}
		}
		rho := []float64{0.001, 0.01, 0.1, 0.5, 1}[int(in.RhoQ)%5]
		eps, minPts := 2.5, 4
		pts, _ := geom.FromRows(rows)
		for _, m := range []Method{MethodApprox, MethodApproxQt} {
			res, err := Cluster(rows, Config{Eps: eps, MinPts: minPts, Method: m, Rho: rho})
			if err != nil {
				return false
			}
			if err := metrics.ValidApproxResult(pts, eps, rho, minPts,
				res.Core, res.Labels, res.Border); err != nil {
				t.Logf("%s rho=%v: %v", m, rho, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(cfgCheck, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyShardedDifferential is the cross-path differential property
// test: for random point sets, methods, and shard counts, the three
// execution paths — sharded, monolithic, and streaming (which builds its
// cell structure incrementally through a different code path entirely) —
// must produce the same clustering. Exact methods must agree with the
// brute-force oracle on top; approximate methods are pinned by the
// cross-path equality itself plus Gan–Tao validity.
func TestPropertyShardedDifferential(t *testing.T) {
	type input struct {
		Seed    int64
		EpsQ    uint8
		MinPts  uint8
		Dims    uint8
		ShardsQ uint8
		MethodQ uint8
	}
	check := func(in input) bool {
		rng := rand.New(rand.NewSource(in.Seed))
		d := 2 + int(in.Dims)%3 // 2..4
		n := 30 + rng.Intn(150)
		rows := make([][]float64, n)
		for i := range rows {
			row := make([]float64, d)
			for j := range row {
				if rng.Float64() < 0.5 {
					row[j] = math.Floor(rng.Float64()*4) * 8
				} else {
					row[j] = rng.Float64() * 32
				}
				row[j] += rng.NormFloat64()
			}
			rows[i] = row
		}
		eps := []float64{0.8, 1.5, 3, 7}[int(in.EpsQ)%4]
		minPts := 1 + int(in.MinPts)%7
		methods := streamMethodsFor(d)
		m := methods[int(in.MethodQ)%len(methods)]
		shards := []int{2, 3, 5, 11}[int(in.ShardsQ)%4]
		cfg := Config{Eps: eps, MinPts: minPts, Method: m}

		mono, err := Cluster(rows, cfg)
		if err != nil {
			t.Logf("%s monolithic: %v", m, err)
			return false
		}
		shCfg := cfg
		shCfg.Shards = shards
		sh, err := Cluster(rows, shCfg)
		if err != nil {
			t.Logf("%s shards=%d: %v", m, shards, err)
			return false
		}
		if err := equivalentResults(sh, mono); err != nil {
			t.Logf("%s d=%d n=%d eps=%v minPts=%d shards=%d: sharded vs monolithic: %v",
				m, d, n, eps, minPts, shards, err)
			return false
		}
		// Streaming third path: half the points, then the rest, then run —
		// its incremental tick must also agree.
		s, err := NewStreamingClusterer(d, eps)
		if err != nil {
			t.Logf("streaming: %v", err)
			return false
		}
		if _, err := s.Insert(rows[:n/2]); err != nil {
			t.Logf("streaming insert: %v", err)
			return false
		}
		if _, err := s.Run(Config{MinPts: minPts, Method: m}); err != nil {
			t.Logf("streaming warm-up run: %v", err)
			return false
		}
		if _, err := s.Insert(rows[n/2:]); err != nil {
			t.Logf("streaming insert: %v", err)
			return false
		}
		stream, err := s.Run(Config{MinPts: minPts, Method: m})
		if err != nil {
			t.Logf("streaming run: %v", err)
			return false
		}
		// StreamResult rows are in insertion order == rows order here.
		if err := equivalentResults(&stream.Result, mono); err != nil {
			t.Logf("%s d=%d n=%d eps=%v minPts=%d: streaming vs monolithic: %v",
				m, d, n, eps, minPts, err)
			return false
		}
		// Exact methods additionally face the oracle.
		if m != MethodApprox && m != MethodApproxQt {
			pts, _ := geom.FromRows(rows)
			ref := metrics.BruteDBSCAN(pts, eps, minPts)
			if err := metrics.SameDBSCANResult(ref, sh.Core, sh.Labels, sh.Border, sh.NumClusters); err != nil {
				t.Logf("%s d=%d n=%d eps=%v minPts=%d shards=%d: oracle: %v",
					m, d, n, eps, minPts, shards, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestShardedConcurrentRuns exercises concurrent sharded Run calls on one
// shared Clusterer — mixed shard counts, workers, and methods, overlapping
// with monolithic runs — under the race detector. Each call must still
// produce exactly its reference result: the sharded phases share the
// Clusterer's cell structure read-only and keep all mutable state per run.
func TestShardedConcurrentRuns(t *testing.T) {
	rows := blobs(900, 2, 29)
	eps := 2.5
	c, err := NewClusterer(rows, eps)
	if err != nil {
		t.Fatal(err)
	}
	type job struct {
		minPts  int
		method  Method
		shards  int
		workers int
	}
	jobs := []job{
		{5, MethodExact, 1, 2},
		{5, MethodExact, 4, 1},
		{5, MethodExactQt, 3, 3},
		{8, Method2DGridUSEC, 2, 2},
		{8, Method2DGridDelaunay, 5, 1},
		{8, MethodApprox, 4, 2},
		{12, Method2DBoxBCP, 6, 0},
	}
	want := make([]*Result, len(jobs))
	for i, j := range jobs {
		w, err := Cluster(rows, Config{Eps: eps, MinPts: j.minPts, Method: j.method, Shards: j.shards})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = w
	}
	var wg sync.WaitGroup
	errs := make(chan error, 3*len(jobs))
	for rep := 0; rep < 3; rep++ {
		for i, j := range jobs {
			wg.Add(1)
			go func(i int, j job) {
				defer wg.Done()
				got, err := c.Run(Config{MinPts: j.minPts, Method: j.method, Shards: j.shards, Workers: j.workers})
				if err != nil {
					errs <- fmt.Errorf("job %d: %v", i, err)
					return
				}
				if err := labelsEqual(got, want[i]); err != nil {
					errs <- fmt.Errorf("job %d (%s shards=%d): %v", i, j.method, j.shards, err)
				}
			}(i, j)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestIntegrationLargeAllVariantsAgree is the no-oracle integration test:
// at a size where brute force is infeasible, all exact variants must produce
// the identical clustering, and the result must satisfy DBSCAN's structural
// invariants.
func TestIntegrationLargeAllVariantsAgree(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	pts := dataset.SeedSpreader(dataset.SeedSpreaderConfig{N: 50000, D: 2, Seed: 77})
	eps, minPts := 300.0, 50
	var base *Result
	for _, m := range []Method{
		MethodExact, MethodExactQt,
		Method2DGridBCP, Method2DGridUSEC, Method2DGridDelaunay,
		Method2DBoxBCP, Method2DBoxUSEC, Method2DBoxDelaunay,
	} {
		for _, bucketing := range []bool{false, true} {
			res, err := ClusterFlat(pts.Data, pts.D, Config{
				Eps: eps, MinPts: minPts, Method: m, Bucketing: bucketing,
			})
			if err != nil {
				t.Fatalf("%s: %v", m, err)
			}
			if base == nil {
				base = res
				checkStructuralInvariants(t, pts, eps, minPts, res)
				continue
			}
			if res.NumClusters != base.NumClusters {
				t.Fatalf("%s bucketing=%v: %d clusters, want %d", m, bucketing, res.NumClusters, base.NumClusters)
			}
			if ari := metrics.AdjustedRandIndex(res.Labels, base.Labels); ari != 1 {
				t.Fatalf("%s bucketing=%v: ARI %v", m, bucketing, ari)
			}
		}
	}
}

// checkStructuralInvariants verifies sampled DBSCAN invariants that do not
// need the quadratic oracle:
//   - a core point's label equals its eps-neighbor core points' labels;
//   - a labeled non-core point has a core point within eps with that label;
//   - a noise point has no core point within eps (checked by brute force on
//     a sample).
func checkStructuralInvariants(t *testing.T, pts geom.Points, eps float64, minPts int, res *Result) {
	t.Helper()
	eps2 := eps * eps
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		i := rng.Intn(pts.N)
		// Count neighbors and collect nearby core labels by brute force for
		// this one point.
		count := 0
		nearbyCore := map[int32]bool{}
		for j := 0; j < pts.N; j++ {
			if geom.DistSq(pts.At(i), pts.At(j)) <= eps2 {
				count++
				if res.Core[j] {
					nearbyCore[res.Labels[j]] = true
				}
			}
		}
		if res.Core[i] != (count >= minPts) {
			t.Fatalf("point %d: core=%v but %d neighbors (minPts=%d)", i, res.Core[i], count, minPts)
		}
		if res.Core[i] {
			if len(nearbyCore) != 1 || !nearbyCore[res.Labels[i]] {
				t.Fatalf("core point %d: nearby core labels %v, own %d", i, nearbyCore, res.Labels[i])
			}
			continue
		}
		if res.Labels[i] >= 0 && !nearbyCore[res.Labels[i]] {
			t.Fatalf("border point %d: label %d has no core point within eps", i, res.Labels[i])
		}
		if res.Labels[i] == -1 && len(nearbyCore) > 0 {
			t.Fatalf("noise point %d has core neighbors %v", i, nearbyCore)
		}
	}
}

func TestNonFiniteInputRejected(t *testing.T) {
	rows := [][]float64{{0, 0}, {math.NaN(), 1}}
	if _, err := Cluster(rows, Config{Eps: 1, MinPts: 1}); err == nil {
		t.Fatal("NaN coordinate accepted")
	}
	rows = [][]float64{{0, 0}, {math.Inf(1), 1}}
	if _, err := Cluster(rows, Config{Eps: 1, MinPts: 1}); err == nil {
		t.Fatal("Inf coordinate accepted")
	}
}

// TestLatticeRangeRejected pins the numeric envelope of the absolute cell
// lattice: coordinate magnitudes past the exact floor(v/side) range, and
// spreads past int32 cell coordinates, are rejected with clear errors instead
// of silently misclustering.
func TestLatticeRangeRejected(t *testing.T) {
	// |v|/side >= 2^52 (side = 1/sqrt(2) here).
	rows := [][]float64{{0, 0}, {1e16, 1}}
	if _, err := Cluster(rows, Config{Eps: 1, MinPts: 1}); err == nil {
		t.Fatal("out-of-lattice-range magnitude accepted")
	}
	// Spread of 2^31 cells at modest magnitudes: 4e9 / (1/sqrt(2)) > 2^31.
	rows = [][]float64{{-2e9, 0}, {2e9, 1}}
	if _, err := Cluster(rows, Config{Eps: 1, MinPts: 1}); err == nil {
		t.Fatal("over-wide spread accepted")
	}
	// Streaming rejects magnitude at Insert; spread is caught by Snapshot
	// inside Run.
	s, err := NewStreamingClusterer(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Insert([][]float64{{1e16, 1}}); err == nil {
		t.Fatal("streaming accepted out-of-range magnitude")
	}
	if _, err := s.Insert([][]float64{{-2e9, 0}, {2e9, 1}}); err != nil {
		t.Fatal(err) // magnitudes individually fine
	}
	if _, err := s.Run(Config{MinPts: 1}); err == nil {
		t.Fatal("streaming Run accepted over-wide spread")
	}
	// Large-but-in-range coordinates still work.
	rows = [][]float64{{1e9, 1e9}, {1e9 + 0.5, 1e9}, {1e9, 1e9 + 0.5}}
	res, err := Cluster(rows, Config{Eps: 1, MinPts: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumClusters != 1 {
		t.Fatalf("clusters = %d, want 1", res.NumClusters)
	}
}

func TestCoreOnlyLabels(t *testing.T) {
	rows := blobs(300, 2, 21)
	res, err := Cluster(rows, Config{Eps: 3, MinPts: 8})
	if err != nil {
		t.Fatal(err)
	}
	star := res.CoreOnlyLabels()
	for i := range star {
		if res.Core[i] && star[i] != res.Labels[i] {
			t.Fatalf("core point %d: star label %d != %d", i, star[i], res.Labels[i])
		}
		if !res.Core[i] && star[i] != -1 {
			t.Fatalf("non-core point %d: star label %d != -1", i, star[i])
		}
	}
}
