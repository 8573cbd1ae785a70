package pdbscan

import (
	"sync"
	"testing"

	"pdbscan/internal/core"
	"pdbscan/internal/dataset"
	"pdbscan/internal/geom"
	"pdbscan/internal/metrics"
)

// bruteSampled is the DBSCAN++ oracle: given the sample mask, a point is core
// iff it is sampled and has >= minPts neighbors within eps among ALL points;
// cores are clustered by eps-connectivity; every non-core point joins each
// cluster with a core point within eps. It mirrors metrics.BruteDBSCAN with
// the core definition restricted to the mask, and returns the same shape so
// metrics.SameDBSCANResult can compare a library result against it.
func bruteSampled(pts geom.Points, eps float64, minPts int, mask []bool) *metrics.BruteResult {
	n := pts.N
	eps2 := eps * eps
	core := make([]bool, n)
	for i := 0; i < n; i++ {
		if !mask[i] {
			continue
		}
		count := 0
		for j := 0; j < n; j++ {
			if geom.DistSq(pts.At(i), pts.At(j)) <= eps2 {
				count++
			}
		}
		core[i] = count >= minPts
	}
	comp := make([]int, n)
	for i := range comp {
		comp[i] = -1
	}
	numClusters := 0
	var stack []int
	for s := 0; s < n; s++ {
		if !core[s] || comp[s] >= 0 {
			continue
		}
		comp[s] = numClusters
		stack = append(stack[:0], s)
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for v := 0; v < n; v++ {
				if v == u || !core[v] || comp[v] >= 0 {
					continue
				}
				if geom.DistSq(pts.At(u), pts.At(v)) <= eps2 {
					comp[v] = numClusters
					stack = append(stack, v)
				}
			}
		}
		numClusters++
	}
	clusters := make([][]int, n)
	for i := 0; i < n; i++ {
		if core[i] {
			clusters[i] = []int{comp[i]}
			continue
		}
		var set []int
		for j := 0; j < n; j++ {
			if !core[j] || geom.DistSq(pts.At(i), pts.At(j)) > eps2 {
				continue
			}
			c := comp[j]
			found := false
			for _, x := range set {
				if x == c {
					found = true
					break
				}
			}
			if !found {
				set = append(set, c)
			}
		}
		for a := 1; a < len(set); a++ {
			b := a
			for b > 0 && set[b] < set[b-1] {
				set[b], set[b-1] = set[b-1], set[b]
				b--
			}
		}
		clusters[i] = set
	}
	return &metrics.BruteResult{Core: core, Clusters: clusters, NumClusters: numClusters}
}

func flatten(rows [][]float64) geom.Points {
	pts, err := geom.FromRows(rows)
	if err != nil {
		panic(err)
	}
	return pts
}

// TestSampledMatchesOracle pins the sampled-core mode's semantics exactly:
// the library result must equal the brute-force DBSCAN++ oracle computed over
// the same mask, up to cluster relabeling — across methods (the cell-graph
// machinery must treat sampled cores like any cores) and across big-cell /
// small-cell regimes (MinPts varies the all-core shortcut's reach).
func TestSampledMatchesOracle(t *testing.T) {
	rows := blobs(400, 2, 31)
	pts := flatten(rows)
	const eps = 3.0
	for _, tc := range []struct {
		name   string
		minPts int
		method Method
		frac   float64
	}{
		{"exact-bcp small frac", 5, MethodExact, 0.2},
		{"2d-grid-bcp small frac", 5, Method2DGridBCP, 0.2},
		{"2d-grid-usec", 5, Method2DGridUSEC, 0.3},
		{"exact-qt", 5, MethodExactQt, 0.3},
		{"big cells (low minPts)", 2, Method2DGridBCP, 0.25},
		{"tiny frac", 8, MethodExact, 0.05},
	} {
		mask := core.UniformMask(nil, pts.N, tc.frac, 9)
		ref := bruteSampled(pts, eps, tc.minPts, mask)
		c, err := NewClusterer(rows, eps)
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.Run(Config{
			MinPts: tc.minPts, Method: tc.method,
			Sampler: SamplerUniform, SampleFrac: tc.frac, SampleSeed: 9,
		})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if err := metrics.SameDBSCANResult(ref, res.Core, res.Labels, res.Border, res.NumClusters); err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
	}
}

// TestSampledFullFracIsExact pins the boundary invariant: SampleFrac = 1
// samples every point, so both samplers must reproduce the exact run
// bit-for-bit (same labels, not just the same partition — the pipeline
// differs only in gates that are no-ops on a full mask).
func TestSampledFullFracIsExact(t *testing.T) {
	rows := blobs(600, 2, 17)
	c, err := NewClusterer(rows, 2.5)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := c.Run(Config{MinPts: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, sampler := range []Sampler{SamplerUniform, SamplerKCenter} {
		res, err := c.Run(Config{MinPts: 5, Sampler: sampler, SampleFrac: 1, SampleSeed: 3})
		if err != nil {
			t.Fatalf("%s: %v", sampler, err)
		}
		if res.NumClusters != exact.NumClusters {
			t.Fatalf("%s: %d clusters, exact found %d", sampler, res.NumClusters, exact.NumClusters)
		}
		for i := range exact.Labels {
			if res.Labels[i] != exact.Labels[i] || res.Core[i] != exact.Core[i] {
				t.Fatalf("%s: point %d diverges (label %d/%d, core %v/%v)", sampler,
					i, res.Labels[i], exact.Labels[i], res.Core[i], exact.Core[i])
			}
		}
	}
}

// TestSampledDeterministicAcrossWorkers: one (Sampler, SampleFrac,
// SampleSeed) must produce the identical clustering at any worker budget —
// fresh Clusterers per worker count, so the mask cache cannot mask a
// nondeterministic sampler.
func TestSampledDeterministicAcrossWorkers(t *testing.T) {
	rows := blobs(800, 2, 23)
	run := func(workers int, sampler Sampler) *Result {
		c, err := NewClusterer(rows, 2.5)
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.Run(Config{
			MinPts: 5, Workers: workers,
			Sampler: sampler, SampleFrac: 0.3, SampleSeed: 77,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	for _, sampler := range []Sampler{SamplerUniform, SamplerKCenter} {
		ref := run(1, sampler)
		for _, w := range []int{2, 3, 7} {
			got := run(w, sampler)
			if got.NumClusters != ref.NumClusters {
				t.Fatalf("%s workers=%d: %d clusters, want %d", sampler, w, got.NumClusters, ref.NumClusters)
			}
			// Labels are assigned from deterministic cell state, so they must
			// be identical, not just permutation-equal.
			for i := range ref.Labels {
				if got.Labels[i] != ref.Labels[i] || got.Core[i] != ref.Core[i] {
					t.Fatalf("%s workers=%d: point %d diverges", sampler, w, i)
				}
			}
		}
	}
}

// TestSampledQuality runs the DBSCAN++ trade-off on the varden workloads in
// 2D and 3D: sampling a tenth of the points must keep ARI >= 0.95 and NMI >=
// 0.9 against the exact run, for both samplers.
func TestSampledQuality(t *testing.T) {
	for _, tc := range []struct {
		d   int
		eps float64
	}{{2, 1000}, {3, 2000}} {
		pts := dataset.SeedSpreader(dataset.SeedSpreaderConfig{N: 20000, D: tc.d, VarDen: true, Seed: 1})
		c, err := NewClustererFlat(pts.Data, pts.D, tc.eps)
		if err != nil {
			t.Fatal(err)
		}
		exact, err := c.Run(Config{MinPts: 100})
		if err != nil {
			t.Fatal(err)
		}
		for _, sampler := range []Sampler{SamplerUniform, SamplerKCenter} {
			res, err := c.Run(Config{MinPts: 100, Sampler: sampler, SampleFrac: 0.1, SampleSeed: 5})
			if err != nil {
				t.Fatalf("d=%d %s: %v", tc.d, sampler, err)
			}
			ari := metrics.AdjustedRandIndex(exact.Labels, res.Labels)
			nmi := metrics.NormalizedMutualInfo(exact.Labels, res.Labels)
			if ari < 0.95 {
				t.Errorf("d=%d %s: ARI %.4f vs exact, want >= 0.95", tc.d, sampler, ari)
			}
			if nmi < 0.9 {
				t.Errorf("d=%d %s: NMI %.4f vs exact, want >= 0.9", tc.d, sampler, nmi)
			}
		}
	}
}

// TestSampledRejectedOffBatchPaths: streaming ticks and hierarchy builds must
// reject samplers up front (batch-only mode).
func TestSampledRejectedOffBatchPaths(t *testing.T) {
	cfg := Config{MinPts: 5, Sampler: SamplerUniform, SampleFrac: 0.5}
	s, err := NewStreamingClusterer(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Insert(blobs(50, 2, 3)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(cfg); err == nil {
		t.Error("StreamingClusterer.Run accepted a sampler")
	}
	c, err := NewClusterer(blobs(50, 2, 3), 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.BuildHierarchyContext(nil, cfg); err == nil {
		t.Error("BuildHierarchyContext accepted a sampler")
	}
}

// TestSampledConcurrentMixedWorkers exercises the chunked scheduler and the
// sampled-core mode under concurrent Runs with mixed worker budgets on one
// Clusterer (mask cache shared), under -race in CI. Every run must match its
// own serial reference.
func TestSampledConcurrentMixedWorkers(t *testing.T) {
	rows := blobs(1500, 2, 41)
	c, err := NewClusterer(rows, 2.5)
	if err != nil {
		t.Fatal(err)
	}
	type job struct {
		cfg Config
		ref *Result
	}
	jobs := []job{
		{cfg: Config{MinPts: 5}},
		{cfg: Config{MinPts: 5, Sampler: SamplerUniform, SampleFrac: 0.3, SampleSeed: 1}},
		{cfg: Config{MinPts: 5, Sampler: SamplerUniform, SampleFrac: 0.1, SampleSeed: 2}},
		{cfg: Config{MinPts: 8, Sampler: SamplerKCenter, SampleFrac: 0.2, SampleSeed: 3}},
		{cfg: Config{MinPts: 5, Shards: 3}},
	}
	for i := range jobs {
		ref, err := c.Run(jobs[i].cfg)
		if err != nil {
			t.Fatal(err)
		}
		jobs[i].ref = ref
	}
	var wg sync.WaitGroup
	for iter := 0; iter < 3; iter++ {
		for i := range jobs {
			for _, w := range []int{1, 2, 4} {
				wg.Add(1)
				go func(j job, w int) {
					defer wg.Done()
					cfg := j.cfg
					cfg.Workers = w
					res, err := c.Run(cfg)
					if err != nil {
						t.Errorf("workers=%d: %v", w, err)
						return
					}
					if res.NumClusters != j.ref.NumClusters {
						t.Errorf("workers=%d: %d clusters, want %d", w, res.NumClusters, j.ref.NumClusters)
						return
					}
					for p := range j.ref.Labels {
						if res.Labels[p] != j.ref.Labels[p] {
							t.Errorf("workers=%d: point %d label %d, want %d", w, p, res.Labels[p], j.ref.Labels[p])
							return
						}
					}
				}(jobs[i], w)
			}
		}
	}
	wg.Wait()
}
