package pdbscan

import (
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"pdbscan/internal/dataset"
)

// storeMethodsFor lists every clustering method applicable at dimension d,
// paired with the equivalence each one guarantees for Spill runs:
// grid-layout methods are bit-identical to the writing Clusterer's results,
// 2d-box-* methods (served by the store's grid layout) are equivalent up to a
// label bijection. Store-backed in-RAM runs are bit-identical for every
// method: they build the writer's own cells from the writer's point order.
func storeMethodsFor(d int) []struct {
	m     Method
	rho   float64
	exact bool
} {
	out := []struct {
		m     Method
		rho   float64
		exact bool
	}{
		{MethodExact, 0, true},
		{MethodExactQt, 0, true},
		{MethodApprox, 0.05, true},
		{MethodApproxQt, 0.05, true},
	}
	if d == 2 {
		out = append(out, []struct {
			m     Method
			rho   float64
			exact bool
		}{
			{Method2DGridBCP, 0, true},
			{Method2DGridUSEC, 0, true},
			{Method2DGridDelaunay, 0, true},
			{Method2DBoxBCP, 0, false},
			{Method2DBoxUSEC, 0, false},
			{Method2DBoxDelaunay, 0, false},
		}...)
	}
	return out
}

// TestStoreRoundTripConformance is the store's exactness check: write a cell
// store, reopen it, and every run on the reopened store — both the in-RAM
// path and the out-of-core Spill path, across every method and several shard
// layouts — must reproduce the writing Clusterer's results (bit for bit on
// the in-RAM path, 2d-box-* methods included).
func TestStoreRoundTripConformance(t *testing.T) {
	for _, d := range []int{2, 3, 5} {
		rows := blobs(1200, d, 11)
		eps := 3.0
		ref, err := NewClusterer(rows, eps)
		if err != nil {
			t.Fatal(err)
		}
		for _, shards := range []int{1, 2, 7} {
			path := filepath.Join(t.TempDir(), "pts.cells")
			if err := ref.WriteStore(path, shards); err != nil {
				t.Fatalf("d=%d shards=%d: WriteStore: %v", d, shards, err)
			}
			sc, err := OpenStoreClusterer(path)
			if err != nil {
				t.Fatalf("d=%d shards=%d: OpenStoreClusterer: %v", d, shards, err)
			}
			if sc.NumPoints() != ref.NumPoints() || sc.Dims() != d {
				t.Fatalf("d=%d shards=%d: store has %d points/%d dims", d, shards, sc.NumPoints(), sc.Dims())
			}
			for _, mc := range storeMethodsFor(d) {
				cfg := Config{Eps: eps, MinPts: 8, Method: mc.m, Rho: mc.rho}
				want, err := ref.Run(cfg)
				if err != nil {
					t.Fatalf("d=%d %s: reference Run: %v", d, mc.m, err)
				}
				got, err := sc.Run(cfg)
				if err != nil {
					t.Fatalf("d=%d shards=%d %s: store Run: %v", d, shards, mc.m, err)
				}
				if err := labelsEqual(want, got); err != nil {
					t.Fatalf("d=%d shards=%d %s: in-RAM store run differs: %v", d, shards, mc.m, err)
				}
				spill := cfg
				spill.Spill = true
				got2, err := sc.Run(spill)
				if err != nil {
					t.Fatalf("d=%d shards=%d %s: Spill Run: %v", d, shards, mc.m, err)
				}
				if mc.exact {
					if err := labelsEqual(want, got2); err != nil {
						t.Fatalf("d=%d shards=%d %s: Spill run differs: %v", d, shards, mc.m, err)
					}
				} else if err := equivalentResults(want, got2); err != nil {
					t.Fatalf("d=%d shards=%d %s: Spill run not equivalent: %v", d, shards, mc.m, err)
				}
				st := sc.LastRunStats()
				if st.BytesMapped <= 0 || st.PeakResidentBytes <= 0 || st.ShardsResidentPeak < 1 {
					t.Fatalf("d=%d shards=%d %s: Spill stats not recorded: %+v", d, shards, mc.m, st)
				}
				if st.PeakResidentBytes > st.BytesMapped {
					t.Fatalf("d=%d shards=%d %s: peak %d exceeds total mapped %d", d, shards, mc.m, st.PeakResidentBytes, st.BytesMapped)
				}
			}
			if err := sc.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
		}
	}
}

// TestStoreSpillBudget checks the hard residency budget: a window larger than
// MaxResidentBytes must fail with a actionable error, and a budget that
// admits every window must succeed and stay under it.
func TestStoreSpillBudget(t *testing.T) {
	rows := blobs(2000, 2, 3)
	ref, err := NewClusterer(rows, 3.0)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "pts.cells")
	if err := ref.WriteStore(path, 8); err != nil {
		t.Fatal(err)
	}
	sc, err := OpenStoreClusterer(path)
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()

	_, err = sc.Run(Config{Eps: 3.0, MinPts: 8, Spill: true, MaxResidentBytes: 4096})
	if err == nil || !strings.Contains(err.Error(), "MaxResidentBytes") {
		t.Fatalf("tiny budget: want budget error, got %v", err)
	}

	budget := int64(sc.NumPoints()) * 2 * 8 // whole dataset fits
	if _, err := sc.Run(Config{Eps: 3.0, MinPts: 8, Spill: true, MaxResidentBytes: budget}); err != nil {
		t.Fatalf("ample budget: %v", err)
	}
	if st := sc.LastRunStats(); st.PeakResidentBytes > budget {
		t.Fatalf("peak resident %d exceeds budget %d", st.PeakResidentBytes, budget)
	}

	// Quarter budget: the dataset is 4x MaxResidentBytes, so the run has to
	// sweep windows, and each must fit the budget (open refuses a larger
	// one) while the labels stay those of the in-RAM run. At 8 shards one
	// window here needs more than the budget, so keep 16.
	pts, err := dataset.Generate("uniform-2d", 20000, 1)
	if err != nil {
		t.Fatal(err)
	}
	ram, err := NewClustererFlat(pts.Data, pts.D, 2)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ram.Run(Config{Eps: 2, MinPts: 10})
	if err != nil {
		t.Fatal(err)
	}
	path = filepath.Join(t.TempDir(), "quarter.cells")
	if err := ram.WriteStore(path, 16); err != nil {
		t.Fatal(err)
	}
	qc, err := OpenStoreClusterer(path)
	if err != nil {
		t.Fatal(err)
	}
	defer qc.Close()
	quarter := int64(len(pts.Data)) * 8 / 4
	got, err := qc.Run(Config{Eps: 2, MinPts: 10, Spill: true, MaxResidentBytes: quarter})
	if err != nil {
		t.Fatalf("quarter budget: %v", err)
	}
	if err := labelsEqual(want, got); err != nil {
		t.Fatalf("quarter budget: spill run differs from in-RAM: %v", err)
	}
	if st := qc.LastRunStats(); st.PeakResidentBytes > quarter || st.ShardsResidentPeak >= 16 {
		t.Fatalf("quarter budget: peak resident %d of %d bytes, %d of 16 shards resident",
			st.PeakResidentBytes, quarter, st.ShardsResidentPeak)
	}
}

// TestStoreMisuse covers the rejected store API combinations.
func TestStoreMisuse(t *testing.T) {
	rows := blobs(300, 2, 5)
	ref, err := NewClusterer(rows, 3.0)
	if err != nil {
		t.Fatal(err)
	}

	// Spill without a store-backed Clusterer.
	if _, err := ref.Run(Config{Eps: 3.0, MinPts: 5, Spill: true}); err == nil ||
		!strings.Contains(err.Error(), "store-backed") {
		t.Fatalf("Spill on in-memory Clusterer: want store-backed error, got %v", err)
	}

	path := filepath.Join(t.TempDir(), "pts.cells")
	if err := ref.WriteStore(path, 3); err != nil {
		t.Fatal(err)
	}
	sc, err := OpenStoreClusterer(path)
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()

	// Re-exporting a store-backed Clusterer would compound permutations.
	if err := sc.WriteStore(filepath.Join(t.TempDir(), "again.cells"), 2); err == nil {
		t.Fatal("WriteStore on store-backed Clusterer: want error, got nil")
	}

	// Close is idempotent for in-memory Clusterers.
	if err := ref.Close(); err != nil {
		t.Fatalf("Close on in-memory Clusterer: %v", err)
	}
}

// writeTestStore writes ref's grid structure to a fresh store file at the
// given shard count and returns its path.
func writeTestStore(t *testing.T, ref *Clusterer, shards int) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "pts.cells")
	if err := ref.WriteStore(path, shards); err != nil {
		t.Fatal(err)
	}
	return path
}

// openTestStore opens path as a store-backed Clusterer closed at cleanup.
func openTestStore(t *testing.T, path string) *Clusterer {
	t.Helper()
	sc, err := OpenStoreClusterer(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sc.Close() })
	return sc
}

// TestStoreHierarchyMatchesWriter: a store-backed Clusterer builds its
// hierarchy on the writer's points in the writer's order, so every query
// answers bit for bit like the writer's own hierarchy — whether the
// hierarchy is the Clusterer's first use or follows a Run.
func TestStoreHierarchyMatchesWriter(t *testing.T) {
	rows := blobs(5000, 2, 43)
	ref, err := NewClusterer(rows, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	path := writeTestStore(t, ref, 4)
	want, err := ref.BuildHierarchy(6)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name     string
		runFirst bool
	}{{"first use", false}, {"after a Run", true}} {
		t.Run(tc.name, func(t *testing.T) {
			sc := openTestStore(t, path)
			if tc.runFirst {
				if _, err := sc.Run(Config{MinPts: 6}); err != nil {
					t.Fatal(err)
				}
			}
			h, err := sc.BuildHierarchy(6)
			if err != nil {
				t.Fatalf("BuildHierarchy: %v", err)
			}
			if !reflect.DeepEqual(h.CoreDistances(), want.CoreDistances()) {
				t.Fatal("core distances differ from the writer's")
			}
			for _, eps := range []float64{0.8, 1.4, 2.0} {
				got, err := h.CutEps(eps)
				if err != nil {
					t.Fatal(err)
				}
				w, err := want.CutEps(eps)
				if err != nil {
					t.Fatal(err)
				}
				if err := labelsEqual(w, got); err != nil {
					t.Fatalf("CutEps(%v) differs from the writer's: %v", eps, err)
				}
			}
			got, gotEps, err := h.CutK(3)
			if err != nil {
				t.Fatal(err)
			}
			w, wantEps, err := want.CutK(3)
			if err != nil {
				t.Fatal(err)
			}
			if gotEps != wantEps {
				t.Fatalf("CutK(3) radius %v, writer's %v", gotEps, wantEps)
			}
			if err := labelsEqual(w, got); err != nil {
				t.Fatalf("CutK(3) differs from the writer's: %v", err)
			}
		})
	}
}

// TestStoreSampledMatchesWriter: a sampled-core mask draws the writer's
// points, so uniform and k-center sampled runs on the store equal the
// writer's runs with the same (Sampler, SampleFrac, SampleSeed).
func TestStoreSampledMatchesWriter(t *testing.T) {
	rows := blobs(6000, 2, 47)
	ref, err := NewClusterer(rows, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	sc := openTestStore(t, writeTestStore(t, ref, 4))
	for _, sampler := range []Sampler{SamplerUniform, SamplerKCenter} {
		t.Run(string(sampler), func(t *testing.T) {
			cfg := Config{MinPts: 10, Sampler: sampler, SampleFrac: 0.3, SampleSeed: 5}
			want, err := ref.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			got, err := sc.Run(cfg)
			if err != nil {
				t.Fatalf("store Run: %v", err)
			}
			if err := labelsEqual(want, got); err != nil {
				t.Fatalf("sampled store run differs from the writer's: %v", err)
			}
		})
	}
}

// TestStoreConcurrentFirstRuns starts four Runs together on a fresh
// store-backed Clusterer: they share one gather of the points and one cell
// build (a data race here fails the test under -race), and each returns the
// writer's result.
func TestStoreConcurrentFirstRuns(t *testing.T) {
	rows := blobs(20000, 2, 53)
	ref, err := NewClusterer(rows, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{MinPts: 10}
	want, err := ref.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sc := openTestStore(t, writeTestStore(t, ref, 4))
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got, err := sc.Run(Config{MinPts: 10, Workers: 1 + i%2})
			if err == nil {
				err = labelsEqual(want, got)
			}
			errs[i] = err
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("run %d: %v", i, err)
		}
	}
	if got := sc.storePts.builds.Load(); got != 1 {
		t.Errorf("points gathered %d times, want 1", got)
	}
}
