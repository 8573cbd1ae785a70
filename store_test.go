package pdbscan

import (
	"path/filepath"
	"strings"
	"testing"
)

// storeMethodsFor lists every clustering method applicable at dimension d,
// paired with the equivalence each one guarantees for store-backed runs:
// grid-layout methods are bit-identical to the writing Clusterer's results,
// 2d-box-* methods (different monolithic cell layout) are equivalent up to a
// label bijection.
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

// TestStoreRoundTripConformance is the tentpole exactness check: write a cell
// store, reopen it, and every run on the reopened store — both the in-RAM
// path and the out-of-core Spill path, across every method and several shard
// layouts — must reproduce the writing Clusterer's results.
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
				if mc.exact {
					if err := labelsEqual(want, got); err != nil {
						t.Fatalf("d=%d shards=%d %s: in-RAM store run differs: %v", d, shards, mc.m, err)
					}
				} else if err := equivalentResults(want, got); err != nil {
					t.Fatalf("d=%d shards=%d %s: in-RAM store run not equivalent: %v", d, shards, mc.m, err)
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
