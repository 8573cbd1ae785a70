package pdbscan

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// equalUpToPermutation checks that two clustering results describe the same
// clustering under a bijective relabeling: identical core flags, a consistent
// label bijection over core points, and matching border membership sets.
// (Primary labels of multi-membership border points are min-of-set in each
// labeling and therefore need not correspond under the bijection.)
func equalUpToPermutation(a, b *Result) error {
	n := len(a.Labels)
	if n != len(b.Labels) {
		return fmt.Errorf("length %d vs %d", n, len(b.Labels))
	}
	if a.NumClusters != b.NumClusters {
		return fmt.Errorf("numClusters %d vs %d", a.NumClusters, b.NumClusters)
	}
	fw := make(map[int32]int32)
	bw := make(map[int32]int32)
	for i := 0; i < n; i++ {
		if a.Core[i] != b.Core[i] {
			return fmt.Errorf("point %d: core %v vs %v", i, a.Core[i], b.Core[i])
		}
		if !a.Core[i] {
			continue
		}
		la, lb := a.Labels[i], b.Labels[i]
		if m, ok := fw[la]; ok && m != lb {
			return fmt.Errorf("point %d: label %d maps to both %d and %d", i, la, m, lb)
		}
		if m, ok := bw[lb]; ok && m != la {
			return fmt.Errorf("point %d: label %d mapped from both %d and %d", i, lb, m, la)
		}
		fw[la], bw[lb] = lb, la
	}
	members := func(r *Result, i int) []int32 {
		if m, ok := r.Border[int32(i)]; ok {
			return m
		}
		if r.Labels[i] >= 0 {
			return []int32{r.Labels[i]}
		}
		return nil
	}
	for i := 0; i < n; i++ {
		if a.Core[i] {
			continue
		}
		ma, mb := members(a, i), members(b, i)
		if len(ma) != len(mb) {
			return fmt.Errorf("point %d: %d memberships vs %d", i, len(ma), len(mb))
		}
		set := make(map[int32]bool, len(mb))
		for _, l := range mb {
			set[l] = true
		}
		for _, l := range ma {
			m, ok := fw[l]
			if !ok {
				return fmt.Errorf("point %d: label %d has no core point", i, l)
			}
			if !set[m] {
				return fmt.Errorf("point %d: membership %d (mapped %d) missing", i, l, m)
			}
		}
	}
	return nil
}

// checkStreamMatchesScratch compares a streaming run against from-scratch
// Cluster on the same (insertion-ordered) point set.
func checkStreamMatchesScratch(t *testing.T, s *StreamingClusterer, cfg Config, ctx string) {
	t.Helper()
	got, err := s.Run(cfg)
	if err != nil {
		t.Fatalf("%s: streaming run: %v", ctx, err)
	}
	rows := make([][]float64, 0, s.Len())
	for _, id := range s.IDs() {
		row, ok := s.Point(id)
		if !ok {
			t.Fatalf("%s: live id %d has no point", ctx, id)
		}
		rows = append(rows, row)
	}
	if len(rows) == 0 {
		if got.NumClusters != 0 || len(got.Labels) != 0 {
			t.Fatalf("%s: empty stream returned %d clusters, %d labels", ctx, got.NumClusters, len(got.Labels))
		}
		return
	}
	cfg.Eps = s.Eps()
	want, err := Cluster(rows, cfg)
	if err != nil {
		t.Fatalf("%s: from-scratch run: %v", ctx, err)
	}
	if err := equalUpToPermutation(&got.Result, want); err != nil {
		t.Fatalf("%s: streaming differs from from-scratch: %v", ctx, err)
	}
}

// streamMethodsFor lists every method applicable in d dimensions.
func streamMethodsFor(d int) []Method {
	if d == 2 {
		return Methods()
	}
	return []Method{MethodExact, MethodExactQt, MethodApprox, MethodApproxQt}
}

// TestStreamingMatchesClusterScripted drives random insert/remove/window
// scripts and verifies after every tick that the incremental result is
// label-permutation-equal to a from-scratch Cluster on the current point set,
// for every method (including the approximate ones — the absolute lattice
// anchoring makes even their optional merges reproducible).
func TestStreamingMatchesClusterScripted(t *testing.T) {
	for _, d := range []int{2, 3, 5} {
		d := d
		t.Run(fmt.Sprintf("d=%d", d), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(int64(100 + d)))
			s, err := NewStreamingClusterer(d, 2.0)
			if err != nil {
				t.Fatal(err)
			}
			methods := streamMethodsFor(d)
			randRow := func() []float64 {
				row := make([]float64, d)
				base := float64(rng.Intn(4)) * 5
				for j := range row {
					row[j] = base + rng.NormFloat64()*1.5
				}
				return row
			}
			batch := func(k int) [][]float64 {
				rows := make([][]float64, k)
				for i := range rows {
					rows[i] = randRow()
				}
				return rows
			}
			if _, err := s.Insert(batch(80)); err != nil {
				t.Fatal(err)
			}
			for tick := 0; tick < 12; tick++ {
				switch tick % 4 {
				case 0, 1:
					if _, err := s.Insert(batch(10 + rng.Intn(20))); err != nil {
						t.Fatal(err)
					}
					if tick > 0 {
						ids := s.IDs()
						var kill []int64
						for _, id := range ids {
							if rng.Intn(8) == 0 {
								kill = append(kill, id)
							}
						}
						if err := s.Remove(kill...); err != nil {
							t.Fatal(err)
						}
					}
				case 2:
					s.Window(s.Len() * 3 / 4)
					if _, err := s.Insert(batch(15)); err != nil {
						t.Fatal(err)
					}
				case 3:
					// Mutation-free tick: everything reused.
				}
				m := methods[tick%len(methods)]
				cfg := Config{MinPts: 3 + tick%5, Method: m}
				if m == MethodApprox || m == MethodApproxQt {
					cfg.Rho = []float64{0.01, 0.1, 0.5}[tick%3]
				}
				checkStreamMatchesScratch(t, s, cfg, fmt.Sprintf("d=%d tick=%d method=%s", d, tick, m))
			}
		})
	}
}

// TestStreamingDrainAndRefill empties the stream completely and refills it,
// crossing the empty state both ways.
func TestStreamingDrainAndRefill(t *testing.T) {
	s, err := NewStreamingClusterer(2, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{MinPts: 4}
	checkStreamMatchesScratch(t, s, cfg, "empty start")
	ids, err := s.Insert([][]float64{{0, 0}, {0.5, 0}, {0, 0.5}, {10, 10}, {10.5, 10}, {10, 10.5}})
	if err != nil {
		t.Fatal(err)
	}
	checkStreamMatchesScratch(t, s, cfg, "filled")
	if err := s.Remove(ids...); err != nil {
		t.Fatal(err)
	}
	checkStreamMatchesScratch(t, s, cfg, "drained")
	if _, err := s.Insert([][]float64{{1, 1}, {1.2, 1}, {1, 1.2}}); err != nil {
		t.Fatal(err)
	}
	checkStreamMatchesScratch(t, s, cfg, "refilled")
	// Drain via Window(0) and refill with a single far-away point: the old
	// cells' slots stay unclaimed, so any cached core list that survived the
	// empty tick would surface as a phantom cluster here (regression:
	// FuzzStreamingOps found the empty-tick snapshot being dropped before
	// the caches processed it).
	s.Window(0)
	checkStreamMatchesScratch(t, s, cfg, "window(0)")
	if _, err := s.Insert([][]float64{{-50, -50}}); err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(Config{MinPts: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumClusters != 1 || len(res.Labels) != 1 || res.Labels[0] != 0 {
		t.Fatalf("single point after drain: %d clusters, labels %v", res.NumClusters, res.Labels)
	}
}

// TestStreamingConfigSweepsBetweenTicks varies MinPts, Method, and Rho
// between ticks with and without interleaved mutations; stale caches keyed to
// the old parameters must be invalidated, never silently reused.
func TestStreamingConfigSweepsBetweenTicks(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s, err := NewStreamingClusterer(2, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	rows := make([][]float64, 150)
	for i := range rows {
		rows[i] = []float64{
			float64(rng.Intn(3))*6 + rng.NormFloat64(),
			float64(rng.Intn(3))*6 + rng.NormFloat64(),
		}
	}
	if _, err := s.Insert(rows); err != nil {
		t.Fatal(err)
	}
	cfgs := []Config{
		{MinPts: 3, Method: MethodExact},
		{MinPts: 8, Method: MethodExact},
		{MinPts: 8, Method: MethodApprox, Rho: 0.05},
		{MinPts: 8, Method: MethodApprox, Rho: 0.4},
		{MinPts: 4, Method: MethodExactQt},
		{MinPts: 4, Method: Method2DBoxUSEC},
		{MinPts: 4, Method: MethodApproxQt, Rho: 0.05},
		{MinPts: 4, Method: Method2DGridDelaunay},
	}
	for i, cfg := range cfgs {
		checkStreamMatchesScratch(t, s, cfg, fmt.Sprintf("sweep cfg %d (no mutation)", i))
		if i%2 == 1 {
			s.Window(s.Len() - 5)
			if _, err := s.Insert([][]float64{{rng.Float64() * 18, rng.Float64() * 18}}); err != nil {
				t.Fatal(err)
			}
			checkStreamMatchesScratch(t, s, cfg, fmt.Sprintf("sweep cfg %d (mutated)", i))
		}
	}
}

// TestStreamingConcurrentRuns exercises concurrent Run calls (with different
// budgets and methods) interleaved with concurrent mutations; the structure
// serializes internally, so this must be race-free and every run must return
// a valid result for some recent point set.
func TestStreamingConcurrentRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	s, err := NewStreamingClusterer(2, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	rows := make([][]float64, 300)
	for i := range rows {
		rows[i] = []float64{rng.NormFloat64() * 5, rng.NormFloat64() * 5}
	}
	if _, err := s.Insert(rows); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				res, err := s.Run(Config{MinPts: 5, Workers: 1 + w, Method: MethodExact})
				if err != nil {
					t.Errorf("worker %d run %d: %v", w, i, err)
					return
				}
				if len(res.Labels) != len(res.IDs) {
					t.Errorf("worker %d: %d labels for %d ids", w, len(res.Labels), len(res.IDs))
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		mrng := rand.New(rand.NewSource(43))
		for i := 0; i < 20; i++ {
			if _, err := s.Insert([][]float64{{mrng.NormFloat64() * 5, mrng.NormFloat64() * 5}}); err != nil {
				t.Errorf("mutator insert: %v", err)
				return
			}
			s.Window(300)
		}
	}()
	wg.Wait()
	// After the dust settles, the final state must still match from-scratch.
	checkStreamMatchesScratch(t, s, Config{MinPts: 5, Method: MethodExact}, "post-concurrency")
}

// TestStreamingErrorDoesNotCorruptState pins the error-path contract: a Run
// rejected for an invalid config mid-stream (here a negative Rho) must not
// consume mutations — the next valid Run still has to match from-scratch.
func TestStreamingErrorDoesNotCorruptState(t *testing.T) {
	s, err := NewStreamingClusterer(2, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	ids, err := s.Insert([][]float64{{0, 0}, {0.5, 0}, {10, 10}, {10.5, 10}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(Config{MinPts: 2}); err != nil {
		t.Fatal(err)
	}
	if err := s.Remove(ids[3]); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(Config{MinPts: 2, Method: MethodApprox, Rho: -1}); err == nil {
		t.Fatal("negative Rho accepted")
	}
	checkStreamMatchesScratch(t, s, Config{MinPts: 2}, "after rejected config")
}

func TestStreamingValidation(t *testing.T) {
	if _, err := NewStreamingClusterer(0, 1); err == nil {
		t.Fatal("dims=0 accepted")
	}
	if _, err := NewStreamingClusterer(2, 0); err == nil {
		t.Fatal("eps=0 accepted")
	}
	s, err := NewStreamingClusterer(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Insert([][]float64{{1, 2, 3}}); err == nil {
		t.Fatal("wrong-dim row accepted")
	}
	if _, err := s.Insert([][]float64{{1, math.NaN()}}); err == nil {
		t.Fatal("NaN accepted")
	}
	if _, err := s.InsertFlat([]float64{1, 2, 3}); err == nil {
		t.Fatal("ragged flat input accepted")
	}
	if err := s.Remove(99); err == nil {
		t.Fatal("unknown id accepted")
	}
	if _, err := s.Run(Config{Eps: 2, MinPts: 1}); err == nil {
		t.Fatal("mismatched eps accepted")
	}
	if _, err := s.Run(Config{MinPts: 0}); err == nil {
		t.Fatal("MinPts=0 accepted")
	}
	if _, err := s.Run(Config{MinPts: 1, Method: "bogus"}); err == nil {
		t.Fatal("unknown method accepted")
	}
	// 2D-only method on 3D stream.
	s3, _ := NewStreamingClusterer(3, 1)
	if _, err := s3.Run(Config{MinPts: 1, Method: Method2DGridBCP}); err == nil {
		t.Fatal("2D method on 3D stream accepted")
	}
}

func TestStreamResultLabelOf(t *testing.T) {
	s, err := NewStreamingClusterer(2, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	ids, err := s.Insert([][]float64{{0, 0}, {0.5, 0}, {0, 0.5}, {50, 50}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(Config{MinPts: 3})
	if err != nil {
		t.Fatal(err)
	}
	for k, id := range ids {
		got, ok := res.LabelOf(id)
		if !ok || got != res.Labels[k] {
			t.Fatalf("LabelOf(%d) = %d,%v want %d", id, got, ok, res.Labels[k])
		}
	}
	if _, ok := res.LabelOf(999); ok {
		t.Fatal("LabelOf(999) found a label")
	}
}

// TestStreamingRemoveTable pins Remove's id handling: a repeated id is
// removed once, an unknown id among known ones removes nothing, ids may come
// in any order, and an empty call is a no-op. After every call the live ids,
// the points they name, and a Run all match the points that should remain.
func TestStreamingRemoveTable(t *testing.T) {
	rows := blobs(300, 2, 61)
	for _, tc := range []struct {
		name    string
		remove  []int64
		wantErr bool
	}{
		{"repeated id", []int64{7, 7, 200, 7}, false},
		{"unknown id among known ones", []int64{3, 4, 300, 5}, true},
		{"out of order", []int64{250, 0, 299, 12, 11}, false},
		{"empty call", nil, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := NewStreamingClusterer(2, 3.0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Insert(rows); err != nil {
				t.Fatal(err)
			}
			err = s.Remove(tc.remove...)
			if (err != nil) != tc.wantErr {
				t.Fatalf("Remove(%v): err = %v, want error %v", tc.remove, err, tc.wantErr)
			}
			gone := make(map[int64]bool)
			if !tc.wantErr {
				for _, id := range tc.remove {
					gone[id] = true
				}
			}
			var wantIDs []int64
			var wantRows [][]float64
			for id, row := range rows {
				if !gone[int64(id)] {
					wantIDs = append(wantIDs, int64(id))
					wantRows = append(wantRows, row)
				}
			}
			if got := s.IDs(); !slices.Equal(got, wantIDs) {
				t.Fatalf("IDs() = %d ids, want %d (%v removed)", len(got), len(wantIDs), tc.remove)
			}
			for id, row := range rows {
				got, ok := s.Point(int64(id))
				if ok == gone[int64(id)] || (ok && !slices.Equal(got, row)) {
					t.Fatalf("Point(%d) = %v, %v; want %v, %v", id, got, ok, row, !gone[int64(id)])
				}
			}
			cfg := Config{MinPts: 5}
			got, err := s.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			want, err := Cluster(wantRows, Config{Eps: 3.0, MinPts: 5})
			if err != nil {
				t.Fatal(err)
			}
			if err := equalUpToPermutation(&got.Result, want); err != nil {
				t.Fatalf("Run after Remove differs from from-scratch: %v", err)
			}
		})
	}
}
