package pdbscan

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"
)

func sameResultT(t *testing.T, got, want *Result, label string) {
	t.Helper()
	if got.NumClusters != want.NumClusters {
		t.Fatalf("%s: NumClusters = %d, want %d", label, got.NumClusters, want.NumClusters)
	}
	if !reflect.DeepEqual(got.Labels, want.Labels) {
		t.Fatalf("%s: labels differ", label)
	}
	if !reflect.DeepEqual(got.Core, want.Core) {
		t.Fatalf("%s: core flags differ", label)
	}
	if len(got.Border) != len(want.Border) || (len(want.Border) > 0 && !reflect.DeepEqual(got.Border, want.Border)) {
		t.Fatalf("%s: border maps differ", label)
	}
}

func TestRunContextPreCancelled(t *testing.T) {
	rows := blobs(2000, 2, 21)
	c, err := NewClusterer(rows, 2)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := Config{MinPts: 8}
	if _, err := c.RunContext(ctx, cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled RunContext: err = %v", err)
	}
	// Nothing was built for the cancelled run; the next run is clean.
	if got := c.cells.builds.Load(); got != 0 {
		t.Fatalf("builds = %d after pre-cancelled run, want 0", got)
	}
	want, err := Cluster(rows, Config{Eps: 2, MinPts: 8})
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	sameResultT(t, got, want, "run after pre-cancelled run")
}

// TestRunContextCancelDuringBuild cancels while the first run is still
// constructing the cell structure: the half-built structure must be
// discarded (not latched), and the next run must rebuild and succeed.
func TestRunContextCancelDuringBuild(t *testing.T) {
	rows := blobs(120000, 2, 22)
	c, err := NewClusterer(rows, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(2 * time.Millisecond) // almost surely mid-build at this size
		cancel()
	}()
	cfg := Config{MinPts: 10}
	_, rerr := c.RunContext(ctx, cfg)
	cancel()
	if rerr == nil {
		t.Skip("run finished before the cancel landed; nothing to assert")
	}
	if !errors.Is(rerr, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", rerr)
	}
	want, err := Cluster(rows, Config{Eps: 1.0, MinPts: 10})
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Run(cfg)
	if err != nil {
		t.Fatalf("run after cancelled build: %v", err)
	}
	sameResultT(t, got, want, "run after cancelled build")
}

// TestRunContextCancelWhileOtherRunBuilds: a run that arrives while another
// run's cell-structure build is in flight waits for it — but its own
// cancellation must still unwind it promptly, not after the foreign build
// completes.
func TestRunContextCancelWhileOtherRunBuilds(t *testing.T) {
	rows := blobs(120000, 2, 29)
	c, err := NewClusterer(rows, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{MinPts: 10}
	aStarted := make(chan struct{})
	aDone := make(chan error, 1)
	go func() {
		close(aStarted)
		_, err := c.Run(cfg) // owns the build
		aDone <- err
	}()
	<-aStarted
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(2*time.Millisecond, cancel)
	start := time.Now()
	_, berr := c.RunContext(ctx, cfg)
	bElapsed := time.Since(start)
	cancel()
	if err := <-aDone; err != nil {
		t.Fatalf("building run: %v", err)
	}
	if berr == nil {
		t.Skip("foreign build finished before the cancel landed; waiter path not hit")
	}
	if !errors.Is(berr, context.Canceled) {
		t.Fatalf("waiter err = %v, want context.Canceled", berr)
	}
	// The waiter must not have ridden out the whole foreign build: at 120k
	// points the build takes tens of ms; a prompt unwind is bounded well
	// below that (generous margin for loaded CI hosts).
	if bElapsed > 2*time.Second {
		t.Fatalf("cancelled waiter took %v to return", bElapsed)
	}
	// And the structure the other run built is intact.
	want, err := Cluster(rows, Config{Eps: 1.0, MinPts: 10})
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sameResultT(t, got, want, "run after cancelled waiter")
}

// TestRunContextCancelMidRunThenIdentical: with the structure prebuilt,
// cancel runs at a spread of delays (hitting different phases), and after
// every cancelled run assert the very next uncancelled run returns exactly
// the baseline — the arena-reuse-after-unwind guarantee, under -race.
func TestRunContextCancelMidRunThenIdentical(t *testing.T) {
	rows := blobs(60000, 2, 23)
	c, err := NewClusterer(rows, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Prepare(Config{}); err != nil {
		t.Fatal(err)
	}
	cfg := Config{MinPts: 10}
	want, err := c.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cancelledAtLeastOne := false
	for _, delay := range []time.Duration{0, 200 * time.Microsecond, time.Millisecond, 4 * time.Millisecond, 16 * time.Millisecond} {
		ctx, cancel := context.WithCancel(context.Background())
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			time.Sleep(delay)
			cancel()
		}()
		res, rerr := c.RunContext(ctx, cfg)
		wg.Wait()
		cancel()
		if rerr != nil {
			if !errors.Is(rerr, context.Canceled) {
				t.Fatalf("delay %v: err = %v, want context.Canceled", delay, rerr)
			}
			if res != nil {
				t.Fatalf("delay %v: result alongside error", delay)
			}
			cancelledAtLeastOne = true
		}
		got, err := c.Run(cfg)
		if err != nil {
			t.Fatalf("delay %v: rerun: %v", delay, err)
		}
		sameResultT(t, got, want, "rerun after cancel")
	}
	if !cancelledAtLeastOne {
		t.Log("no delay landed mid-run on this machine; equality still verified")
	}
}

// TestRunContextCancelSharded exercises the sharded path explicitly.
func TestRunContextCancelSharded(t *testing.T) {
	rows := blobs(60000, 2, 24)
	c, err := NewClusterer(rows, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{MinPts: 10, Shards: 4}
	want, err := c.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, delay := range []time.Duration{0, time.Millisecond, 8 * time.Millisecond} {
		ctx, cancel := context.WithCancel(context.Background())
		time.AfterFunc(delay, cancel)
		if _, rerr := c.RunContext(ctx, cfg); rerr != nil && !errors.Is(rerr, context.Canceled) {
			t.Fatalf("sharded cancel: err = %v", rerr)
		}
		cancel()
		got, err := c.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sameResultT(t, got, want, "sharded rerun after cancel")
	}
}

// TestConcurrentCancelledAndCleanRuns mixes cancelled and uncancelled
// concurrent runs on one Clusterer (shared arena, shared cells): the clean
// runs must be unaffected. Run with -race.
func TestConcurrentCancelledAndCleanRuns(t *testing.T) {
	rows := blobs(30000, 2, 25)
	c, err := NewClusterer(rows, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{MinPts: 10}
	want, err := c.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i%2 == 0 {
				// Clean run: must equal the baseline exactly.
				got, err := c.RunContext(context.Background(), Config{MinPts: 10, Workers: 1 + i%3})
				if err != nil {
					errs <- err
					return
				}
				if !reflect.DeepEqual(got.Labels, want.Labels) {
					errs <- errors.New("clean concurrent run diverged from baseline")
				}
				return
			}
			ctx, cancel := context.WithCancel(context.Background())
			time.AfterFunc(time.Duration(i)*time.Millisecond, cancel)
			defer cancel()
			if _, err := c.RunContext(ctx, cfg); err != nil && !errors.Is(err, context.Canceled) {
				errs <- err
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestStreamingRunContextCancel cancels a streaming tick and asserts the
// next tick is a clean full recompute equal to a from-scratch Cluster.
func TestStreamingRunContextCancel(t *testing.T) {
	rows := blobs(30000, 2, 26)
	s, err := NewStreamingClusterer(2, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Insert(rows); err != nil {
		t.Fatal(err)
	}
	cfg := Config{MinPts: 10}

	// Pre-cancelled: rejected before the snapshot, stream unaffected.
	pre, cancelPre := context.WithCancel(context.Background())
	cancelPre()
	if _, err := s.RunContext(pre, cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled tick: err = %v", err)
	}

	// Mid-tick cancellations at a spread of delays.
	for _, delay := range []time.Duration{time.Millisecond, 8 * time.Millisecond} {
		ctx, cancel := context.WithCancel(context.Background())
		time.AfterFunc(delay, cancel)
		_, rerr := s.RunContext(ctx, cfg)
		cancel()
		if rerr != nil && !errors.Is(rerr, context.Canceled) {
			t.Fatalf("mid-tick cancel: err = %v", rerr)
		}
		got, err := s.Run(cfg)
		if err != nil {
			t.Fatalf("tick after cancelled tick: %v", err)
		}
		if rerr != nil && !s.LastRunStats().Full {
			t.Fatal("tick after a cancelled tick should be a full recompute")
		}
		want, err := Cluster(rows, Config{Eps: 1.0, MinPts: 10})
		if err != nil {
			t.Fatal(err)
		}
		if got.NumClusters != want.NumClusters {
			t.Fatalf("recovered tick: NumClusters = %d, want %d", got.NumClusters, want.NumClusters)
		}
		// Streaming results are label-permutation-equal to batch results.
		if !permEqualLabels(got.Labels, want.Labels) {
			t.Fatal("recovered tick labels differ from from-scratch clustering")
		}
	}
}

// permEqualLabels reports whether two labelings are equal up to a bijection
// of cluster ids (noise must match exactly).
func permEqualLabels(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	fwd := map[int32]int32{}
	rev := map[int32]int32{}
	for i := range a {
		x, y := a[i], b[i]
		if (x < 0) != (y < 0) {
			return false
		}
		if x < 0 {
			continue
		}
		if v, ok := fwd[x]; ok && v != y {
			return false
		}
		if v, ok := rev[y]; ok && v != x {
			return false
		}
		fwd[x], rev[y] = y, x
	}
	return true
}

func TestClusterContextWrappers(t *testing.T) {
	rows := blobs(2000, 2, 27)
	want, err := Cluster(rows, Config{Eps: 2, MinPts: 8})
	if err != nil {
		t.Fatal(err)
	}
	got, err := ClusterContext(context.Background(), rows, Config{Eps: 2, MinPts: 8})
	if err != nil {
		t.Fatal(err)
	}
	sameResultT(t, got, want, "ClusterContext")

	flat := make([]float64, 0, len(rows)*2)
	for _, r := range rows {
		flat = append(flat, r...)
	}
	gotFlat, err := ClusterFlatContext(context.Background(), flat, 2, Config{Eps: 2, MinPts: 8})
	if err != nil {
		t.Fatal(err)
	}
	sameResultT(t, gotFlat, want, "ClusterFlatContext")

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ClusterContext(ctx, rows, Config{Eps: 2, MinPts: 8}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled ClusterContext: err = %v", err)
	}
}

// TestRunStatsRecorded checks the per-phase RunStats surface on batch runs.
func TestRunStatsRecorded(t *testing.T) {
	rows := blobs(20000, 2, 28)
	c, err := NewClusterer(rows, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(Config{MinPts: 10}); err != nil {
		t.Fatal(err)
	}
	st := c.LastRunStats()
	if st.Total <= 0 {
		t.Fatalf("Total = %v, want > 0", st.Total)
	}
	if st.MarkCore+st.ClusterCore+st.Border <= 0 {
		t.Fatalf("no phase durations recorded: %+v", st)
	}
	if st.MarkCore+st.ClusterCore+st.Border+st.Build > st.Total+time.Millisecond {
		t.Fatalf("phases exceed total: %+v", st)
	}
	if st.Workers < 1 {
		t.Fatalf("Workers = %d", st.Workers)
	}
	if st.Shards < 1 {
		t.Fatalf("Shards = %d", st.Shards)
	}
	// A cancelled run must not overwrite the stats.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.RunContext(ctx, Config{MinPts: 10}); err == nil {
		t.Fatal("cancelled run succeeded?")
	}
	if got := c.LastRunStats(); got != st {
		t.Fatal("cancelled run overwrote LastRunStats")
	}
}
