package pdbscan

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"pdbscan/internal/parallel"
)

// labelsEqual reports whether two results are identical clusterings
// (including border multi-memberships).
func labelsEqual(a, b *Result) error {
	if a.NumClusters != b.NumClusters {
		return fmt.Errorf("NumClusters %d vs %d", a.NumClusters, b.NumClusters)
	}
	for i := range a.Labels {
		if a.Labels[i] != b.Labels[i] {
			return fmt.Errorf("label of point %d: %d vs %d", i, a.Labels[i], b.Labels[i])
		}
		if a.Core[i] != b.Core[i] {
			return fmt.Errorf("core flag of point %d: %v vs %v", i, a.Core[i], b.Core[i])
		}
	}
	if len(a.Border) != len(b.Border) {
		return fmt.Errorf("border map size %d vs %d", len(a.Border), len(b.Border))
	}
	for p, m := range a.Border {
		bm := b.Border[p]
		if len(m) != len(bm) {
			return fmt.Errorf("border memberships of %d: %v vs %v", p, m, bm)
		}
		for k := range m {
			if m[k] != bm[k] {
				return fmt.Errorf("border memberships of %d: %v vs %v", p, m, bm)
			}
		}
	}
	return nil
}

// TestClustererSweepMatchesCluster checks the tentpole reuse property: a
// MinPts/method sweep through one Clusterer must produce exactly the labels
// of fresh one-shot Cluster calls.
func TestClustererSweepMatchesCluster(t *testing.T) {
	for _, d := range []int{2, 3} {
		rows := blobs(500, d, 7)
		eps := 3.0
		c, err := NewClusterer(rows, eps)
		if err != nil {
			t.Fatal(err)
		}
		methods := []Method{MethodExact, MethodExactQt}
		if d == 2 {
			methods = append(methods, Method2DGridUSEC, Method2DBoxBCP, Method2DBoxDelaunay)
		}
		for _, m := range methods {
			for _, minPts := range []int{3, 8, 25} {
				cfg := Config{Eps: eps, MinPts: minPts, Method: m}
				got, err := c.Run(cfg)
				if err != nil {
					t.Fatalf("d=%d %s minPts=%d: Run: %v", d, m, minPts, err)
				}
				want, err := Cluster(rows, cfg)
				if err != nil {
					t.Fatalf("d=%d %s minPts=%d: Cluster: %v", d, m, minPts, err)
				}
				if err := labelsEqual(got, want); err != nil {
					t.Fatalf("d=%d %s minPts=%d: sweep result differs: %v", d, m, minPts, err)
				}
			}
		}
	}
}

// TestClustererReusesCellStructure checks that repeated Run calls do not
// rebuild the grid: one build per layout, no matter how many runs.
func TestClustererReusesCellStructure(t *testing.T) {
	rows := blobs(400, 2, 11)
	c, err := NewClusterer(rows, 3.0)
	if err != nil {
		t.Fatal(err)
	}
	for _, minPts := range []int{2, 5, 10, 20, 40} {
		if _, err := c.Run(Config{MinPts: minPts}); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.cells.builds.Load(); got != 1 {
		t.Fatalf("grid layout built %d times across 5 runs, want 1", got)
	}
	// A box-layout method triggers exactly one more build.
	for _, minPts := range []int{5, 10} {
		if _, err := c.Run(Config{MinPts: minPts, Method: Method2DBoxBCP}); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.cells.builds.Load(); got != 2 {
		t.Fatalf("builds = %d after box-method runs, want 2 (one per layout)", got)
	}
}

// TestClustererPartitionCacheByLayout alternates a box-layout and a
// grid-layout method through one Clusterer, at one shard and then at two.
// Both layouts have a one-shard partition, so the partition cache must tell
// them apart: every result must equal a fresh Clusterer's.
func TestClustererPartitionCacheByLayout(t *testing.T) {
	rows := blobs(2000, 2, 29)
	const eps = 2.5
	c, err := NewClusterer(rows, eps)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 2} {
		for round := 0; round < 2; round++ {
			for _, m := range []Method{Method2DBoxBCP, Method2DGridBCP} {
				cfg := Config{MinPts: 6, Method: m, Shards: shards}
				got, err := c.Run(cfg)
				if err != nil {
					t.Fatalf("%s shards=%d round %d: %v", m, shards, round, err)
				}
				if s := c.LastRunStats().Shards; s != shards {
					t.Fatalf("%s shards=%d: ran with %d shards", m, shards, s)
				}
				fresh, err := NewClusterer(rows, eps)
				if err != nil {
					t.Fatal(err)
				}
				want, err := fresh.Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if err := labelsEqual(got, want); err != nil {
					t.Fatalf("%s shards=%d round %d: shared Clusterer vs fresh: %v", m, shards, round, err)
				}
			}
		}
	}
}

// TestClustererPrepare checks that Prepare builds the layout eagerly (with
// its own budget) and that subsequent Runs reuse it.
func TestClustererPrepare(t *testing.T) {
	rows := blobs(300, 2, 13)
	c, err := NewClusterer(rows, 3.0)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Prepare(Config{Workers: 4}); err != nil {
		t.Fatal(err)
	}
	if got := c.cells.builds.Load(); got != 1 {
		t.Fatalf("builds = %d after Prepare, want 1", got)
	}
	if _, err := c.Run(Config{MinPts: 5, Workers: 1}); err != nil {
		t.Fatal(err)
	}
	if err := c.Prepare(Config{}); err != nil { // repeat: no-op
		t.Fatal(err)
	}
	if got := c.cells.builds.Load(); got != 1 {
		t.Fatalf("builds = %d after Run+Prepare, want 1 (reused)", got)
	}
	if err := c.Prepare(Config{Eps: 99}); err == nil {
		t.Fatal("Prepare with conflicting Eps accepted")
	}
	if err := c.Prepare(Config{Method: "nope"}); err == nil {
		t.Fatal("Prepare with unknown method accepted")
	}
}

// TestClustererEpsPinned checks that a Clusterer refuses a conflicting Eps
// but accepts zero ("use mine") and its own value.
func TestClustererEpsPinned(t *testing.T) {
	rows := blobs(100, 2, 3)
	c, err := NewClusterer(rows, 2.5)
	if err != nil {
		t.Fatal(err)
	}
	if c.Eps() != 2.5 || c.NumPoints() != 100 || c.Dims() != 2 {
		t.Fatalf("accessors: eps=%v n=%d d=%d", c.Eps(), c.NumPoints(), c.Dims())
	}
	if _, err := c.Run(Config{MinPts: 5}); err != nil {
		t.Fatalf("Eps=0 should use the clusterer's eps: %v", err)
	}
	if _, err := c.Run(Config{Eps: 2.5, MinPts: 5}); err != nil {
		t.Fatalf("matching Eps rejected: %v", err)
	}
	if _, err := c.Run(Config{Eps: 3.0, MinPts: 5}); err == nil {
		t.Fatal("conflicting Eps accepted")
	}
	if _, err := c.Run(Config{MinPts: 0}); err == nil {
		t.Fatal("MinPts=0 accepted")
	}
	if _, err := c.Run(Config{MinPts: 5, Method: "nope"}); err == nil {
		t.Fatal("unknown method accepted")
	}
}

// TestManyCellsOneCluster is the regression test for the label pass's data
// race: a single cluster spanning far more than 512 cells makes the
// root-marking loop actually run in parallel with every iteration writing
// the same root slot (caught by -race before the stores were atomic).
func TestManyCellsOneCluster(t *testing.T) {
	var rows [][]float64
	for x := 0; x < 12; x++ {
		for y := 0; y < 12; y++ {
			for z := 0; z < 12; z++ {
				rows = append(rows, []float64{float64(x), float64(y), float64(z)})
			}
		}
	}
	// eps 1.1 > lattice spacing 1: one connected cluster; cell side
	// 1.1/sqrt(3) < 1 puts every point in its own cell (1728 cells > 512).
	res, err := Cluster(rows, Config{Eps: 1.1, MinPts: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumClusters != 1 || res.NumNoise() != 0 {
		t.Fatalf("clusters=%d noise=%d, want 1 cluster / 0 noise", res.NumClusters, res.NumNoise())
	}
}

// TestConcurrentClusterDifferentWorkers runs overlapping one-shot Cluster
// calls with different Workers budgets and checks every call still produces
// the reference clustering. Under -race this is the regression test for the
// old process-wide SetWorkers state (two concurrent calls used to fight over
// one global cap).
func TestConcurrentClusterDifferentWorkers(t *testing.T) {
	rows := blobs(600, 3, 5)
	cfg := Config{Eps: 3.0, MinPts: 8}
	want, err := Cluster(rows, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for rep := 0; rep < 4; rep++ {
		for _, workers := range []int{1, 2, 3, 7} {
			wg.Add(1)
			go func(workers int) {
				defer wg.Done()
				c := cfg
				c.Workers = workers
				got, err := Cluster(rows, c)
				if err != nil {
					errs <- fmt.Errorf("workers=%d: %v", workers, err)
					return
				}
				if err := labelsEqual(got, want); err != nil {
					errs <- fmt.Errorf("workers=%d: %v", workers, err)
				}
			}(workers)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestClustererConcurrentRuns exercises concurrent Run calls on one shared
// Clusterer — including the racy first calls that trigger the lazy cell
// build — with different Workers, MinPts, and methods per call.
func TestClustererConcurrentRuns(t *testing.T) {
	rows := blobs(600, 2, 9)
	eps := 3.0
	c, err := NewClusterer(rows, eps)
	if err != nil {
		t.Fatal(err)
	}
	type job struct {
		minPts  int
		method  Method
		workers int
	}
	jobs := []job{
		{5, MethodExact, 1},
		{5, Method2DGridBCP, 3},
		{12, Method2DGridUSEC, 2},
		{12, Method2DBoxBCP, 4},
		{25, Method2DBoxUSEC, 1},
		{25, MethodExactQt, 0},
	}
	want := make([]*Result, len(jobs))
	for i, j := range jobs {
		w, err := Cluster(rows, Config{Eps: eps, MinPts: j.minPts, Method: j.method})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = w
	}
	var wg sync.WaitGroup
	errs := make(chan error, 2*len(jobs))
	for rep := 0; rep < 2; rep++ {
		for i, j := range jobs {
			wg.Add(1)
			go func(i int, j job) {
				defer wg.Done()
				got, err := c.Run(Config{MinPts: j.minPts, Method: j.method, Workers: j.workers})
				if err != nil {
					errs <- fmt.Errorf("job %d: %v", i, err)
					return
				}
				if err := labelsEqual(got, want[i]); err != nil {
					errs <- fmt.Errorf("job %d (%s minPts=%d): %v", i, j.method, j.minPts, err)
				}
			}(i, j)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := c.cells.builds.Load(); got != 2 {
		t.Errorf("builds = %d across 12 concurrent runs, want 2 (one per layout)", got)
	}
}

// memoTestPool returns a pool observing a fresh cancellable context.
func memoTestPool() (*parallel.Pool, context.CancelFunc) {
	ctx, cancel := context.WithCancel(context.Background())
	return parallel.NewPoolContext(ctx, 1), cancel
}

// TestMemoCancelledWaiterReturns: a request that finds its key's build in
// flight returns its own pool's error as soon as that pool is cancelled,
// while the build is still blocked, and the build is then kept for everyone
// else.
func TestMemoCancelledWaiterReturns(t *testing.T) {
	var m memo[int, string]
	started, release := make(chan struct{}), make(chan struct{})
	owner := make(chan error, 1)
	go func() {
		_, err := m.get(nil, 1, func() (string, error) {
			close(started)
			<-release
			return "built", nil
		})
		owner <- err
	}()
	<-started
	ex, cancel := memoTestPool()
	waiter := make(chan error, 1)
	go func() {
		_, err := m.get(ex, 1, func() (string, error) {
			t.Error("waiter claimed a build already in flight")
			return "", nil
		})
		waiter <- err
	}()
	select {
	case err := <-waiter:
		t.Fatalf("waiter returned before its pool was cancelled (err %v)", err)
	case <-time.After(10 * time.Millisecond): // it is waiting on the build
	}
	cancel()
	if err := <-waiter; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter: err = %v, want context.Canceled", err)
	}
	select {
	case err := <-owner:
		t.Fatalf("build settled before its release (err %v)", err)
	default:
	}
	close(release)
	if err := <-owner; err != nil {
		t.Fatal(err)
	}
	// A kept value is returned even on a cancelled pool.
	if v, err := m.get(ex, 1, nil); err != nil || v != "built" {
		t.Fatalf("kept value on a cancelled pool: %q, %v", v, err)
	}
}

// TestMemoKeysBuildSideBySide: the build of one key does not hold up the
// build of another.
func TestMemoKeysBuildSideBySide(t *testing.T) {
	var m memo[int, int]
	started, release := make(chan struct{}), make(chan struct{})
	first := make(chan error, 1)
	go func() {
		_, err := m.get(nil, 1, func() (int, error) {
			close(started)
			<-release
			return 1, nil
		})
		first <- err
	}()
	<-started
	if v, err := m.get(nil, 2, func() (int, error) { return 2, nil }); err != nil || v != 2 {
		t.Fatalf("second key while the first builds: %d, %v", v, err)
	}
	close(release)
	if err := <-first; err != nil {
		t.Fatal(err)
	}
	if got := m.builds.Load(); got != 2 {
		t.Fatalf("kept builds = %d, want 2", got)
	}
}

// TestMemoDiscardsFailedBuilds: an erroring build, a build whose pool is
// cancelled, and a panicking build are each discarded, and the next request
// builds again; a kept value never calls build again.
func TestMemoDiscardsFailedBuilds(t *testing.T) {
	var m memo[string, int]
	calls := 0
	ok := func() (int, error) { calls++; return 7, nil }
	fail := errors.New("build failed")
	if _, err := m.get(nil, "k", func() (int, error) { calls++; return 0, fail }); !errors.Is(err, fail) {
		t.Fatalf("erroring build: err = %v", err)
	}
	ex, cancel := memoTestPool()
	if _, err := m.get(ex, "k", func() (int, error) { calls++; cancel(); return 1, nil }); !errors.Is(err, context.Canceled) {
		t.Fatalf("build on a cancelled pool: err = %v", err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("panicking build did not panic")
			}
		}()
		m.get(nil, "k", func() (int, error) { calls++; panic("boom") })
	}()
	if n := len(m.entries); n != 0 || m.builds.Load() != 0 {
		t.Fatalf("failed builds left %d entries, %d kept", n, m.builds.Load())
	}
	if v, err := m.get(nil, "k", ok); err != nil || v != 7 {
		t.Fatalf("build after failures: %d, %v", v, err)
	}
	if v, err := m.get(nil, "k", ok); err != nil || v != 7 {
		t.Fatalf("kept value: %d, %v", v, err)
	}
	if calls != 4 || m.builds.Load() != 1 {
		t.Fatalf("build called %d times, %d kept; want 4 and 1", calls, m.builds.Load())
	}
}
