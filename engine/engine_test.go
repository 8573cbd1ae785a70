package engine

import (
	"context"
	"errors"
	"math/rand"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"pdbscan"
)

// genPoints returns n deterministic pseudo-random 2D points in a k-cluster
// layout (k Gaussian blobs plus background noise).
func genPoints(n int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	pts := make([][]float64, n)
	centers := [][2]float64{{0, 0}, {40, 5}, {10, 50}, {60, 60}}
	for i := range pts {
		if i%10 == 9 { // background noise
			pts[i] = []float64{rng.Float64() * 100, rng.Float64() * 100}
			continue
		}
		c := centers[i%len(centers)]
		pts[i] = []float64{c[0] + rng.NormFloat64()*2, c[1] + rng.NormFloat64()*2}
	}
	return pts
}

func mustClusterer(t *testing.T, pts [][]float64, eps float64) *pdbscan.Clusterer {
	t.Helper()
	c, err := pdbscan.NewClusterer(pts, eps)
	if err != nil {
		t.Fatalf("NewClusterer: %v", err)
	}
	return c
}

func sameResult(t *testing.T, got, want *pdbscan.Result, label string) {
	t.Helper()
	if got.NumClusters != want.NumClusters {
		t.Fatalf("%s: NumClusters = %d, want %d", label, got.NumClusters, want.NumClusters)
	}
	for i := range want.Labels {
		if got.Labels[i] != want.Labels[i] {
			t.Fatalf("%s: label[%d] = %d, want %d", label, i, got.Labels[i], want.Labels[i])
		}
	}
}

// TestEngineMixedConcurrent is the acceptance scenario: >= 8 concurrent
// mixed jobs (batch + streaming, distinct Workers caps) through one Engine
// under -race, with the running worker total never exceeding the shared
// budget, and every batch result identical to a direct run.
func TestEngineMixedConcurrent(t *testing.T) {
	const budget = 8
	e := New(Options{Budget: budget, MaxQueue: 64})
	defer e.Close()

	pts := genPoints(4000, 1)
	cfgBase := pdbscan.Config{Eps: 3, MinPts: 8}
	batch := []*pdbscan.Clusterer{
		mustClusterer(t, pts, 3),
		mustClusterer(t, genPoints(3000, 2), 3),
		mustClusterer(t, genPoints(2000, 3), 3),
	}
	want := make([]*pdbscan.Result, len(batch))
	for i, c := range batch {
		r, err := c.Run(cfgBase)
		if err != nil {
			t.Fatalf("direct run %d: %v", i, err)
		}
		want[i] = r
	}

	streams := make([]*pdbscan.StreamingClusterer, 2)
	for i := range streams {
		s, err := pdbscan.NewStreamingClusterer(2, 3)
		if err != nil {
			t.Fatalf("NewStreamingClusterer: %v", err)
		}
		if _, err := s.Insert(genPoints(1500, int64(10+i))); err != nil {
			t.Fatalf("Insert: %v", err)
		}
		streams[i] = s
	}

	// Budget-conformance sampler: the live WorkersInUse must never exceed
	// the budget (and never go negative) at any observable instant.
	stop := make(chan struct{})
	var violations atomic.Int64
	var sampled atomic.Int64
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
			}
			st := e.Stats()
			sampled.Add(1)
			if st.WorkersInUse > st.Budget || st.WorkersInUse < 0 {
				violations.Add(1)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}()

	// 12 mixed jobs with distinct caps; several rounds so jobs overlap,
	// queue, and recycle budget.
	var jobs []*Job
	for round := 0; round < 3; round++ {
		for i, c := range batch {
			cfg := cfgBase
			cfg.Workers = 1 + (i+round)%4 // distinct caps 1..4
			j, err := e.Submit(context.Background(), Request{Clusterer: c, Config: cfg})
			if err != nil {
				t.Fatalf("Submit batch: %v", err)
			}
			jobs = append(jobs, j)
		}
		for i, s := range streams {
			cfg := cfgBase
			cfg.Workers = 2 + i
			j, err := e.Submit(context.Background(), Request{Streaming: s, Config: cfg})
			if err != nil {
				t.Fatalf("Submit streaming: %v", err)
			}
			jobs = append(jobs, j)
		}
	}
	if len(jobs) < 8 {
		t.Fatalf("only %d jobs submitted", len(jobs))
	}
	for k, j := range jobs {
		if err := j.Err(); err != nil {
			t.Fatalf("job %d: %v", k, err)
		}
	}
	close(stop)
	if v := violations.Load(); v > 0 {
		t.Fatalf("budget exceeded in %d of %d samples", v, sampled.Load())
	}

	// Batch jobs must return exactly what a direct run returns.
	for k, j := range jobs {
		res, err := j.Result()
		if err != nil {
			t.Fatalf("job %d: %v", k, err)
		}
		if res == nil {
			if sr, _ := j.StreamResult(); sr == nil {
				t.Fatalf("job %d: no result of either kind", k)
			}
			continue
		}
		sameResult(t, res, want[k%5], "engine batch job")
	}

	st := e.Stats()
	if st.Completed != uint64(len(jobs)) {
		t.Fatalf("Completed = %d, want %d", st.Completed, len(jobs))
	}
	if st.Running != 0 || st.Queued != 0 || st.WorkersInUse != 0 {
		t.Fatalf("engine not drained: %+v", st)
	}
}

// saturate submits a whole-budget job on a large clusterer and returns its
// cancel func and job; until cancelled (or naturally finished, which the
// dataset size makes far slower than the test) it pins the entire budget.
func saturate(t *testing.T, e *Engine) (*Job, context.CancelFunc) {
	t.Helper()
	// MinPts far above any neighborhood size keeps core counting from
	// early-exiting, so the run blocks for tens of seconds unless cancelled
	// (and cancellation lands within milliseconds).
	c := mustClusterer(t, genPoints(300000, 99), 2)
	ctx, cancel := context.WithCancel(context.Background())
	j, err := e.Submit(ctx, Request{Clusterer: c, Config: pdbscan.Config{Eps: 2, MinPts: 200000}})
	if err != nil {
		t.Fatalf("Submit blocker: %v", err)
	}
	return j, cancel
}

func TestEnginePriorityOrder(t *testing.T) {
	e := New(Options{Budget: 2})
	defer e.Close()
	blocker, release := saturate(t, e)

	pts := genPoints(20000, 7)
	mk := func(prio int) *Job {
		c := mustClusterer(t, pts, 2)
		j, err := e.Submit(context.Background(), Request{
			Clusterer: c,
			Config:    pdbscan.Config{Eps: 2, MinPts: 10, Workers: 2},
			Priority:  prio,
		})
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		return j
	}
	low1 := mk(0)
	low2 := mk(0)
	high := mk(5)
	if q := e.Stats().Queued; q != 3 {
		t.Fatalf("Queued = %d, want 3 (blocker still running)", q)
	}
	release()
	if err := blocker.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("blocker err = %v, want context.Canceled", err)
	}
	for _, j := range []*Job{low1, low2, high} {
		if err := j.Err(); err != nil {
			t.Fatalf("job err: %v", err)
		}
	}
	// The blocker was dispatch 1; the high-priority job must start next,
	// then the equal-priority pair in FIFO order.
	hd, l1d, l2d := high.Stats().Dispatch, low1.Stats().Dispatch, low2.Stats().Dispatch
	if hd >= l1d || hd >= l2d {
		t.Fatalf("high-priority job was dispatch #%d, low jobs #%d / #%d — priority not honored", hd, l1d, l2d)
	}
	if l1d >= l2d {
		t.Fatalf("equal-priority jobs dispatched out of FIFO order: first was #%d, second #%d", l1d, l2d)
	}
}

// TestEngineDequeueDispatchesNewHead pins that removing a queued job (here
// by context cancellation) re-runs dispatch: a large head job blocking the
// queue is cancelled and the smaller job behind it must start against the
// free budget immediately, not wait for the running job to finish.
func TestEngineDequeueDispatchesNewHead(t *testing.T) {
	e := New(Options{Budget: 8})
	defer e.Close()
	big := mustClusterer(t, genPoints(300000, 98), 2)
	ctxB, cancelB := context.WithCancel(context.Background())
	defer cancelB()
	blocker, err := e.Submit(ctxB, Request{Clusterer: big, Config: pdbscan.Config{Eps: 2, MinPts: 200000, Workers: 6}})
	if err != nil {
		t.Fatalf("Submit blocker: %v", err)
	}
	// Head: wants the whole budget, cannot fit beside the blocker.
	ctx1, cancel1 := context.WithCancel(context.Background())
	defer cancel1()
	j1, err := e.Submit(ctx1, Request{Clusterer: big, Config: pdbscan.Config{Eps: 2, MinPts: 200000, Workers: 8}})
	if err != nil {
		t.Fatalf("Submit head: %v", err)
	}
	// Behind it: fits the free budget (8 - 6 = 2) but must not overtake.
	small := mustClusterer(t, genPoints(1000, 97), 2)
	j2, err := e.Submit(context.Background(), Request{Clusterer: small, Config: pdbscan.Config{Eps: 2, MinPts: 5, Workers: 2}})
	if err != nil {
		t.Fatalf("Submit small: %v", err)
	}
	if q := e.Stats().Queued; q != 2 {
		t.Fatalf("Queued = %d, want 2", q)
	}
	cancel1()
	if err := j1.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("head err = %v, want context.Canceled", err)
	}
	// Without the dispatch-on-dequeue, j2 idles until the blocker finishes
	// (which only its cancellation triggers here) — j2 completing now, while
	// the blocker still runs, is the regression signal.
	if err := j2.Err(); err != nil {
		t.Fatalf("small job err = %v", err)
	}
	if st := e.Stats(); st.Running != 1 {
		t.Fatalf("Running = %d after small job finished, want 1 (the blocker)", st.Running)
	}
	cancelB()
	if err := blocker.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("blocker err = %v", err)
	}
}

func TestEngineQueueFullAndTimeout(t *testing.T) {
	e := New(Options{Budget: 1, MaxQueue: 2, QueueTimeout: 50 * time.Millisecond})
	defer e.Close()
	blocker, release := saturate(t, e)
	defer release()

	c := mustClusterer(t, genPoints(500, 5), 2)
	cfg := pdbscan.Config{Eps: 2, MinPts: 5}
	j1, err := e.Submit(context.Background(), Request{Clusterer: c, Config: cfg})
	if err != nil {
		t.Fatalf("Submit 1: %v", err)
	}
	j2, err := e.Submit(context.Background(), Request{Clusterer: c, Config: cfg})
	if err != nil {
		t.Fatalf("Submit 2: %v", err)
	}
	if _, err := e.Submit(context.Background(), Request{Clusterer: c, Config: cfg}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("Submit over MaxQueue: err = %v, want ErrQueueFull", err)
	}
	// The queue is bounded and the budget pinned, so both queued jobs must
	// time out.
	if err := j1.Err(); !errors.Is(err, ErrQueueTimeout) {
		t.Fatalf("queued job 1 err = %v, want ErrQueueTimeout", err)
	}
	if err := j2.Err(); !errors.Is(err, ErrQueueTimeout) {
		t.Fatalf("queued job 2 err = %v, want ErrQueueTimeout", err)
	}
	st := e.Stats()
	if st.Rejected != 1 || st.TimedOut != 2 {
		t.Fatalf("Rejected/TimedOut = %d/%d, want 1/2", st.Rejected, st.TimedOut)
	}
	release()
	if err := blocker.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("blocker err = %v", err)
	}
}

func TestEngineCancelQueuedJob(t *testing.T) {
	e := New(Options{Budget: 1})
	defer e.Close()
	blocker, release := saturate(t, e)
	defer release()

	c := mustClusterer(t, genPoints(500, 6), 2)
	ctx, cancel := context.WithCancel(context.Background())
	j, err := e.Submit(ctx, Request{Clusterer: c, Config: pdbscan.Config{Eps: 2, MinPts: 5}})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	cancel()
	if err := j.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("queued job err = %v, want context.Canceled", err)
	}
	if got := e.Stats().Cancelled; got != 1 {
		t.Fatalf("Cancelled = %d, want 1", got)
	}
	release()
	blocker.Err()
}

func TestEngineSubmitValidation(t *testing.T) {
	e := New(Options{Budget: 2})
	defer e.Close()
	c := mustClusterer(t, genPoints(500, 8), 2)
	c3 := mustClusterer(t, [][]float64{{0, 0, 0}, {1, 1, 1}, {2, 0, 1}}, 2)
	s, _ := pdbscan.NewStreamingClusterer(2, 2)
	s3, _ := pdbscan.NewStreamingClusterer(3, 2)
	h, err := c.BuildHierarchy(5)
	if err != nil {
		t.Fatalf("BuildHierarchy: %v", err)
	}
	cases := []struct {
		name string
		req  Request
	}{
		{"no target", Request{Config: pdbscan.Config{Eps: 2, MinPts: 5}}},
		{"both targets", Request{Clusterer: c, Streaming: s, Config: pdbscan.Config{Eps: 2, MinPts: 5}}},
		{"all three targets", Request{Clusterer: c, Streaming: s, Hierarchy: h, Config: pdbscan.Config{Eps: 2, MinPts: 5}}},
		{"hierarchy plus clusterer", Request{Clusterer: c, Hierarchy: h, Config: pdbscan.Config{Eps: 2, MinPts: 5}}},
		{"hierarchy plus streaming", Request{Streaming: s, Hierarchy: h, Config: pdbscan.Config{Eps: 2, MinPts: 5}}},
		{"bad config", Request{Clusterer: c, Config: pdbscan.Config{Eps: 2, MinPts: 0}}},
		{"negative shards", Request{Clusterer: c, Config: pdbscan.Config{Eps: 2, MinPts: 5, Shards: -1}}},
		{"batch eps mismatch", Request{Clusterer: c, Config: pdbscan.Config{Eps: 3, MinPts: 5}}},
		{"batch 2D-only method on 3D", Request{Clusterer: c3, Config: pdbscan.Config{MinPts: 5, Method: pdbscan.Method2DGridUSEC}}},
		{"batch spill in memory", Request{Clusterer: c, Config: pdbscan.Config{MinPts: 5, Spill: true}}},
		{"hierarchy zero eps", Request{Hierarchy: h, Config: pdbscan.Config{Eps: 0}}},
		{"hierarchy eps beyond build", Request{Hierarchy: h, Config: pdbscan.Config{Eps: 2.5}}},
		{"hierarchy mismatched minpts", Request{Hierarchy: h, Config: pdbscan.Config{Eps: 1, MinPts: 7}}},
		{"hierarchy negative workers", Request{Hierarchy: h, Config: pdbscan.Config{Eps: 1, Workers: -1}}},
		{"streaming sampler", Request{Streaming: s, Config: pdbscan.Config{MinPts: 5, Sampler: pdbscan.SamplerUniform, SampleFrac: 0.5}}},
		{"streaming spill", Request{Streaming: s, Config: pdbscan.Config{MinPts: 5, Spill: true}}},
		{"streaming shards", Request{Streaming: s, Config: pdbscan.Config{MinPts: 5, Shards: 4}}},
		{"streaming eps mismatch", Request{Streaming: s, Config: pdbscan.Config{Eps: 3, MinPts: 5}}},
		{"streaming 2D-only method on 3D", Request{Streaming: s3, Config: pdbscan.Config{MinPts: 5, Method: pdbscan.Method2DGridUSEC}}},
	}
	for _, tc := range cases {
		if _, err := e.Submit(context.Background(), tc.req); err == nil {
			t.Errorf("%s: Submit accepted", tc.name)
		}
	}
	if got := e.Stats().Submitted; got != 0 {
		t.Fatalf("Submitted = %d after only invalid requests, want 0", got)
	}
}

func TestEngineClose(t *testing.T) {
	e := New(Options{Budget: 1})
	blocker, release := saturate(t, e)

	c := mustClusterer(t, genPoints(500, 9), 2)
	j, err := e.Submit(context.Background(), Request{Clusterer: c, Config: pdbscan.Config{Eps: 2, MinPts: 5}})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	// Close sweeps the queue before waiting on running jobs, so j completes
	// with ErrClosed while the blocker still occupies the budget. Releasing
	// the blocker only after that sweep is observed (j.Err unblocks) keeps
	// the dispatcher from starting j in the window before Close takes the
	// lock.
	done := make(chan struct{})
	go func() {
		e.Close()
		close(done)
	}()
	if err := j.Err(); !errors.Is(err, ErrClosed) {
		t.Fatalf("queued job err after Close = %v, want ErrClosed", err)
	}
	release() // Close waits for running jobs; unwind the blocker
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return")
	}
	if !errors.Is(blocker.Err(), context.Canceled) {
		t.Fatalf("blocker err = %v", blocker.Err())
	}
	if _, err := e.Submit(context.Background(), Request{Clusterer: c, Config: pdbscan.Config{Eps: 2, MinPts: 5}}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after Close: err = %v, want ErrClosed", err)
	}
	// Accounting: every admitted job landed in exactly one terminal counter
	// (the blocker in Cancelled, the dropped job in Closed).
	st := e.Stats()
	if st.Closed != 1 {
		t.Fatalf("Closed = %d, want 1", st.Closed)
	}
	if total := st.Completed + st.Cancelled + st.TimedOut + st.Closed + st.Failed; total != st.Submitted {
		t.Fatalf("terminal counters sum to %d, Submitted = %d", total, st.Submitted)
	}
}

// TestEngineStreamingDeadline exercises a streaming job with a per-job
// deadline long enough to complete, and one cancelled mid-run.
func TestEngineStreamingDeadline(t *testing.T) {
	e := New(Options{Budget: 2})
	defer e.Close()
	s, err := pdbscan.NewStreamingClusterer(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Insert(genPoints(2000, 11)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	j, err := e.Submit(ctx, Request{Streaming: s, Config: pdbscan.Config{Eps: 3, MinPts: 8}})
	if err != nil {
		t.Fatal(err)
	}
	sr, err := j.StreamResult()
	if err != nil {
		t.Fatalf("streaming job: %v", err)
	}
	if len(sr.Labels) != 2000 {
		t.Fatalf("streaming result has %d labels, want 2000", len(sr.Labels))
	}
}

// TestEngineHierarchySweep schedules an eps sweep as independent Hierarchy
// jobs on one shared dendrogram: every cut result must be identical to a
// direct CutEps at the same radius, MinPts may be left 0 (defaulted to the
// hierarchy's own), and the jobs run concurrently under the shared budget.
func TestEngineHierarchySweep(t *testing.T) {
	e := New(Options{Budget: 4, MaxQueue: 64})
	defer e.Close()
	c := mustClusterer(t, genPoints(3000, 12), 3)
	h, err := c.BuildHierarchy(5)
	if err != nil {
		t.Fatalf("BuildHierarchy: %v", err)
	}
	const sweeps = 16
	jobs := make([]*Job, sweeps)
	radii := make([]float64, sweeps)
	for i := range jobs {
		radii[i] = 3 * float64(i+1) / sweeps
		jobs[i], err = e.Submit(context.Background(), Request{
			Hierarchy: h,
			Config:    pdbscan.Config{Eps: radii[i], Workers: 2},
		})
		if err != nil {
			t.Fatalf("Submit cut %d: %v", i, err)
		}
	}
	for i, j := range jobs {
		got, err := j.Result()
		if err != nil {
			t.Fatalf("cut %d: %v", i, err)
		}
		want, err := h.CutEps(radii[i])
		if err != nil {
			t.Fatalf("direct CutEps(%g): %v", radii[i], err)
		}
		sameResult(t, got, want, "cut "+strconv.FormatFloat(radii[i], 'g', -1, 64))
	}
	// Explicitly matching MinPts is accepted too.
	j, err := e.Submit(context.Background(), Request{
		Hierarchy: h,
		Config:    pdbscan.Config{Eps: 1, MinPts: 5},
	})
	if err != nil {
		t.Fatalf("Submit with matching MinPts: %v", err)
	}
	if _, err := j.Result(); err != nil {
		t.Fatalf("matching-MinPts job: %v", err)
	}
	if st := e.Stats(); st.Completed != sweeps+1 {
		t.Fatalf("Completed = %d, want %d", st.Completed, sweeps+1)
	}
}
