package parallel

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestForCoversAllIndices(t *testing.T) {
	for _, n := range []int{0, 1, 7, 512, 513, 100000} {
		seen := make([]int32, n)
		For(n, func(i int) {
			atomic.AddInt32(&seen[i], 1)
		})
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("n=%d: index %d visited %d times", n, i, c)
			}
		}
	}
}

func TestBlockedForPartitions(t *testing.T) {
	n := 100001
	var total int64
	BlockedFor(n, 0, func(lo, hi int) {
		if lo < 0 || hi > n || lo > hi {
			t.Errorf("bad block [%d,%d)", lo, hi)
		}
		atomic.AddInt64(&total, int64(hi-lo))
	})
	if total != int64(n) {
		t.Fatalf("covered %d of %d iterations", total, n)
	}
}

func TestBlockedForIdxDistinctBlocks(t *testing.T) {
	n := 65537
	nb := NumBlocks(n, 0)
	counts := make([]int64, nb)
	BlockedForIdx(n, 0, func(b, lo, hi int) {
		atomic.AddInt64(&counts[b], int64(hi-lo))
	})
	var total int64
	for _, c := range counts {
		total += c
	}
	if total != int64(n) {
		t.Fatalf("blocks cover %d of %d", total, n)
	}
}

func TestPoolCapsBlocks(t *testing.T) {
	ex := NewPool(2)
	if w := ex.Workers(); w != 2 {
		t.Fatalf("Workers() = %d, want 2", w)
	}
	if nb := ex.NumBlocks(1<<20, 1); nb != 2 {
		t.Fatalf("NumBlocks = %d, want 2", nb)
	}
	// A nil pool tracks GOMAXPROCS; pools from non-positive budgets snapshot
	// it at construction. With GOMAXPROCS stable here, both report the same.
	for _, def := range []*Pool{nil, NewPool(0), NewPool(-3)} {
		if w := def.Workers(); w != runtime.GOMAXPROCS(0) {
			t.Fatalf("default pool Workers() = %d, want GOMAXPROCS", w)
		}
	}
}

func TestPoolBudgetSnapshotSurvivesGOMAXPROCSFlip(t *testing.T) {
	// Regression: a pool built under one GOMAXPROCS must keep that budget if
	// GOMAXPROCS changes mid-run. Before the snapshot fix, NumBlocks (used to
	// size per-block scratch) and a later BlockedForIdx re-read GOMAXPROCS
	// independently, so a flip between the two calls made BlockedForIdx hand
	// out block indices past the end of the scratch.
	old := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(old)

	runtime.GOMAXPROCS(2)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, ex := range []*Pool{NewPool(0), NewPoolContext(ctx, 0)} {
		nb := ex.NumBlocks(1<<20, 1)
		scratch := make([]int64, nb)

		runtime.GOMAXPROCS(8) // flips mid-run

		if w := ex.Workers(); w != 2 {
			t.Fatalf("Workers() = %d after GOMAXPROCS flip, want snapshotted 2", w)
		}
		if got := ex.NumBlocks(1<<20, 1); got != nb {
			t.Fatalf("NumBlocks = %d after flip, want %d", got, nb)
		}
		ex.BlockedForIdx(1<<20, 1, func(b, lo, hi int) {
			atomic.AddInt64(&scratch[b], int64(hi-lo)) // panics if b >= nb
		})
		var total int64
		for _, v := range scratch {
			total += v
		}
		if total != 1<<20 {
			t.Fatalf("blocks cover %d of %d after flip", total, 1<<20)
		}
		runtime.GOMAXPROCS(2)
	}
}

func TestReduceSafeUnderConcurrentGOMAXPROCSFlips(t *testing.T) {
	// The default (nil) pool stays dynamic, so Reduce* snapshot internally:
	// a GOMAXPROCS flip between their NumBlocks sizing and BlockedForIdx
	// writes must never corrupt or crash the reduction.
	old := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(old)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				runtime.GOMAXPROCS(1 + i%4)
			}
		}
	}()
	n := 1 << 16
	for iter := 0; iter < 100; iter++ {
		if got := ReduceInt(n, func(i int) int { return 1 }); got != n {
			t.Fatalf("iter %d: sum = %d, want %d", iter, got, n)
		}
	}
	close(stop)
	wg.Wait()
}

func TestBlockedForChunkedCoversDisjoint(t *testing.T) {
	// Force the chunk-claiming path (many grain-1 chunks, few workers) and
	// check the claimed chunks still tile [0, n) exactly once.
	ex := NewPool(4)
	n := 1 << 20
	seen := make([]int32, n)
	ex.BlockedFor(n, 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&seen[i], 1)
		}
	})
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("index %d visited %d times", i, c)
		}
	}
}

func TestPoolsAreIndependent(t *testing.T) {
	// Two pools used concurrently must each honor their own budget — the
	// property the old SetWorkers global could not provide.
	var wg sync.WaitGroup
	for _, w := range []int{1, 2, 3, 5} {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ex := NewPool(w)
			for iter := 0; iter < 50; iter++ {
				if nb := ex.NumBlocks(1<<20, 1); nb != w {
					t.Errorf("pool(%d): NumBlocks = %d", w, nb)
					return
				}
				var total int64
				ex.BlockedFor(100000, 0, func(lo, hi int) {
					atomic.AddInt64(&total, int64(hi-lo))
				})
				if total != 100000 {
					t.Errorf("pool(%d): covered %d iterations", w, total)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestPoolForCoversAllIndices(t *testing.T) {
	ex := NewPool(3)
	n := 4096
	seen := make([]int32, n)
	ex.For(n, func(i int) { atomic.AddInt32(&seen[i], 1) })
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("index %d visited %d times", i, c)
		}
	}
}

func TestDoRunsAll(t *testing.T) {
	var a, b, c int32
	Do(
		func() { atomic.AddInt32(&a, 1) },
		func() { atomic.AddInt32(&b, 1) },
		func() { atomic.AddInt32(&c, 1) },
	)
	if a != 1 || b != 1 || c != 1 {
		t.Fatalf("Do skipped a branch: %d %d %d", a, b, c)
	}
	Do() // must not hang
	ran := false
	Do(func() { ran = true })
	if !ran {
		t.Fatal("single-arg Do did not run")
	}
}

func TestDoNested(t *testing.T) {
	// Nested fork-join (divide and conquer) must not deadlock.
	var leaves int64
	var rec func(depth int)
	rec = func(depth int) {
		if depth == 0 {
			atomic.AddInt64(&leaves, 1)
			return
		}
		Do(func() { rec(depth - 1) }, func() { rec(depth - 1) })
	}
	rec(10)
	if leaves != 1024 {
		t.Fatalf("leaves = %d, want 1024", leaves)
	}
}

func TestReduceIntMatchesSerial(t *testing.T) {
	f := func(xs []int16) bool {
		want := 0
		for _, x := range xs {
			want += int(x)
		}
		got := ReduceInt(len(xs), func(i int) int { return int(xs[i]) })
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestReduceIntLarge(t *testing.T) {
	n := 1 << 20
	got := ReduceInt(n, func(i int) int { return 1 })
	if got != n {
		t.Fatalf("sum = %d, want %d", got, n)
	}
}
