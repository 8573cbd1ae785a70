// Package parallel provides the fork-join primitives that the rest of the
// library is written against. It plays the role that the Cilk Plus
// work-stealing runtime plays in the paper: a data-parallel "par-for" with
// automatic granularity, binary fork-join for divide-and-conquer algorithms,
// and parallel reductions.
//
// Parallelism is budgeted by an explicit executor, Pool. A Pool is an
// immutable worker-count hint created per clustering run and threaded through
// every parallel construct, so concurrent runs with different budgets never
// observe each other's scaling (there is no package-level mutable state). A
// nil *Pool is valid everywhere and means "use GOMAXPROCS"; the package-level
// function forms are shorthands for that default pool.
//
// A Pool may additionally carry a context.Context (NewPoolContext), making
// the whole run it is threaded through cooperatively cancellable: parallel
// loops check the context at grain boundaries — before each contiguous block,
// and periodically inside element-wise loops — and skip the remaining work
// once the context is done. Cancellation is monotone (once observed, every
// later check observes it), which gives callers a simple safety contract: a
// parallel construct on a cancelled pool may leave its outputs arbitrary, but
// any code that runs after it can detect the cancellation with Err() before
// consuming them. The per-element hot paths never pay more than an atomic
// load on the fast path.
//
// The scheduler spawns at most Workers() goroutines per loop. BlockedFor cuts
// the iteration space into grain-aligned chunks several times smaller than a
// worker's equal share and lets workers claim them off a shared atomic
// counter, so a straggler block (a skewed cell in a varden dataset) stalls
// one chunk, not one worker's whole share. BlockedForIdx and NumBlocks keep
// the static equal-block partition: multi-pass offset primitives size scratch
// by NumBlocks and index it by block, so their partition must be a pure
// function of (n, grain, workers). Nested parallel calls simply spawn more
// goroutines; the Go runtime multiplexes them onto GOMAXPROCS threads, which
// approximates the Brent-style W/P + D running time the paper's analysis
// assumes. Loops below a small grain run serially so that goroutine overhead
// never dominates (the coarse-granularity compensation called out in
// DESIGN.md).
//
// A panic inside a worker goroutine does not crash the process: it is
// recovered, wrapped in a *PanicError carrying the original value and stack,
// and re-panicked on the goroutine that invoked the parallel construct — from
// where it unwinds through nested constructs like any ordinary panic, so an
// API boundary can recover it once and surface it as an error.
package parallel

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool is an executor: an immutable parallelism budget for one clustering run
// (or any other unit of work). It carries no goroutines and no mutable
// scheduling state — it is only the worker-count hint every construct sizes
// its block partition by, plus an optional cancellation context — so Pools
// are safe to share, copy, and use from any number of goroutines, and two
// Pools never interfere with each other.
//
// The zero value and the nil pointer both mean "all available CPUs, never
// cancelled".
type Pool struct {
	workers int

	// done is the carried context's cancellation channel (nil: the pool is
	// not cancellable). observed caches the first observation of the closure
	// so that the per-iteration checks are one atomic load on the fast path
	// instead of a channel select.
	ctx      context.Context
	done     <-chan struct{}
	observed *atomic.Bool
}

// NewPool returns a Pool that caps every construct at p goroutines.
// p <= 0 snapshots runtime.GOMAXPROCS(0) at construction: the budget is
// pinned for the pool's lifetime, so every NumBlocks / BlockedForIdx pair on
// the pool agrees on the block count even if GOMAXPROCS changes mid-run.
// (Only a nil *Pool — the package default — tracks GOMAXPROCS dynamically.)
func NewPool(p int) *Pool {
	if p <= 0 {
		p = runtime.GOMAXPROCS(0)
	}
	return &Pool{workers: p}
}

// NewPoolContext returns a Pool that caps every construct at p goroutines
// (p <= 0: GOMAXPROCS, snapshotted at construction like NewPool) and
// observes ctx: once ctx is done, every parallel construct on the pool skips
// its remaining blocks and Err() reports ctx.Err(). A nil or non-cancellable
// ctx (ctx.Done() == nil, e.g. context.Background()) yields a plain budget
// pool, identical to NewPool(p).
func NewPoolContext(ctx context.Context, p int) *Pool {
	if ctx == nil || ctx.Done() == nil {
		return NewPool(p)
	}
	if p <= 0 {
		p = runtime.GOMAXPROCS(0)
	}
	return &Pool{workers: p, ctx: ctx, done: ctx.Done(), observed: &atomic.Bool{}}
}

// snapshot returns a pool whose worker budget is pinned for its lifetime.
// Pools from NewPool/NewPoolContext already are; only a nil (default) pool
// needs pinning, which here costs one GOMAXPROCS read. Primitives that pair
// a NumBlocks-sized scratch with a later BlockedForIdx call snapshot first,
// so the two calls cannot disagree on the block count.
func (ex *Pool) snapshot() *Pool {
	if ex != nil {
		return ex
	}
	return &Pool{workers: runtime.GOMAXPROCS(0)}
}

// Cancelled reports whether the pool's context is done. Nil-safe; a pool
// without a context is never cancelled. The fast path (after the first
// observation, and for context-free pools) is at most one atomic load, so
// per-cell loops can afford to call it every iteration.
func (ex *Pool) Cancelled() bool {
	if ex == nil || ex.done == nil {
		return false
	}
	if ex.observed.Load() {
		return true
	}
	select {
	case <-ex.done:
		ex.observed.Store(true)
		return true
	default:
		return false
	}
}

// Err returns the pool context's error once the pool is cancelled, nil
// otherwise. Nil-safe. Phases call it at their boundaries to unwind a
// cancelled run promptly: a non-nil Err after a parallel construct also
// signals that the construct may have skipped blocks and its outputs must
// not be consumed.
func (ex *Pool) Err() error {
	if !ex.Cancelled() {
		return nil
	}
	return ex.ctx.Err()
}

// Done returns the pool context's cancellation channel, or nil for a pool
// with no context (a nil channel blocks forever in a select, which is the
// correct behavior for a never-cancelled pool). Callers that wait on events
// other than the pool's own loops — e.g. another run's in-flight structure
// build — select on it so cancellation stays prompt while blocked.
func (ex *Pool) Done() <-chan struct{} {
	if ex == nil {
		return nil
	}
	return ex.done
}

// PanicError wraps a panic recovered from a worker goroutine of a parallel
// construct. It unwinds to the construct's caller as a panic value and is
// converted to an ordinary error at the library's API boundaries, so a bug
// in a parallel phase surfaces from the run instead of crashing the process.
type PanicError struct {
	// Value is the original panic value.
	Value any
	// Stack is the stack trace of the panicking worker goroutine.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("parallel: worker panic: %v\n%s", e.Value, e.Stack)
}

// panicSlot collects the first worker panic of one parallel construct.
type panicSlot struct {
	mu  sync.Mutex
	val *PanicError
}

// capture recovers a worker panic into the slot (first panic wins). Call via
// defer. A *PanicError re-panicked by a nested construct is forwarded as-is,
// keeping the innermost stack.
func (ps *panicSlot) capture() {
	r := recover()
	if r == nil {
		return
	}
	pe, ok := r.(*PanicError)
	if !ok {
		buf := make([]byte, 16<<10)
		pe = &PanicError{Value: r, Stack: buf[:runtime.Stack(buf, false)]}
	}
	ps.mu.Lock()
	if ps.val == nil {
		ps.val = pe
	}
	ps.mu.Unlock()
}

// rethrow re-panics the captured worker panic, if any, on the caller's
// goroutine. Call after the construct's WaitGroup has drained.
func (ps *panicSlot) rethrow() {
	if ps.val != nil {
		panic(ps.val)
	}
}

// Default returns the default executor: a nil Pool, whose budget tracks
// runtime.GOMAXPROCS(0). It exists to make call sites that deliberately use
// the default read better than a bare nil.
func Default() *Pool { return nil }

// Workers reports the number of goroutines a parallel loop on this pool may
// use. Pools built by NewPool / NewPoolContext report their snapshotted
// budget; a nil (or zero-value) Pool reports GOMAXPROCS at each call.
func (ex *Pool) Workers() int {
	if ex != nil && ex.workers > 0 {
		return ex.workers
	}
	return runtime.GOMAXPROCS(0)
}

// minGrain is the smallest per-goroutine block for element-wise loops.
// Below this, spawning is not worth it.
const minGrain = 512

// cancelStride is how many iterations an element-wise loop on a cancellable
// pool runs between cancellation checks. The check is an atomic load on the
// fast path; 64 iterations amortize even that to noise while keeping the
// worst-case cancellation latency of a loop at 64 body calls per worker.
const cancelStride = 64

// For runs f(i) for every i in [0, n) in parallel. The iteration space is cut
// into contiguous blocks; f must be safe to call concurrently for distinct i.
func (ex *Pool) For(n int, f func(i int)) {
	ex.ForGrain(n, 0, f)
}

// ForGrain is For with an explicit minimum grain (iterations per goroutine).
// grain <= 0 selects a default that keeps per-goroutine work above minGrain
// while using all workers on large inputs.
//
// On a cancellable pool the element loop checks the context every
// cancelStride iterations and stops early once it is done (grain-boundary
// cooperative cancellation); see the package comment for the consumption
// contract.
func (ex *Pool) ForGrain(n, grain int, f func(i int)) {
	if ex != nil && ex.done != nil {
		ex.BlockedFor(n, grain, func(lo, hi int) {
			// Strided: one cancellation check per cancelStride elements, with
			// no modulo in the element loop itself.
			for i := lo; i < hi; {
				if ex.Cancelled() {
					return
				}
				end := i + cancelStride
				if end > hi {
					end = hi
				}
				for ; i < end; i++ {
					f(i)
				}
			}
		})
		return
	}
	ex.BlockedFor(n, grain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			f(i)
		}
	})
}

// chunkOversub is how many chunks BlockedFor aims to hand each worker. More
// chunks mean finer load balancing on skewed per-element costs (varden cell
// loads); fewer mean less claim traffic and fewer body invocations (bodies
// often check out pooled scratch per call). 16 keeps the claim counter cold
// while bounding the straggler penalty at ~1/16 of a worker's share.
const chunkOversub = 16

// BlockedFor partitions [0, n) into contiguous [lo, hi) blocks and runs
// body(lo, hi) for each block in parallel. This is the workhorse used by the
// primitives: it exposes the block structure so callers can keep per-block
// state (histograms, partial sums) without false sharing.
//
// Scheduling is dynamic: the space is cut into grain-aligned chunks roughly
// chunkOversub times smaller than a worker's equal share, and at most
// Workers() goroutines claim chunks off a shared atomic counter until none
// remain. A body whose per-element cost is skewed (one dense cell among
// thousands of sparse ones) therefore delays one chunk, not the whole share
// of the worker it landed on. Blocks are still contiguous and disjoint and
// cover [0, n); only their number and assignment to goroutines differ from
// the static NumBlocks partition, which BlockedForIdx keeps.
//
// On a cancellable pool each chunk checks the context once before running and
// the construct stops claiming once it is done. Because cancellation is
// monotone — observing it sets a flag every later check reads — a multi-pass
// primitive stays index-safe: if any chunk of an earlier pass was skipped,
// every chunk of a later pass observes the cancellation and skips too, so
// offsets derived from a partial pass are never used for writes.
func (ex *Pool) BlockedFor(n, grain int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	p := ex.Workers()
	if grain <= 0 {
		grain = minGrain
	}
	nblocks := (n + grain - 1) / grain
	if nblocks > p {
		nblocks = p
	}
	if nblocks <= 1 {
		if ex.Cancelled() {
			return
		}
		body(0, n)
		return
	}
	chunk := (n + nblocks*chunkOversub - 1) / (nblocks * chunkOversub)
	if chunk < grain {
		chunk = grain
	}
	nchunks := (n + chunk - 1) / chunk
	if nchunks <= nblocks {
		// Not enough chunks to rebalance: fall back to the static equal
		// split, one goroutine per block, as before.
		bsize := (n + nblocks - 1) / nblocks
		var wg sync.WaitGroup
		var ps panicSlot
		for b := 0; b < nblocks; b++ {
			lo := b * bsize
			hi := lo + bsize
			if hi > n {
				hi = n
			}
			if lo >= hi {
				break
			}
			wg.Add(1)
			go func(lo, hi int) {
				defer wg.Done()
				defer ps.capture()
				if ex.Cancelled() {
					return
				}
				body(lo, hi)
			}(lo, hi)
		}
		wg.Wait()
		ps.rethrow()
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	var ps panicSlot
	wg.Add(nblocks)
	for w := 0; w < nblocks; w++ {
		go func() {
			defer wg.Done()
			defer ps.capture()
			for {
				t := int(next.Add(1)) - 1
				if t >= nchunks || ex.Cancelled() {
					return
				}
				lo := t * chunk
				hi := lo + chunk
				if hi > n {
					hi = n
				}
				body(lo, hi)
			}
		}()
	}
	wg.Wait()
	ps.rethrow()
}

// NumBlocks reports the static block count BlockedForIdx uses for n items
// with the given grain, so callers can pre-size per-block scratch arrays.
// The count is a pure function of (n, grain, Workers()); on pools from
// NewPool / NewPoolContext the budget is snapshotted, so a NumBlocks-sized
// scratch always matches a later BlockedForIdx on the same pool.
func (ex *Pool) NumBlocks(n, grain int) int {
	if n <= 0 {
		return 0
	}
	p := ex.Workers()
	if grain <= 0 {
		grain = minGrain
	}
	nblocks := (n + grain - 1) / grain
	if nblocks > p {
		nblocks = p
	}
	if nblocks < 1 {
		nblocks = 1
	}
	return nblocks
}

// BlockedForIdx is the statically-partitioned variant of BlockedFor: exactly
// NumBlocks(n, grain) equal contiguous blocks, one goroutine each, with the
// block index passed to the body. Callers that write into per-block scratch
// slots (multi-pass offset primitives) rely on this partition being a pure
// function of (n, grain, Workers()), so it does not use chunk claiming.
func (ex *Pool) BlockedForIdx(n, grain int, body func(b, lo, hi int)) {
	if n <= 0 {
		return
	}
	nblocks := ex.NumBlocks(n, grain)
	if nblocks == 1 {
		if ex.Cancelled() {
			return
		}
		body(0, 0, n)
		return
	}
	bsize := (n + nblocks - 1) / nblocks
	var wg sync.WaitGroup
	var ps panicSlot
	for b := 0; b < nblocks; b++ {
		lo := b * bsize
		hi := lo + bsize
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(b, lo, hi int) {
			defer wg.Done()
			defer ps.capture()
			if ex.Cancelled() {
				return
			}
			body(b, lo, hi)
		}(b, lo, hi)
	}
	wg.Wait()
	ps.rethrow()
}

// ReduceInt computes the sum over i in [0, n) of f(i) with a parallel
// block-level reduction.
func (ex *Pool) ReduceInt(n int, f func(i int) int) int {
	ex = ex.snapshot()
	nb := ex.NumBlocks(n, 0)
	if nb == 0 {
		return 0
	}
	partial := make([]int, nb)
	ex.BlockedForIdx(n, 0, func(b, lo, hi int) {
		s := 0
		for i := lo; i < hi; i++ {
			s += f(i)
		}
		partial[b] = s
	})
	total := 0
	for _, s := range partial {
		total += s
	}
	return total
}

// Do runs the given functions in parallel and waits for all of them. It is
// the binary (n-ary) fork of fork-join divide-and-conquer algorithms. Forks
// are unconditional (callers bound recursion depth with a worker budget), so
// Do needs no pool. A panic in a forked function is recovered and re-panicked
// on the calling goroutine after all forks have finished (a panic in the
// inline function propagates natively, after the forked ones drain).
func Do(fs ...func()) {
	switch len(fs) {
	case 0:
		return
	case 1:
		fs[0]()
		return
	case 2:
		// Common case: run one half inline to halve goroutine count.
		var wg sync.WaitGroup
		var ps panicSlot
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer ps.capture()
			fs[0]()
		}()
		defer func() {
			wg.Wait()
			ps.rethrow()
		}()
		fs[1]()
		return
	}
	var wg sync.WaitGroup
	var ps panicSlot
	wg.Add(len(fs) - 1)
	for _, f := range fs[:len(fs)-1] {
		go func(f func()) {
			defer wg.Done()
			defer ps.capture()
			f()
		}(f)
	}
	defer func() {
		wg.Wait()
		ps.rethrow()
	}()
	fs[len(fs)-1]()
}

// Package-level shorthands for the default (GOMAXPROCS) pool, for code with
// no per-call budget to honor: tests, benchmarks, and one-off tools.

// For runs f(i) for every i in [0, n) on the default pool.
func For(n int, f func(i int)) { Default().For(n, f) }

// ForGrain is For with an explicit minimum grain, on the default pool.
func ForGrain(n, grain int, f func(i int)) { Default().ForGrain(n, grain, f) }

// BlockedFor runs body over contiguous blocks of [0, n) on the default pool.
func BlockedFor(n, grain int, body func(lo, hi int)) { Default().BlockedFor(n, grain, body) }

// BlockedForIdx is BlockedFor with the block index, on the default pool.
func BlockedForIdx(n, grain int, body func(b, lo, hi int)) {
	Default().BlockedForIdx(n, grain, body)
}

// NumBlocks reports the default pool's block count for n items.
func NumBlocks(n, grain int) int { return Default().NumBlocks(n, grain) }

// ReduceInt sums f(i) over [0, n) on the default pool.
func ReduceInt(n int, f func(i int) int) int { return Default().ReduceInt(n, f) }

// Workers reports the default pool's worker budget (GOMAXPROCS).
func Workers() int { return Default().Workers() }
