package main

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"slices"
	"sync"
	"syscall"
	"time"
)

// bench carries one workload run: its settings, the untraced samples, the
// tracer, the counts and the failures.
type bench struct {
	name    string
	seed    int64
	seconds time.Duration
	trace   bool
	scale   float64
	dir     string // scratch directory inside the checkout, removed at exit
	log     io.Writer

	mu        sync.Mutex // guards the fields below against concurrent clients
	setups    []time.Duration
	ops       []time.Duration // untraced op latencies
	tracedOps []time.Duration // traced op latencies (timed parts only)
	attempted int
	failed    int
	problems  []string // correctness errors not tied to one op

	tr     *tracer
	counts map[string]float64 // per-layer counts; must repeat exactly
	extra  map[string]float64 // other per-layer values set directly
	prov   map[string]any
}

func newBench(name string, seed int64, seconds time.Duration, trace bool, scale float64, dir string, log io.Writer) *bench {
	return &bench{
		name: name, seed: seed, seconds: seconds, trace: trace, scale: scale, dir: dir, log: log,
		tr:     newTracer(),
		counts: map[string]float64{},
		extra:  map[string]float64{},
		prov:   map[string]any{},
	}
}

// size scales a workload's point count for small runs, never below floor.
func (b *bench) size(n, floor int) int {
	return max(int(math.Round(float64(n)*b.scale)), min(n, floor))
}

// opDone records the outcome of one attempted op. A failed op is logged
// (the first few only) and its latency is not kept.
func (b *bench) opDone(traced bool, lat time.Duration, err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.attempted++
	if err != nil {
		b.failed++
		if b.failed <= 5 {
			fmt.Fprintf(b.log, "perfbench: %s: op failed: %v\n", b.name, err)
		}
		return
	}
	if traced {
		b.tracedOps = append(b.tracedOps, lat)
	} else {
		b.ops = append(b.ops, lat)
	}
}

// problem records a correctness error that is not one op's failure: a count
// that did not repeat, a trace that does not account for its op.
func (b *bench) problem(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.problems) < 20 {
		b.problems = append(b.problems, msg)
	}
	fmt.Fprintf(b.log, "perfbench: %s: %s\n", b.name, msg)
}

// count records a per-layer count. Counts depend only on the seed, so a
// second record of the same count with another value is a benchmark error.
func (b *bench) count(name string, v float64) {
	if !countMetrics[name] {
		panic("perfbench: " + name + " is not a count metric")
	}
	b.mu.Lock()
	old, seen := b.counts[name]
	if !seen {
		b.counts[name] = v
	}
	b.mu.Unlock()
	if seen && old != v {
		b.problem("count %s did not repeat: %v, then %v", name, old, v)
	}
}

// plan returns how many public set-ups to run and how long to run untraced
// ops. An untraced run times setups set-ups and spends all its seconds on
// ops. A traced run needs one untimed public set-up and a third of its
// seconds for the untraced ops the tracing overhead is measured against;
// the traced segment takes the rest (tracedSegment) and times its own
// set-ups.
func (b *bench) plan(setups int) (int, time.Duration) {
	if b.trace {
		return 1, b.seconds / 3
	}
	return setups, b.seconds
}

func (b *bench) tracedSegment() time.Duration { return b.seconds - b.seconds/3 }

// setupDone records a public set-up's time; a traced run does not time them.
func (b *bench) setupDone(start time.Time) {
	if !b.trace {
		b.setups = append(b.setups, time.Since(start))
	}
}

// loop runs op until d has passed and at least minOps ops were attempted.
func loop(d time.Duration, minOps int, op func(i int)) int {
	start := time.Now()
	i := 0
	for ; i < minOps || time.Since(start) < d; i++ {
		op(i)
	}
	return i
}

// freshHeap collects the garbage of the previous set-up, so a timed set-up
// that follows does not pay for it. The freed memory stays mapped: returning
// it to the OS would make every set-up pay for page faults, whose cost on a
// virtual machine swings more than the work being measured.
func freshHeap() { runtime.GC() }

// memSample brackets a segment of ops to report allocation and GC per op.
type memSample struct{ alloc, gcs uint64 }

func readMem() memSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memSample{ms.TotalAlloc, uint64(ms.NumGC)}
}

// perOp sets runtime.alloc_mb_per_op and runtime.gc_per_op from the
// difference between two samples over ops operations.
func (b *bench) perOp(from, to memSample, ops int) {
	if ops <= 0 {
		return
	}
	b.extra["runtime.alloc_mb_per_op"] = float64(to.alloc-from.alloc) / (1 << 20) / float64(ops)
	b.extra["runtime.gc_per_op"] = float64(to.gcs-from.gcs) / float64(ops)
}

// layerValues merges the traced layer self times, the counts and the other
// directly set values into the per-layer metric map. The tracing overhead is
// the traced op median minus the untraced one.
func (b *bench) layerValues() map[string]float64 {
	out := b.tr.layerMedians(b)
	for k, v := range b.counts {
		out[k] = v
	}
	for k, v := range b.extra {
		out[k] = v
	}
	if len(b.ops) > 0 && len(b.tracedOps) > 0 {
		out["trace.overhead_ms"] = ms(percentile(b.tracedOps, 50)) - ms(percentile(b.ops, 50))
		b.prov["untraced_op_p50_ms"] = ms(percentile(b.ops, 50))
		b.prov["traced_op_p50_ms"] = ms(percentile(b.tracedOps, 50))
	}
	return out
}

func (b *bench) failedFrac() float64 {
	if b.attempted == 0 {
		return 0
	}
	return float64(b.failed) / float64(b.attempted)
}

// percentile interpolates linearly between the closest ranks; 0 for no
// samples.
func percentile(xs []time.Duration, p float64) time.Duration {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return s[lo] + time.Duration(frac*float64(s[hi]-s[lo]))
}

func median(xs []time.Duration) time.Duration { return percentile(xs, 50) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// peakRSSMiB returns the process's peak resident set size so far.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func mib(bytes int64) float64 { return float64(bytes) / (1 << 20) }
