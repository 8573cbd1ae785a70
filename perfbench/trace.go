package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"

	"pdbscan/internal/core"
)

// span is one traced interval. Spans of one op (or one set-up) share Op and
// form a tree through Parent; the root of each tree has Parent -1.
type span struct {
	Name   string `json:"name"`
	Op     string `json:"op"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
	Kind   string `json:"kind,omitempty"`
}

// Span kinds. A plain span (kind "") brackets one call into a layer and is
// timed around it.
const (
	// kindPhase marks a PhaseHook event: it runs from one hook call to the
	// next (or to its entry point's return). Markers document where the
	// pipeline announced its phases and take no part in self times;
	// RunOutOfCore announces mark, graph and border per window turn only, so
	// its markers also cover the window set-up in between.
	kindPhase = "phase"
	// kindTimings is a pipeline phase whose duration is the entry point's
	// core.Params.Timings field. The phases are laid end to end from the
	// entry's start; their positions are nominal, their durations measured.
	kindTimings = "timings"
	// kindStats is a duration a dbscand response reports in its stats
	// (queue wait, run), placed at the start of the request that carried it.
	kindStats = "stats"
	// kindBench is the benchmark's own untimed work inside an op (decoding
	// and checking a response); it is not part of the op's latency.
	kindBench = "bench"
)

// layerMetric maps a span name to the per-layer metric its self time feeds.
// The root spans ("op", "setup") feed none: their self time is time no layer
// claims, which must stay near zero.
var layerMetric = map[string]string{
	"grid.BuildGrid":            "grid.build_ms",
	"grid.ComputeNeighborsEnum": "grid.neighbors_ms",
	"grid.MakePartition":        "grid.partition_ms",
	"grid.Dynamic.Snapshot":     "grid.snapshot_ms",
	"core.Run":                  "core.other_ms",
	"core.RunSharded":           "core.other_ms",
	"core.RunIncremental":       "core.other_ms",
	"core.RunOutOfCore":         "core.other_ms",
	"core.mark":                 "core.mark_ms",
	"core.collect":              "core.collect_ms",
	"core.graph":                "core.graph_ms",
	"core.merge":                "core.merge_ms",
	"core.label":                "core.label_ms",
	"core.border":               "core.border_ms",
	"pdbscan.insert":            "pdbscan.insert_ms",
	"pdbscan.window":            "pdbscan.window_ms",
	"pdbscan.result":            "pdbscan.result_ms",
	"cellstore.Write":           "cellstore.write_ms",
	"cellstore.Open":            "cellstore.open_ms",
	"serve.create":              "serve.create_ms",
	"serve.run":                 "serve.result_ms",
	"serve.delete":              "serve.delete_ms",
	"engine.queue":              "engine.queue_ms",
	"engine.run":                "engine.run_ms",
}

// tracer keeps every span in memory until the run ends. It is safe for
// concurrent use; each op records through its own tracerAt. Spans live in
// fixed-size chunks, so recording one never copies the ones before it: a
// growing flat slice would stall inside an op once per doubling.
type tracer struct {
	t0     time.Time
	mu     sync.Mutex
	chunks [][]span
	spare  []span // the next chunk, allocated ahead of need
	n      int    // spans recorded
	ops    int
}

const spanChunk = 4096

// at returns span i; the caller holds t.mu.
func (t *tracer) at(i int) *span { return &t.chunks[i/spanChunk][i%spanChunk] }

// all returns a copy of every span in order.
func (t *tracer) all() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, t.n)
	for _, c := range t.chunks {
		out = append(out, c...)
	}
	return out
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), chunks: [][]span{make([]span, 0, spanChunk)}}
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) add(s span) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.chunks[len(t.chunks)-1]) == spanChunk {
		next := t.spare
		if next == nil {
			next = make([]span, 0, spanChunk)
		}
		t.chunks, t.spare = append(t.chunks, next), nil
	}
	last := len(t.chunks) - 1
	t.chunks[last] = append(t.chunks[last], s)
	t.n++
	return t.n - 1
}

// begin opens a child span of parent.
func (t *tracer) begin(parent int, name, kind string) int {
	t.mu.Lock()
	op := t.at(parent).Op
	t.mu.Unlock()
	return t.add(span{Name: name, Op: op, Parent: parent, Start: t.now(), Kind: kind})
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.at(id)
	s.End = now
	return time.Duration(s.End - s.Start)
}

// child adds a finished child span of the given duration at offset from
// its parent's start (stats and timings spans, whose durations are reported
// rather than observed).
func (t *tracer) child(parent int, name, kind string, offset, d time.Duration) {
	t.mu.Lock()
	p := *t.at(parent)
	t.mu.Unlock()
	start := p.Start + int64(offset)
	t.add(span{Name: name, Op: p.Op, Parent: parent, Start: start, End: start + int64(d), Kind: kind})
}

// tracerAt is one traced op (or set-up): its root span and the time its
// untimed bench spans took. A nil *tracerAt runs its calls untraced, so one
// code path serves the traced and untraced ops.
type tracerAt struct {
	tr    *tracer
	root  int
	bench time.Duration
}

// op opens the root span of a new op ("op") or set-up ("setup").
func (t *tracer) op(kind string) *tracerAt {
	t.mu.Lock()
	id := fmt.Sprintf("%s%d", kind, t.ops)
	t.ops++
	// Allocate the next chunk here, between ops, once the current one is
	// half full; add only switches to it.
	if t.spare == nil && t.n%spanChunk >= spanChunk/2 {
		t.spare = make([]span, 0, spanChunk)
	}
	t.mu.Unlock()
	return &tracerAt{tr: t, root: t.add(span{Name: kind, Op: id, Parent: -1, Start: t.now()})}
}

// end closes the op and returns its latency: the root's duration minus the
// benchmark's own untimed work inside it.
func (a *tracerAt) end() time.Duration { return a.tr.end(a.root) - a.bench }

// call runs f inside a plain span named name under the root and returns
// the span's index (-1 untraced).
func (a *tracerAt) call(name string, f func()) int {
	if a == nil {
		f()
		return -1
	}
	id := a.tr.begin(a.root, name, "")
	f()
	a.tr.end(id)
	return id
}

// untimed runs f inside a bench span: the benchmark's own work inside the
// op, not part of its latency.
func (a *tracerAt) untimed(f func()) {
	if a == nil {
		f()
		return
	}
	id := a.tr.begin(a.root, "bench", kindBench)
	f()
	a.bench += a.tr.end(id)
}

// coreCall traces one call into a core entry point: f makes the call with
// p, whose Timings and PhaseHook coreCall sets. The span named name brackets
// f; each announced phase gets a marker span inside it, and each phase
// duration p.Timings receives becomes a timings child. The entry span's self
// time is then the entry's wall time minus the sum of its phases: the
// remainder, core.other_ms, which is never folded into a phase.
func (a *tracerAt) coreCall(b *bench, name string, p *core.Params, f func()) {
	t := a.tr
	var tm core.PhaseTimings
	id := t.begin(a.root, name, "")
	marker := -1
	closeMarker := func() {
		if marker >= 0 {
			t.end(marker)
			marker = -1
		}
	}
	p.Timings = &tm
	p.PhaseHook = func(phase string) {
		closeMarker()
		if phase != "done" {
			marker = t.begin(id, "core.phase."+phase, kindPhase)
		}
	}
	f()
	closeMarker()
	wall := t.end(id)
	phases := []struct {
		name string
		d    time.Duration
	}{
		{"core.mark", tm.Mark}, {"core.collect", tm.Collect}, {"core.graph", tm.Graph},
		{"core.merge", tm.Merge}, {"core.label", tm.Label}, {"core.border", tm.Border},
	}
	var off time.Duration
	for _, ph := range phases {
		if ph.d > 0 {
			t.child(id, ph.name, kindTimings, off, ph.d)
			off += ph.d
		}
	}
	// Phase clocks start and stop inside the entry point's own span, so
	// their sum cannot exceed it by more than clock granularity.
	if off > wall+50*time.Microsecond {
		b.problem("%s: phase timings sum to %v, more than the call's %v", name, off, wall)
	}
}

// layerMedians computes every op's self time per layer and returns, per
// layer metric, the median over ops (over set-ups for layers that only run
// during set-up), in milliseconds. It also checks that the layer self times
// account for the traced latency: the roots' own self time — time inside an
// op that no layer span claims — must stay within 1% of the ops' latency plus
// 50µs per op, summed over the ops (or set-ups) of a run.
func (t *tracer) layerMedians(b *bench) map[string]float64 {
	spans := t.all()
	childSum := make([]int64, len(spans))
	benchSum := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 && s.Kind != kindPhase {
			childSum[s.Parent] += s.End - s.Start
		}
		if s.Parent >= 0 && s.Kind == kindBench {
			benchSum[s.Parent] += s.End - s.Start
		}
	}
	type opLayers struct {
		root   string
		layers map[string]time.Duration
	}
	byOp := map[string]*opLayers{}
	var ops []*opLayers // in recording order
	var worstGap float64
	gap := map[string]int64{} // root name -> summed self time of its roots
	latency := map[string]int64{}
	roots := map[string]int64{}
	for i, s := range spans {
		if s.Kind == kindPhase || s.Kind == kindBench {
			continue
		}
		self := s.End - s.Start - childSum[i]
		if self < -int64(50*time.Microsecond) {
			b.problem("span %s of %s: children outlast it by %v", s.Name, s.Op, time.Duration(-self))
		}
		if s.Parent < 0 {
			ol := &opLayers{root: s.Name, layers: map[string]time.Duration{}}
			byOp[s.Op] = ol
			ops = append(ops, ol)
			lat := s.End - s.Start - benchSum[i]
			gap[s.Name] += self
			latency[s.Name] += lat
			roots[s.Name]++
			if lat > 0 {
				worstGap = max(worstGap, float64(self)/float64(lat))
			}
			continue
		}
		if m, ok := layerMetric[s.Name]; ok {
			byOp[s.Op].layers[m] += time.Duration(self)
		}
	}
	for root, g := range gap {
		if float64(g) > 0.01*float64(latency[root])+float64(roots[root]*int64(50*time.Microsecond)) {
			b.problem("%v of the traced %ss' %v is outside every layer span", time.Duration(g), root, time.Duration(latency[root]))
		}
	}
	if latency["op"] > 0 {
		b.prov["trace_unattributed_frac"] = float64(gap["op"]) / float64(latency["op"])
	}
	b.prov["trace_max_unattributed_frac"] = worstGap

	// Per layer: the op group if any op ran the layer, else the set-ups.
	out := map[string]float64{}
	for _, group := range []string{"setup", "op"} {
		ran := map[string]bool{}
		var members []*opLayers
		for _, ol := range ops {
			if ol.root == group {
				members = append(members, ol)
				for m := range ol.layers {
					ran[m] = true
				}
			}
		}
		for m := range ran {
			vals := make([]time.Duration, len(members))
			for i, ol := range members {
				vals[i] = ol.layers[m]
			}
			out[m] = ms(median(vals)) // the op group runs second and wins
		}
	}
	return out
}

// write saves every span to path as JSON.
func (t *tracer) write(path, workload string, seed int64) error {
	doc := map[string]any{
		"workload": workload,
		"seed":     seed,
		"kinds": map[string]string{
			"":          "timed call into a layer",
			kindPhase:   "PhaseHook marker; not counted in self times",
			kindTimings: "pipeline phase from core.Params.Timings; nominal position, measured duration",
			kindStats:   "duration from a dbscand response's stats; nominal position",
			kindBench:   "benchmark's own untimed work inside an op",
		},
		"spans": t.all(),
	}
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}
