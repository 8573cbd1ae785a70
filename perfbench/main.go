// Command perfbench is the repository's benchmark. One invocation runs one
// seeded workload for a fixed number of seconds, checks every result against
// an independent path, and prints one JSON result line as the last line of
// its standard output:
//
//	{"correct": true, "attempted": 113, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones a user of the library
// or of dbscand sees (setup_s, op_p50_ms, op_p90_ms, peak_rss_mb). With
// --trace 1 the workload also runs through the layers' exported functions in
// the order the public path calls them, records a span around every call,
// and the metrics are the per-layer self times and counts; the spans are
// written to .bench_build/trace-<workload>-seed<n>.json at exit. The line
// before the result is a provenance record (sizes, host, sample counts,
// failed_frac).
//
// Build and run it from the repository root with perfbench/run.sh:
//
//	bash perfbench/run.sh --workload batch-3d --seed 1 --seconds 25 --trace 0
//
// Workloads and their reasons are defined in workloads.go; BENCHMARK.json at
// the repository root lists the same workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// holdoutSeed is the second seed every performance claim made with this
// benchmark must also hold on; it is not used while tuning a change.
const holdoutSeed = 97

// perLayerMetrics names every per-layer metric and its unit, as
// BENCHMARK.json declares them; the smoke test checks the two agree (and the
// end-to-end metrics printed by (*bench).metrics).
var perLayerMetrics = []struct{ name, unit string }{
	{"grid.build_ms", "ms"},
	{"grid.neighbors_ms", "ms"},
	{"grid.partition_ms", "ms"},
	{"grid.snapshot_ms", "ms"},
	{"core.mark_ms", "ms"},
	{"core.collect_ms", "ms"},
	{"core.graph_ms", "ms"},
	{"core.merge_ms", "ms"},
	{"core.label_ms", "ms"},
	{"core.border_ms", "ms"},
	{"core.other_ms", "ms"},
	{"pdbscan.insert_ms", "ms"},
	{"pdbscan.window_ms", "ms"},
	{"pdbscan.result_ms", "ms"},
	{"cellstore.write_ms", "ms"},
	{"cellstore.open_ms", "ms"},
	{"serve.create_ms", "ms"},
	{"serve.result_ms", "ms"},
	{"serve.delete_ms", "ms"},
	{"engine.queue_ms", "ms"},
	{"engine.run_ms", "ms"},
	{"runtime.alloc_mb_per_op", "MiB"},
	{"runtime.gc_per_op", "count"},
	{"trace.overhead_ms", "ms"},
	{"grid.cells", "count"},
	{"grid.neighbor_refs", "count"},
	{"core.core_points", "count"},
	{"core.clusters", "count"},
	{"core.shards", "count"},
	{"pdbscan.dirty_cells", "count"},
	{"pdbscan.full_ticks", "count"},
	{"cellstore.mapped_mb", "MiB"},
	{"cellstore.peak_resident_mb", "MiB"},
	{"cellstore.resident_shards", "count"},
	{"serve.request_mb", "MiB"},
	{"serve.response_mb", "MiB"},
}

// countMetrics are the per-layer metrics that count work or size rather than
// time it. They depend only on the seed and must repeat exactly.
var countMetrics = map[string]bool{
	"grid.cells": true, "grid.neighbor_refs": true,
	"core.core_points": true, "core.clusters": true, "core.shards": true,
	"pdbscan.dirty_cells": true, "pdbscan.full_ticks": true,
	"cellstore.mapped_mb": true, "cellstore.peak_resident_mb": true, "cellstore.resident_shards": true,
	"serve.request_mb": true, "serve.response_mb": true,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses the flags, runs one workload, and prints the provenance and
// result lines. It returns the process exit code: 0 whenever a result line
// was printed (correct or not), 1 when the workload could not be set up, 2
// on bad flags.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "seed of the generated inputs")
	seconds := fs.Float64("seconds", 10, "measured time of the run, in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced per-layer metrics")
	scale := fs.Float64("scale", 1, "multiplies the workload's point count (the smoke test runs small)")
	dir := fs.String("dir", ".bench_build", "directory for cell stores and trace files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w := findWorkload(*name)
	if w == nil || (*trace != 0 && *trace != 1) || *seconds <= 0 || *scale <= 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %s), --seconds > 0, --trace 0|1, --scale > 0\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	work, err := os.MkdirTemp(*dir, "run-")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(work)

	b := newBench(w.name, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, *scale, work, stderr)
	if err := w.run(b); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	if b.trace {
		path := filepath.Join(*dir, fmt.Sprintf("trace-%s-seed%d.json", w.name, *seed))
		if err := b.tr.write(path, w.name, *seed); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		b.prov["trace_file"] = path
	}
	metrics := b.metrics()
	b.prov["workload"] = w.name
	b.prov["why"] = w.why
	b.prov["seed"] = *seed
	b.prov["holdout_seed"] = holdoutSeed
	b.prov["seconds"] = *seconds
	b.prov["trace"] = b.trace
	b.prov["num_cpu"] = runtime.NumCPU()
	b.prov["gomaxprocs"] = runtime.GOMAXPROCS(0)
	b.prov["go_version"] = runtime.Version()
	b.prov["attempted"] = b.attempted
	b.prov["failed"] = b.failed
	b.prov["failed_frac"] = b.failedFrac()
	if len(b.problems) > 0 {
		b.prov["problems"] = b.problems
	}
	if err := printJSON(stdout, map[string]any{"provenance": b.prov}); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	out := map[string]any{
		"correct":   b.failed == 0 && len(b.problems) == 0,
		"attempted": b.attempted,
		"failed":    b.failed,
		"metrics":   metrics,
	}
	if err := printJSON(stdout, out); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

func printJSON(w io.Writer, v any) error {
	line, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// metricValue is one printed metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics assembles the printed metrics: the end-to-end set of an untraced
// run, or the per-layer set of a traced one. A layer the workload does not
// exercise reports 0 and is named in the provenance's not_exercised list.
func (b *bench) metrics() map[string]metricValue {
	out := map[string]metricValue{}
	if !b.trace {
		setup := median(b.setups)
		b.prov["samples"] = map[string]int{"setup": len(b.setups), "op": len(b.ops)}
		out["setup_s"] = metricValue{setup.Seconds(), "s"}
		out["op_p50_ms"] = metricValue{ms(percentile(b.ops, 50)), "ms"}
		out["op_p90_ms"] = metricValue{ms(percentile(b.ops, 90)), "ms"}
		out["peak_rss_mb"] = metricValue{peakRSSMiB(), "MiB"}
		return out
	}
	layers := b.layerValues()
	var idle []string
	for _, m := range perLayerMetrics {
		v, ok := layers[m.name]
		if !ok {
			idle = append(idle, m.name)
		}
		out[m.name] = metricValue{v, m.unit}
	}
	b.prov["not_exercised"] = idle
	b.prov["samples"] = map[string]int{"setup": len(b.setups), "op": len(b.ops), "traced_op": len(b.tracedOps)}
	return out
}
