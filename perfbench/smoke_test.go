package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// benchmarkFile is the part of BENCHMARK.json the smoke test checks.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

type runOutput struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// smokeRun runs one workload small and returns its result line and
// provenance.
func smokeRun(t *testing.T, workload, trace string) (runOutput, map[string]any) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args := []string{"--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace,
		"--scale", "0.02", "--dir", t.TempDir()}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("%s trace=%s: exit %d: %s", workload, trace, code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if len(lines) < 2 {
		t.Fatalf("%s trace=%s: want a provenance and a result line, got %q", workload, trace, stdout.String())
	}
	var out runOutput
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
		t.Fatalf("%s trace=%s: result line: %v", workload, trace, err)
	}
	var prov struct {
		Provenance map[string]any `json:"provenance"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-2]), &prov); err != nil {
		t.Fatalf("%s trace=%s: provenance line: %v", workload, trace, err)
	}
	return out, prov.Provenance
}

// TestSmoke runs every workload at a small n in both modes and checks that
// every metric BENCHMARK.json names is printed with its unit, that
// failed_frac is 0, and that the counts repeat across two traced runs of
// one seed.
func TestSmoke(t *testing.T) {
	bf := loadBenchmarkFile(t)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark defines %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("BENCHMARK.json workload %d is %q (%q), the benchmark's is %q (%q)",
				i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	want := map[string]map[string]string{"0": {}, "1": {}}
	for _, m := range bf.EndToEnd {
		want["0"][m.Name] = m.Unit
	}
	for _, m := range bf.PerLayer {
		want["1"][m.Name] = m.Unit
	}

	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			out, prov := smokeRun(t, w.name, trace)
			if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
				t.Errorf("%s trace=%s: correct=%v attempted=%d failed=%d problems=%v",
					w.name, trace, out.Correct, out.Attempted, out.Failed, prov["problems"])
			}
			if prov["failed_frac"] != 0.0 {
				t.Errorf("%s trace=%s: failed_frac %v", w.name, trace, prov["failed_frac"])
			}
			if len(out.Metrics) != len(want[trace]) {
				t.Errorf("%s trace=%s: %d metrics printed, BENCHMARK.json names %d", w.name, trace, len(out.Metrics), len(want[trace]))
			}
			for name, unit := range want[trace] {
				if got, ok := out.Metrics[name]; !ok || got.Unit != unit {
					t.Errorf("%s trace=%s: metric %s printed as %+v, want unit %q", w.name, trace, name, got, unit)
				}
			}
			if trace != "1" {
				continue
			}
			again, _ := smokeRun(t, w.name, trace)
			for name := range countMetrics {
				if a, b := out.Metrics[name].Value, again.Metrics[name].Value; a != b {
					t.Errorf("%s: count %s is %v, then %v on the same seed", w.name, name, a, b)
				}
			}
		}
	}
}

// TestBadFlags checks that a bad invocation prints no result line.
func TestBadFlags(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"--workload", "nope"}, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
		t.Errorf("exit %d, stdout %q", code, stdout.String())
	}
}
