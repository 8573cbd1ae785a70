// streaming_bench_test.go benchmarks the streaming tick loop: a sliding
// window over a generated point stream where each tick evicts the oldest
// batch, inserts a fresh one, and re-clusters. The incremental path
// (StreamingClusterer.Run) is compared against from-scratch re-clustering of
// the same window. The end-to-end streaming workload is perfbench's
// stream-2d.
package pdbscan

import (
	"fmt"
	"testing"

	"pdbscan/internal/dataset"
)

// streamBenchCase is one (window, churn) regime; churn is the fraction of the
// window replaced per tick.
type streamBenchCase struct {
	window int
	batch  int
	eps    float64
	minPts int
}

func (c streamBenchCase) name() string {
	return fmt.Sprintf("w=%d/batch=%d", c.window, c.batch)
}

// streamRows generates the time-ordered point stream the window slides over
// (drifting emitters — localized churn; see dataset.DriftStream).
func streamRows(n int) [][]float64 {
	pts := dataset.DriftStream(dataset.DriftStreamConfig{N: n, D: 2, Seed: 9})
	rows := make([][]float64, pts.N)
	for i := range rows {
		rows[i] = pts.At(i)
	}
	return rows
}

func BenchmarkStreamingTick(b *testing.B) {
	for _, c := range []streamBenchCase{
		{window: 20000, batch: 200, eps: 4, minPts: 10},
		{window: 20000, batch: 2000, eps: 4, minPts: 10},
	} {
		rows := streamRows(c.window * 10)
		cfg := Config{MinPts: c.minPts, Method: Method2DGridBCP}

		b.Run(c.name()+"/incremental", func(b *testing.B) {
			s, err := NewStreamingClusterer(2, c.eps)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := s.Insert(rows[:c.window]); err != nil {
				b.Fatal(err)
			}
			if _, err := s.Run(cfg); err != nil {
				b.Fatal(err)
			}
			next := c.window
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				batch := make([][]float64, c.batch)
				for k := range batch {
					batch[k] = rows[(next+k)%len(rows)]
				}
				next += c.batch
				if _, err := s.Insert(batch); err != nil {
					b.Fatal(err)
				}
				s.Window(c.window)
				if _, err := s.Run(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})

		b.Run(c.name()+"/scratch", func(b *testing.B) {
			// The same sliding window, re-clustered from scratch each tick.
			window := make([][]float64, c.window)
			copy(window, rows[:c.window])
			next := c.window
			scratchCfg := cfg
			scratchCfg.Eps = c.eps
			if _, err := Cluster(window, scratchCfg); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				window = append(window[c.batch:], rowsSlice(rows, next, c.batch)...)
				next += c.batch
				if _, err := Cluster(window, scratchCfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func rowsSlice(rows [][]float64, start, n int) [][]float64 {
	out := make([][]float64, n)
	for k := range out {
		out[k] = rows[(start+k)%len(rows)]
	}
	return out
}

// BenchmarkStreamingInsert measures the pure mutation cost (no clustering).
func BenchmarkStreamingInsert(b *testing.B) {
	rows := streamRows(100000)
	s, err := NewStreamingClusterer(2, 300)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := s.Insert(rows[i%len(rows) : i%len(rows)+1]); err != nil {
			b.Fatal(err)
		}
		s.Window(50000)
	}
}
