package main

import (
	"fmt"
	"runtime"
	"time"

	"pdbscan"
	"pdbscan/internal/baseline"
	"pdbscan/internal/geom"
	"pdbscan/internal/parallel"
)

// variant is one named algorithm configuration (Section 7.1 naming). run
// receives the worker budget for this invocation; implementations thread it
// through as a per-run executor (there is no process-wide worker state).
type variant struct {
	name   string
	serial bool // always runs single-threaded (the sequential baseline)
	run    func(pts geom.Points, eps float64, minPts int, rho float64, workers int) int
}

func methodVariant(name string, m pdbscan.Method, bucketing bool) variant {
	return variant{
		name: name,
		run: func(pts geom.Points, eps float64, minPts int, rho float64, workers int) int {
			res, err := pdbscan.ClusterFlat(pts.Data, pts.D, pdbscan.Config{
				Eps: eps, MinPts: minPts, Method: m, Rho: rho, Bucketing: bucketing,
				Workers: workers,
			})
			if err != nil {
				panic(err)
			}
			return res.NumClusters
		},
	}
}

// ourVariants are the paper's eight d>=3 configurations.
func ourVariants() []variant {
	return []variant{
		methodVariant("our-exact", pdbscan.MethodExact, false),
		methodVariant("our-exact-bucketing", pdbscan.MethodExact, true),
		methodVariant("our-exact-qt", pdbscan.MethodExactQt, false),
		methodVariant("our-exact-qt-bucketing", pdbscan.MethodExactQt, true),
		methodVariant("our-approx", pdbscan.MethodApprox, false),
		methodVariant("our-approx-bucketing", pdbscan.MethodApprox, true),
		methodVariant("our-approx-qt", pdbscan.MethodApproxQt, false),
		methodVariant("our-approx-qt-bucketing", pdbscan.MethodApproxQt, true),
	}
}

// baselineVariants are the parallel comparison implementations.
func baselineVariants() []variant {
	return []variant{
		{name: "hpdbscan", run: func(pts geom.Points, eps float64, minPts int, _ float64, workers int) int {
			return baseline.HPDBSCAN(parallel.NewPool(workers), pts, eps, minPts).NumClusters
		}},
		{name: "pdsdbscan", run: func(pts geom.Points, eps float64, minPts int, _ float64, workers int) int {
			return baseline.PDSDBSCAN(parallel.NewPool(workers), pts, eps, minPts).NumClusters
		}},
	}
}

func seqVariant() variant {
	return variant{name: "seq-dbscan", serial: true,
		run: func(pts geom.Points, eps float64, minPts int, _ float64, workers int) int {
			return baseline.Sequential(parallel.NewPool(workers), pts, eps, minPts).NumClusters
		}}
}

// twoDVariants are the six 2D configurations of Figure 11.
func twoDVariants() []variant {
	return []variant{
		methodVariant("our-2d-grid-bcp", pdbscan.Method2DGridBCP, false),
		methodVariant("our-2d-grid-usec", pdbscan.Method2DGridUSEC, false),
		methodVariant("our-2d-grid-delaunay", pdbscan.Method2DGridDelaunay, false),
		methodVariant("our-2d-box-bcp", pdbscan.Method2DBoxBCP, false),
		methodVariant("our-2d-box-usec", pdbscan.Method2DBoxUSEC, false),
		methodVariant("our-2d-box-delaunay", pdbscan.Method2DBoxDelaunay, false),
	}
}

// timeVariant runs v once and reports (elapsed, clusters). Thread count is
// pinned via GOMAXPROCS (so the Go runtime really uses that many CPUs) and
// passed to the variant as its per-run worker budget.
func timeVariant(v variant, pts geom.Points, eps float64, minPts int, rho float64, threads int) (time.Duration, int) {
	if v.serial {
		threads = 1
	}
	if threads > 0 {
		old := runtime.GOMAXPROCS(threads)
		defer runtime.GOMAXPROCS(old)
	}
	start := time.Now()
	clusters := v.run(pts, eps, minPts, rho, threads)
	return time.Since(start), clusters
}

// table printing ----------------------------------------------------------

type table struct {
	title   string
	headers []string
	rows    [][]string
}

func newTable(title string, headers ...string) *table {
	return &table{title: title, headers: headers}
}

func (t *table) add(cells ...string) {
	t.rows = append(t.rows, cells)
}

func (t *table) print() {
	fmt.Println()
	fmt.Println("== " + t.title + " ==")
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	printRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				fmt.Print("  ")
			}
			fmt.Printf("%-*s", widths[i], c)
		}
		fmt.Println()
	}
	printRow(t.headers)
	sep := make([]string, len(t.headers))
	for i, w := range widths {
		b := make([]byte, w)
		for k := range b {
			b[k] = '-'
		}
		sep[i] = string(b)
	}
	printRow(sep)
	for _, r := range t.rows {
		printRow(r)
	}
}

func fmtDur(d time.Duration) string {
	return fmt.Sprintf("%.3fs", d.Seconds())
}

func fmtSpeedup(base, d time.Duration) string {
	if d <= 0 {
		return "-"
	}
	return fmt.Sprintf("%.2fx", base.Seconds()/d.Seconds())
}

// threadSweep returns the thread counts for scaling experiments on this
// machine: 1, 2, 4, ... up to NumCPU.
func threadSweep() []int {
	maxT := runtime.NumCPU()
	var out []int
	for t := 1; t < maxT; t *= 2 {
		out = append(out, t)
	}
	return append(out, maxT)
}
