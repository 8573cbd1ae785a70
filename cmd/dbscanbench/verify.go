package main

import (
	"fmt"
	"os"

	"pdbscan"
	"pdbscan/internal/geom"
	"pdbscan/internal/metrics"
)

// expVerify is the at-scale correctness harness: on every generated dataset
// it runs all applicable exact variants (with and without bucketing) and
// checks that they produce the identical clustering, and that approximate
// variants agree with exact on core flags. This is the property the paper
// emphasizes — the parallel algorithms return the standard DBSCAN result —
// checked at sizes where the quadratic test oracle is infeasible. The table
// is printed in full; then the process exits 1 if any row is not OK.
func expVerify(o options) {
	t := newTable("Verification: cross-variant agreement (exact variants identical; approx core-identical)",
		"dataset", "eps", "minPts", "clusters", "variants", "status")
	failed := 0
	for _, ds := range append(figure6Datasets(),
		dsConfig{name: "ss-simden-2d", eps: 400, minPts: 100},
		dsConfig{name: "ss-varden-2d", eps: 1000, minPts: 100},
	) {
		clusters, count, status := verifyDataset(loadDataset(ds.name, o.n, o.seed), ds)
		if status != "OK" {
			failed++
		}
		t.add(ds.name, fmt.Sprintf("%g", ds.eps), fmt.Sprintf("%d", ds.minPts),
			clusters, fmt.Sprintf("%d", count), status)
	}
	t.print()
	if failed > 0 {
		fmt.Printf("\nverify: %d of %d datasets not OK\n", failed, len(t.rows))
		os.Exit(1)
	}
}

// verifyDataset runs every applicable variant of ds on pts. It returns the
// exact cluster count ("-" when no exact variant ran), the number of variants
// that ran, and the row status: "OK", or the last ERROR/MISMATCH found.
func verifyDataset(pts geom.Points, ds dsConfig) (clusters string, count int, status string) {
	methods := []pdbscan.Method{pdbscan.MethodExact, pdbscan.MethodExactQt}
	if pts.D == 2 {
		methods = append(methods,
			pdbscan.Method2DGridBCP, pdbscan.Method2DGridUSEC, pdbscan.Method2DGridDelaunay,
			pdbscan.Method2DBoxBCP, pdbscan.Method2DBoxUSEC, pdbscan.Method2DBoxDelaunay)
	}
	var base *pdbscan.Result
	status = "OK"
	for _, m := range methods {
		for _, bucketing := range []bool{false, true} {
			res, err := pdbscan.ClusterFlat(pts.Data, pts.D, pdbscan.Config{
				Eps: ds.eps, MinPts: ds.minPts, Method: m, Bucketing: bucketing,
			})
			if err != nil {
				status = fmt.Sprintf("ERROR %s: %v", m, err)
				break
			}
			count++
			if base == nil {
				base = res
				continue
			}
			if res.NumClusters != base.NumClusters ||
				metrics.AdjustedRandIndex(res.Labels, base.Labels) != 1 {
				status = fmt.Sprintf("MISMATCH at %s bucketing=%v", m, bucketing)
			}
		}
	}
	if base == nil {
		// Every exact variant failed, so status holds an ERROR.
		return "-", count, status
	}
	// Approximate: core flags must equal exact's.
	for _, m := range []pdbscan.Method{pdbscan.MethodApprox, pdbscan.MethodApproxQt} {
		res, err := pdbscan.ClusterFlat(pts.Data, pts.D, pdbscan.Config{
			Eps: ds.eps, MinPts: ds.minPts, Method: m, Rho: 0.01,
		})
		if err != nil {
			status = fmt.Sprintf("ERROR %s: %v", m, err)
			break
		}
		count++
		if !sameCoreFlags(base, res) {
			status = fmt.Sprintf("CORE MISMATCH at %s", m)
		}
	}
	return fmt.Sprintf("%d", base.NumClusters), count, status
}

func sameCoreFlags(a, b *pdbscan.Result) bool {
	if len(a.Core) != len(b.Core) {
		return false
	}
	for i := range a.Core {
		if a.Core[i] != b.Core[i] {
			return false
		}
	}
	return true
}
