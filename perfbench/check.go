package main

import (
	"fmt"
	"math"
	"slices"

	"pdbscan"
	"pdbscan/internal/core"
	"pdbscan/internal/dataset"
	"pdbscan/internal/geom"
)

// clustering is one result as the checks compare it. border lists the
// points that belong to more than one cluster; a nil border means the result
// did not report memberships (a dbscand response carries primary labels
// only).
type clustering struct {
	labels   []int32
	core     []bool
	border   map[int32][]int32
	clusters int
}

func fromResult(r *pdbscan.Result) clustering {
	return clustering{r.Labels, r.Core, r.Border, r.NumClusters}
}

func fromCore(r *core.Result) clustering {
	return clustering{r.Labels, r.Core, r.Border, r.NumClusters}
}

// sameClustering reports how got differs from want: core flags and cluster
// counts must be equal, the core points must induce a bijection between the
// two label sets, and under it every point must belong to the same clusters.
// Primary labels of multi-cluster border points are not compared directly:
// each side gives such a point its smallest label in its own numbering. When
// got carries no memberships, its primary label must be one of the point's
// clusters in want.
func sameClustering(got, want clustering) error {
	n := len(want.labels)
	if len(got.labels) != n || len(got.core) != n || len(want.core) != n {
		return fmt.Errorf("result has %d labels and %d core flags, reference %d and %d",
			len(got.labels), len(got.core), n, len(want.core))
	}
	if got.clusters != want.clusters {
		return fmt.Errorf("%d clusters, reference %d", got.clusters, want.clusters)
	}
	if !slices.Equal(got.core, want.core) {
		return fmt.Errorf("core flags differ from the reference")
	}
	gw := make([]int32, got.clusters) // got label -> want label
	wg := make([]int32, want.clusters)
	for i := range gw {
		gw[i] = -1
	}
	for i := range wg {
		wg[i] = -1
	}
	for i := 0; i < n; i++ {
		if !got.core[i] {
			continue
		}
		lg, lw := got.labels[i], want.labels[i]
		if lg < 0 || lw < 0 || int(lg) >= len(gw) || int(lw) >= len(wg) {
			return fmt.Errorf("core point %d has labels %d and %d", i, lg, lw)
		}
		if gw[lg] == -1 && wg[lw] == -1 {
			gw[lg], wg[lw] = lw, lg
		} else if gw[lg] != lw || wg[lw] != lg {
			return fmt.Errorf("core point %d breaks the label bijection (%d vs %d)", i, lg, lw)
		}
	}
	for i := 0; i < n; i++ {
		if got.core[i] {
			continue
		}
		gm, gMulti := got.border[int32(i)]
		wm, wMulti := want.border[int32(i)]
		lg, lw := got.labels[i], want.labels[i]
		switch {
		case !gMulti && !wMulti:
			if (lg < 0) != (lw < 0) || (lg >= 0 && gw[lg] != lw) {
				return fmt.Errorf("point %d: label %d, reference %d", i, lg, lw)
			}
		case got.border == nil:
			if lg < 0 || !slices.Contains(wm, gw[lg]) {
				return fmt.Errorf("point %d: label %d is none of its clusters %v", i, lg, wm)
			}
		default:
			if len(gm) != len(wm) {
				return fmt.Errorf("point %d: clusters %v, reference %v", i, gm, wm)
			}
			for _, l := range gm {
				if !slices.Contains(wm, gw[l]) {
					return fmt.Errorf("point %d: clusters %v, reference %v", i, gm, wm)
				}
			}
		}
	}
	return nil
}

// countTrue counts the set flags.
func countTrue(flags []bool) int {
	n := 0
	for _, f := range flags {
		if f {
			n++
		}
	}
	return n
}

// vardenMix generates n points of the ss-varden family with its density mix
// fixed: the union of three seed-spreader runs at the vicinities ss-varden
// cycles through on each restart (100, 464 and 2154), n/3 points each. A
// single ss-varden run draws the share of each density level from a few
// random restarts, so its clustering cost swings by 2x from seed to seed;
// with the shares fixed, the seed still moves every cluster but not the mix.
func vardenMix(n, d int, seed int64) geom.Points {
	data := make([]float64, 0, n*d)
	for level := 0; level < 3; level++ {
		m := n / 3
		if level == 2 {
			m = n - 2*(n/3)
		}
		p := dataset.SeedSpreader(dataset.SeedSpreaderConfig{
			N: m, D: d, Vicinity: 100 * math.Pow(10, float64(level)/1.5), Seed: 3*seed + int64(level),
		})
		data = append(data, p.Data...)
	}
	return geom.Points{N: n, D: d, Data: data}
}

// shuffleRows permutes the rows deterministically (Fisher-Yates over a
// splitmix64 stream). The generators emit points cluster by cluster, an
// order that keeps same-cell points adjacent in memory; real ingestion
// orders carry no such correlation between position and space.
func shuffleRows(pts geom.Points, seed uint64) {
	state := seed*0x9e3779b97f4a7c15 + 1
	next := func() uint64 {
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	d := pts.D
	for i := pts.N - 1; i > 0; i-- {
		j := int(next() % uint64(i+1))
		for k := 0; k < d; k++ {
			pts.Data[i*d+k], pts.Data[j*d+k] = pts.Data[j*d+k], pts.Data[i*d+k]
		}
	}
}
