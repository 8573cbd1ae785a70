package core

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"testing"

	"pdbscan/internal/cellstore"
	"pdbscan/internal/geom"
	"pdbscan/internal/grid"
	"pdbscan/internal/metrics"
)

// shardedTestCells builds grid cells with neighbors for random clustered
// points in d dimensions.
func shardedTestCells(t *testing.T, n, d int, seed int64, eps float64) *grid.Cells {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	data := make([]float64, n*d)
	for i := 0; i < n; i++ {
		cx := float64(rng.Intn(4)) * 5
		for j := 0; j < d; j++ {
			data[i*d+j] = cx + rng.NormFloat64()
		}
	}
	pts := geom.Points{N: n, D: d, Data: data}
	c := grid.BuildGrid(nil, pts, eps)
	c.ComputeNeighbors(nil, nil)
	return c
}

// TestRunShardedMatchesRun pins, at the core layer, the executor invariant:
// for every graph strategy, RunSharded over any partition — and RunOutOfCore
// over a store written from the same cells and partition — returns exactly
// Run's result: identical labels, not merely an equivalent partition.
//
// The uniform layout is dense in cell pairs whose approximate quadtree
// answer depends on the query direction, so it fails unless every path
// orients each pair the same way. The bucketed row runs every window's
// graph step in batches.
func TestRunShardedMatchesRun(t *testing.T) {
	type strategy struct {
		name    string
		mark    MarkStrategy
		graph   GraphStrategy
		rho     float64
		buckets int // > 0: Bucketing with this many batches
	}
	type layout struct {
		name       string
		cells      *grid.Cells
		minPts     int
		ks         []int
		strategies []strategy
	}
	var layouts []layout
	for _, d := range []int{2, 3} {
		l := layout{
			name:   fmt.Sprintf("blobs-%dd", d),
			cells:  shardedTestCells(t, 1500, d, int64(d)*7, 1.2),
			minPts: 5,
			ks:     []int{2, 3, 9},
			strategies: []strategy{
				{"scan-bcp", MarkScan, GraphBCP, 0, 0},
				{"scan-bcp-bucketed", MarkScan, GraphBCP, 0, 3},
				{"qt-qt", MarkQuadtree, GraphQuadtree, 0, 0},
				{"scan-approx", MarkScan, GraphApprox, 0.05, 0},
				{"qt-approx", MarkQuadtree, GraphApprox, 0.3, 0},
			},
		}
		if d == 2 {
			l.strategies = append(l.strategies,
				strategy{"scan-usec", MarkScan, GraphUSEC, 0, 0},
				strategy{"scan-delaunay", MarkScan, GraphDelaunay, 0, 0})
		}
		layouts = append(layouts, l)
	}
	rng := rand.New(rand.NewSource(1))
	data := make([]float64, 1500*2)
	for i := range data {
		data[i] = rng.Float64() * 60
	}
	uniform := grid.BuildGrid(nil, geom.Points{N: 1500, D: 2, Data: data}, 1.5)
	uniform.ComputeNeighborsEnum(nil)
	layouts = append(layouts, layout{
		name:   "uniform-2d",
		cells:  uniform,
		minPts: 3,
		ks:     []int{5},
		strategies: []strategy{
			{"scan-approx", MarkScan, GraphApprox, 0.5, 0},
			{"qt-approx", MarkQuadtree, GraphApprox, 0.5, 0},
		},
	})

	for _, l := range layouts {
		for _, s := range l.strategies {
			p := Params{MinPts: l.minPts, Mark: s.mark, Graph: s.graph, Rho: s.rho, Bucketing: s.buckets > 0, Buckets: s.buckets}
			want, err := Run(l.cells, p)
			if err != nil {
				t.Fatalf("%s %s: Run: %v", l.name, s.name, err)
			}
			for _, k := range l.ks {
				part, err := grid.MakePartition(nil, l.cells, k)
				if err != nil {
					t.Fatalf("%s %s k=%d: %v", l.name, s.name, k, err)
				}
				got, err := RunSharded(l.cells, p, part)
				if err != nil {
					t.Fatalf("%s %s k=%d: RunSharded: %v", l.name, s.name, k, err)
				}
				if err := sameResult(got, want); err != nil {
					t.Fatalf("%s %s k=%d: RunSharded: %v", l.name, s.name, k, err)
				}
				got, _, err = RunOutOfCore(writeTestStore(t, l.cells, part), p, 0)
				if err != nil {
					t.Fatalf("%s %s k=%d: RunOutOfCore: %v", l.name, s.name, k, err)
				}
				if err := sameResult(got, want); err != nil {
					t.Fatalf("%s %s k=%d: RunOutOfCore: %v", l.name, s.name, k, err)
				}
			}
		}
	}
}

// TestRunShardedSampleMask pins sample masks through the executor. The
// in-RAM window keys core flags by original point index, as the mask is, so
// every flag Run returns is the brute-force decision for a sampled point
// (false for the rest), and RunSharded at k = 3 returns exactly Run's result
// with the same mask. RunOutOfCore, whose windows index flags in store order,
// rejects a mask.
func TestRunShardedSampleMask(t *testing.T) {
	cells := shardedTestCells(t, 1500, 2, 3, 1.2)
	mask := UniformMask(nil, cells.Pts.N, 0.4, 9)
	p := Params{MinPts: 5, Sample: mask}
	want, err := Run(cells, p)
	if err != nil {
		t.Fatal(err)
	}
	exact := metrics.BruteDBSCAN(cells.Pts, cells.Eps, p.MinPts).Core
	sampledCores := 0
	for i, c := range want.Core {
		if c != (mask[i] && exact[i]) {
			t.Fatalf("point %d: core %v, want sampled %v and exact core %v", i, c, mask[i], exact[i])
		}
		if c {
			sampledCores++
		}
	}
	if sampledCores == 0 || want.NumClusters == 0 {
		t.Fatalf("degenerate layout: %d sampled cores, %d clusters", sampledCores, want.NumClusters)
	}
	part, err := grid.MakePartition(nil, cells, 3)
	if err != nil {
		t.Fatal(err)
	}
	if part.NumShards != 3 {
		t.Fatalf("partition produced %d shards, want 3", part.NumShards)
	}
	got, err := RunSharded(cells, p, part)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameResult(got, want); err != nil {
		t.Fatalf("RunSharded k=3 vs Run under a mask: %v", err)
	}
	if _, _, err := RunOutOfCore(writeTestStore(t, cells, part), p, 0); err == nil {
		t.Fatal("RunOutOfCore accepted a Sample mask")
	}
}

// TestStoreWindowNeighbors pins what a store window builds: in every window
// of both sweeps, each owned cell's neighbor list, mapped through the
// window's global ids, is the writer's list for that cell, and no halo cell
// has a list at all. The 5D layout takes the k-d branch.
func TestStoreWindowNeighbors(t *testing.T) {
	for _, l := range []struct {
		d   int
		eps float64
	}{{2, 1.2}, {5, 2.5}} {
		cells := shardedTestCells(t, 1500, l.d, int64(l.d)*7, l.eps)
		part, err := grid.MakePartition(nil, cells, 5)
		if err != nil {
			t.Fatalf("d=%d: %v", l.d, err)
		}
		store := writeTestStore(t, cells, part)
		src := &storeSource{store: store}
		r := newShardRun(src, store.NumCells(), Params{MinPts: 5}, make([]bool, store.NumPoints()))
		halo, refs := 0, 0
		for _, border := range []bool{false, true} {
			for sh := range src.windows() {
				w, err := src.open(r, sh, border)
				if err != nil {
					t.Fatalf("d=%d shard %d: %v", l.d, sh, err)
				}
				owned := make(map[int32]bool)
				for _, g := range w.owned {
					owned[g] = true
				}
				nbrs := w.st.cells.Neighbors
				for g := range nbrs {
					if !owned[int32(g)] {
						halo++
						if nbrs[g] != nil {
							t.Fatalf("d=%d shard %d: halo cell %d has a neighbor list", l.d, sh, g)
						}
						continue
					}
					want := cells.Neighbors[w.st.gid(int32(g))]
					got := make([]int32, len(nbrs[g]))
					for i, h := range nbrs[g] {
						got[i] = w.st.gid(h)
					}
					slices.Sort(got)
					if !slices.Equal(got, want) {
						t.Fatalf("d=%d shard %d: cell %d (global %d) has neighbors %v, writer has %v", l.d, sh, g, w.st.gid(int32(g)), nbrs[g], want)
					}
					refs += len(want)
				}
				w.close()
			}
		}
		if halo == 0 || refs == 0 {
			t.Fatalf("d=%d: degenerate layout (%d halo cells, %d neighbor refs)", l.d, halo, refs)
		}
	}
}

// writeTestStore writes cells and part as a cell store under the test's
// temporary directory and opens it; the store closes with the test.
func writeTestStore(t *testing.T, cells *grid.Cells, part *grid.Partition) *cellstore.Store {
	t.Helper()
	path := filepath.Join(t.TempDir(), "cells.store")
	if err := cellstore.Write(path, cells, part); err != nil {
		t.Fatal(err)
	}
	store, err := cellstore.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	return store
}

// sameResult demands bit-identical results (labels, cores, borders).
func sameResult(got, want *Result) error {
	if got.NumClusters != want.NumClusters {
		return fmt.Errorf("NumClusters %d vs %d", got.NumClusters, want.NumClusters)
	}
	for i := range want.Labels {
		if got.Labels[i] != want.Labels[i] || got.Core[i] != want.Core[i] {
			return fmt.Errorf("point %d: label %d/%d core %v/%v",
				i, got.Labels[i], want.Labels[i], got.Core[i], want.Core[i])
		}
	}
	if len(got.Border) != len(want.Border) {
		return fmt.Errorf("border size %d vs %d", len(got.Border), len(want.Border))
	}
	for p, m := range want.Border {
		gm := got.Border[p]
		if len(gm) != len(m) {
			return fmt.Errorf("border of %d: %v vs %v", p, gm, m)
		}
		for i := range m {
			if gm[i] != m[i] {
				return fmt.Errorf("border of %d: %v vs %v", p, gm, m)
			}
		}
	}
	return nil
}

// TestRunShardedValidation: bad params and mismatched partitions are
// rejected.
func TestRunShardedValidation(t *testing.T) {
	cells := shardedTestCells(t, 200, 2, 1, 1.0)
	part, err := grid.MakePartition(nil, cells, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunSharded(cells, Params{MinPts: 0}, part); err == nil {
		t.Fatal("MinPts=0 accepted")
	}
	if _, err := RunSharded(cells, Params{MinPts: 2}, nil); err == nil {
		t.Fatal("nil partition accepted")
	}
	other := shardedTestCells(t, 50, 2, 2, 1.0)
	otherPart, err := grid.MakePartition(nil, other, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunSharded(cells, Params{MinPts: 2}, otherPart); err == nil {
		t.Fatal("partition of different cells accepted")
	}
	if _, err := RunSharded(cells, Params{MinPts: 2, Graph: GraphApprox}, part); err == nil {
		t.Fatal("GraphApprox without Rho accepted")
	}
}
