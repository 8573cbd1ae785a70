package pdbscan

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
)

// hierarchyEpsGrid is the ascending query grid the property tests sweep.
func hierarchyEpsGrid(eps float64, n int) []float64 {
	qs := make([]float64, n)
	for i := range qs {
		qs[i] = eps * float64(i+1) / float64(n)
	}
	return qs
}

// TestHierarchyMonotonicity pins the dendrogram's defining metamorphic
// properties over an ascending eps sweep: core flags only switch on, the
// noise set only shrinks, and clusters only merge — two core points sharing
// a cluster at a smaller radius share one at every larger radius.
func TestHierarchyMonotonicity(t *testing.T) {
	for _, d := range []int{2, 3} {
		rows := blobs(1500, d, 7)
		c, err := NewClusterer(rows, 3.0)
		if err != nil {
			t.Fatal(err)
		}
		h, err := c.BuildHierarchy(5)
		if err != nil {
			t.Fatal(err)
		}
		var prev *Result
		for _, q := range hierarchyEpsGrid(3.0, 12) {
			res, err := h.CutEps(q)
			if err != nil {
				t.Fatalf("d=%d CutEps(%v): %v", d, q, err)
			}
			if prev != nil {
				// label map: prev cluster -> cluster at the larger radius.
				merge := make([]int32, prev.NumClusters)
				for i := range merge {
					merge[i] = -1
				}
				for i := range rows {
					if prev.Core[i] && !res.Core[i] {
						t.Fatalf("d=%d eps=%v: point %d lost its core flag as eps grew", d, q, i)
					}
					if prev.Labels[i] >= 0 && res.Labels[i] < 0 {
						t.Fatalf("d=%d eps=%v: point %d became noise as eps grew", d, q, i)
					}
					if !prev.Core[i] {
						continue
					}
					pl, nl := prev.Labels[i], res.Labels[i]
					if merge[pl] == -1 {
						merge[pl] = nl
					} else if merge[pl] != nl {
						t.Fatalf("d=%d eps=%v: cluster %d split (core members in %d and %d)", d, q, pl, merge[pl], nl)
					}
				}
			}
			prev = res
		}
	}
}

// TestHierarchyCutDeterminism: the same query must return bit-identical
// results no matter the query order (ascending advances the shared replay,
// descending forces resets) or concurrency. Core labels are assigned in
// ascending point order off min-index union-find roots, so even strict
// label equality must hold, not just permutation equivalence.
func TestHierarchyCutDeterminism(t *testing.T) {
	rows := blobs(2000, 2, 13)
	c, err := NewClusterer(rows, 3.0)
	if err != nil {
		t.Fatal(err)
	}
	h, err := c.BuildHierarchy(4)
	if err != nil {
		t.Fatal(err)
	}
	grid := hierarchyEpsGrid(3.0, 8)
	want := make([]*Result, len(grid))
	for i, q := range grid {
		if want[i], err = h.CutEps(q); err != nil {
			t.Fatal(err)
		}
	}
	// Descending then ascending again: every answer must repeat exactly.
	for pass := 0; pass < 2; pass++ {
		for i := len(grid) - 1; i >= 0; i-- {
			res, err := h.CutEps(grid[i])
			if err != nil {
				t.Fatal(err)
			}
			if err := labelsEqual(res, want[i]); err != nil {
				t.Fatalf("pass %d eps=%v: %v", pass, grid[i], err)
			}
		}
	}
	// Concurrent queries in shuffled order on the one shared Hierarchy (the
	// -race run makes this the replay-locking test).
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for _, i := range rng.Perm(len(grid)) {
				res, err := h.CutEps(grid[i])
				if err != nil {
					errs <- err
					return
				}
				if err := labelsEqual(res, want[i]); err != nil {
					errs <- fmt.Errorf("concurrent eps=%v: %v", grid[i], err)
					return
				}
			}
		}(int64(g))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestHierarchyBuildDeterminism: the structure itself (core distances and
// the forest edge list) is identical regardless of the worker budget — the
// strict total edge order makes the MSF unique, so block boundaries cannot
// leak into the output.
func TestHierarchyBuildDeterminism(t *testing.T) {
	rows := blobs(1200, 3, 29)
	var ref *Hierarchy
	for _, workers := range []int{1, 2, 7} {
		c, err := NewClusterer(rows, 3.0)
		if err != nil {
			t.Fatal(err)
		}
		h, err := c.BuildHierarchyContext(context.Background(), Config{MinPts: 5, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = h
			continue
		}
		for i, v := range h.cd2 {
			if v != ref.cd2[i] && !(math.IsInf(v, 1) && math.IsInf(ref.cd2[i], 1)) {
				t.Fatalf("workers=%d: cd2[%d] = %v vs %v", workers, i, v, ref.cd2[i])
			}
		}
		if len(h.edges) != len(ref.edges) {
			t.Fatalf("workers=%d: %d edges vs %d", workers, len(h.edges), len(ref.edges))
		}
		for i, e := range h.edges {
			if e != ref.edges[i] {
				t.Fatalf("workers=%d: edge %d = %+v vs %+v", workers, i, e, ref.edges[i])
			}
		}
	}
}

// TestHierarchyCache: one build per MinPts — repeated and concurrent
// BuildHierarchy calls return the same *Hierarchy; distinct MinPts get
// distinct hierarchies.
func TestHierarchyCache(t *testing.T) {
	rows := blobs(600, 2, 3)
	c, err := NewClusterer(rows, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	h1, err := c.BuildHierarchy(4)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := c.BuildHierarchy(4)
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Fatal("second BuildHierarchy at the same MinPts rebuilt instead of reusing")
	}
	h3, err := c.BuildHierarchy(8)
	if err != nil {
		t.Fatal(err)
	}
	if h3 == h1 {
		t.Fatal("distinct MinPts shared a hierarchy")
	}
	var wg sync.WaitGroup
	got := make([]*Hierarchy, 6)
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], _ = c.BuildHierarchy(12)
		}(i)
	}
	wg.Wait()
	for i := 1; i < len(got); i++ {
		if got[i] == nil || got[i] != got[0] {
			t.Fatalf("concurrent builds diverged: %p vs %p", got[i], got[0])
		}
	}
}

// TestHierarchyBuildCancellation cancels a build from inside every pipeline
// phase via the PhaseHook seam and checks the Clusterer's cache rule: the
// cancelled build returns ctx.Err(), keeps nothing, and the next build
// runs clean and answers queries exactly like batch Cluster.
func TestHierarchyBuildCancellation(t *testing.T) {
	rows := blobs(900, 2, 41)
	for _, phase := range []string{"coredist", "edges", "mst", "done"} {
		c, err := NewClusterer(rows, 2.5)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		c.hierHook = func(p string) {
			if p == phase {
				cancel()
			}
		}
		_, err = c.BuildHierarchyContext(ctx, Config{MinPts: 5})
		if err != context.Canceled {
			t.Fatalf("phase %s: err = %v, want context.Canceled", phase, err)
		}
		c.hiers.mu.Lock()
		e := c.hiers.entries[5]
		c.hiers.mu.Unlock()
		if e != nil {
			t.Fatalf("phase %s: cancelled build latched state: %+v", phase, e)
		}
		// The rebuild must start from scratch and produce the exact answer.
		c.hierHook = nil
		h, err := c.BuildHierarchy(5)
		if err != nil {
			t.Fatalf("phase %s: rebuild: %v", phase, err)
		}
		cut, err := h.CutEps(1.25)
		if err != nil {
			t.Fatal(err)
		}
		batch, err := Cluster(rows, Config{Eps: 1.25, MinPts: 5})
		if err != nil {
			t.Fatal(err)
		}
		if err := equivalentResults(cut, batch); err != nil {
			t.Fatalf("phase %s: rebuild after cancellation: %v", phase, err)
		}
	}
	// Pre-cancelled context: rejected before any build state exists.
	c, err := NewClusterer(rows, 2.5)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.BuildHierarchyContext(ctx, Config{MinPts: 5}); err != context.Canceled {
		t.Fatalf("pre-cancelled build: err = %v", err)
	}
	if e := c.hiers.entries[5]; e != nil {
		t.Fatal("pre-cancelled build left state behind")
	}
}

// TestHierarchyCutCancellation: a cut on a cancelled context returns the
// context's error and no result, and the hierarchy stays usable.
func TestHierarchyCutCancellation(t *testing.T) {
	rows := blobs(800, 2, 19)
	c, err := NewClusterer(rows, 2.5)
	if err != nil {
		t.Fatal(err)
	}
	h, err := c.BuildHierarchy(4)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if res, err := h.CutEpsContext(ctx, 1.0, 0); err != context.Canceled || res != nil {
		t.Fatalf("cancelled cut: res=%v err=%v", res, err)
	}
	if _, _, err := h.CutKContext(ctx, 2, 0); err != context.Canceled {
		t.Fatalf("cancelled CutK: err=%v", err)
	}
	res, err := h.CutEps(1.0)
	if err != nil || res == nil {
		t.Fatalf("cut after a cancelled cut: %v", err)
	}
}

// TestHierarchyCutK: for every cluster count the eps sweep actually
// realizes, CutK must find a radius realizing it — and its result must be
// the CutEps answer at that radius with exactly k clusters. Unrealizable
// counts are errors.
func TestHierarchyCutK(t *testing.T) {
	rows := blobs(900, 2, 23)
	c, err := NewClusterer(rows, 3.0)
	if err != nil {
		t.Fatal(err)
	}
	h, err := c.BuildHierarchy(5)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, q := range hierarchyEpsGrid(3.0, 24) {
		res, err := h.CutEps(q)
		if err != nil {
			t.Fatal(err)
		}
		seen[res.NumClusters] = true
	}
	for k := range seen {
		if k == 0 {
			continue
		}
		res, eps, err := h.CutK(k)
		if err != nil {
			t.Fatalf("CutK(%d): %v (count seen in the sweep)", k, err)
		}
		if res.NumClusters != k {
			t.Fatalf("CutK(%d) returned %d clusters", k, res.NumClusters)
		}
		if !(eps > 0 && eps <= 3.0) {
			t.Fatalf("CutK(%d) eps = %v out of (0, 3]", k, eps)
		}
		ref, err := h.CutEps(eps)
		if err != nil {
			t.Fatal(err)
		}
		// eps is the sqrt of the internal threshold; requerying at it must
		// reproduce the same clustering whenever the rounding keeps the
		// count (it does on this layout).
		if err := labelsEqual(res, ref); err != nil {
			t.Fatalf("CutK(%d) vs CutEps(%v): %v", k, eps, err)
		}
	}
	if _, _, err := h.CutK(len(rows) + 1); err == nil {
		t.Fatal("CutK beyond the point count succeeded")
	}
	if _, _, err := h.CutK(0); err == nil {
		t.Fatal("CutK(0) succeeded")
	}
}

// TestHierarchyExtractStable: on well-separated blobs the most stable
// antichain is the blobs themselves, regardless of the (much larger) build
// radius; repeated extraction is deterministic, and extraction runs safely
// concurrently with cuts.
func TestHierarchyExtractStable(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	var rows [][]float64
	truth := make([]int, 0, 460)
	for b := 0; b < 3; b++ {
		for i := 0; i < 150; i++ {
			rows = append(rows, []float64{
				float64(b)*40 + rng.NormFloat64(),
				rng.NormFloat64(),
			})
			truth = append(truth, b)
		}
	}
	for i := 0; i < 10; i++ {
		rows = append(rows, []float64{rng.Float64() * 120, 25 + rng.Float64()*10})
		truth = append(truth, -1)
	}
	c, err := NewClusterer(rows, 60)
	if err != nil {
		t.Fatal(err)
	}
	h, err := c.BuildHierarchy(5)
	if err != nil {
		t.Fatal(err)
	}
	sr, err := h.ExtractStable(0)
	if err != nil {
		t.Fatal(err)
	}
	if sr.NumClusters != 3 {
		t.Fatalf("stable clusters = %d, want 3 (clusters: %+v)", sr.NumClusters, sr.Clusters)
	}
	// Each blob maps to one stable cluster, near-completely.
	blobLbl := map[int]int32{}
	agree := 0
	for i, b := range truth {
		if b < 0 {
			continue
		}
		if l, ok := blobLbl[b]; !ok {
			blobLbl[b] = sr.Labels[i]
		} else if l == sr.Labels[i] {
			agree++
		}
	}
	if agree < 400 {
		t.Fatalf("blob/label agreement %d/447", agree)
	}
	sizes := 0
	for _, cl := range sr.Clusters {
		if cl.Stability <= 0 {
			t.Fatalf("non-positive stability: %+v", cl)
		}
		if !(cl.MaxEps > 0 && cl.MaxEps <= 60) {
			t.Fatalf("MaxEps out of range: %+v", cl)
		}
		sizes += cl.Size
	}
	counted := 0
	for _, l := range sr.Labels {
		if l >= 0 {
			counted++
		}
	}
	if sizes != counted {
		t.Fatalf("cluster sizes sum %d but %d labeled points", sizes, counted)
	}
	// Deterministic, and safe alongside concurrent cuts.
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if g%2 == 0 {
				h.CutEps(10)
			} else {
				sr2, err := h.ExtractStable(0)
				if err != nil || sr2.NumClusters != sr.NumClusters {
					t.Errorf("concurrent ExtractStable: %v / %d clusters", err, sr2.NumClusters)
					return
				}
				for i := range sr.Labels {
					if sr.Labels[i] != sr2.Labels[i] {
						t.Errorf("ExtractStable not deterministic at %d", i)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if _, err := h.ExtractStable(1); err == nil {
		t.Fatal("ExtractStable(1) succeeded")
	}
	// A threshold above every blob leaves only noise.
	srBig, err := h.ExtractStable(200)
	if err != nil {
		t.Fatal(err)
	}
	if srBig.NumClusters != 1 {
		// All three blobs are under 200 points, so only the root component
		// (everything merged below eps=60) can qualify.
		t.Fatalf("minClusterSize=200: %d clusters", srBig.NumClusters)
	}
}

// TestHierarchyMinPtsOne: MinPts=1 makes every point core with core
// distance zero — the degenerate case where each cut is pure single-linkage
// within eps.
func TestHierarchyMinPtsOne(t *testing.T) {
	rows := blobs(300, 2, 11)
	c, err := NewClusterer(rows, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	h, err := c.BuildHierarchy(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []float64{0.5, 1.0, 2.0} {
		cut, err := h.CutEps(q)
		if err != nil {
			t.Fatal(err)
		}
		for i, core := range cut.Core {
			if !core {
				t.Fatalf("eps=%v: point %d not core at MinPts=1", q, i)
			}
		}
		batch, err := Cluster(rows, Config{Eps: q, MinPts: 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := equivalentResults(cut, batch); err != nil {
			t.Fatalf("eps=%v: %v", q, err)
		}
	}
}
