package core

import (
	"sync"

	"pdbscan/internal/unionfind"
)

// Arena pools the scratch state of pipeline runs so that repeated Run calls
// on one Clusterer (or streaming ticks on one StreamingClusterer) allocate
// almost nothing in steady state. It holds two kinds of scratch:
//
//   - runScratch: the per-run phase buffers (per-cell core lists and their
//     flat backing store, core bounding boxes, the size-sorted cell order,
//     the union-find, lazy tree/USEC tables). Exactly one run checks a
//     runScratch out for its whole duration and returns it at the end.
//
//   - workerScratch: the small per-worker buffers of the parallel hot loops
//     (BCP filter outputs, border label sets, distance-ordered neighbor
//     lists). A parallel phase checks one out per contiguous block — each
//     block runs on exactly one goroutine, so a checked-out workerScratch is
//     always single-owner; there is no sharing to argue about.
//
// Ownership rules: buffers handed out of a scratch must never outlive the
// run (anything that escapes into a Result — labels, core flags, border
// membership lists — is freshly allocated). Checkout and return go through a
// mutex-guarded free list, so concurrent Runs on one Clusterer are safe:
// each pops its own scratch (or starts a fresh one when the list is empty)
// and pushes it back when done. A nil *Arena is valid everywhere and means
// "no pooling": every checkout returns a fresh scratch and returns are
// dropped, which is exactly the one-shot Cluster behavior.
type Arena struct {
	mu      sync.Mutex
	runs    []*runScratch
	workers []*workerScratch
}

// NewArena returns an empty arena. Clusterer and StreamingClusterer create
// one per instance; one-shot entry points run with a nil arena.
func NewArena() *Arena { return &Arena{} }

// runScratch is the pooled per-run state. Buffers grow to the high-water
// mark of the runs that used them and are reused as-is; every consumer
// either overwrites its region in full or clears it on checkout (the lazy
// tables, whose zero value is meaningful).
type runScratch struct {
	corePts   [][]int32
	coreStore []int32 // flat backing for small-cell core lists, cell g's region at CellStart[g]
	coreBBLo  []float64
	coreBBHi  []float64
	order     []int32 // size-sorted core cell traversal order
	uf        unionfind.UF
	allTrees  []lazyTree
	coreTrees []lazyTree
	usecCells []usecCell
}

// workerScratch is the pooled per-worker state of the parallel hot loops.
type workerScratch struct {
	gf, hf    []int32   // bcpConnected: box-filtered core point lists
	found     []int32   // clusterBorder: distinct cluster labels of one point
	sure      []int32   // clusterBorder: labels certain for a whole cell
	cand      []int32   // clusterBorder: cells needing per-point scans
	nbrOrder  []int32   // markCellCore: neighbor cells, ascending box distance
	nbrDist   []float64 // markCellCore: the distances of nbrOrder
	cellOrder []int32   // clusterShard: per-shard size-sorted owned core cells
	sorter    nbrSorter // markCellCore: allocation-free sort.Sort adapter

	kthHeap   []float64    // cellCoreDistances: bounded max-heap of the k smallest d2
	mrEdges   []MREdge     // mrEdgeParts: per-block candidate edge buffer
	mrUF      unionfind.UF // mrEdgeParts: per-block Kruskal compaction state
	primOwn   []int32      // cellMREdges: own-cell core-capable vertex list
	primVerts []int32      // cellMREdges: per-cell-pair bipartite vertex list
	primKey   []float64    // primForest: best edge weight to the growing tree
	primFrom  []int32      // primForest: tree endpoint (original index) of the best edge
	primID    []int32      // primForest: original index of each vertex
	primSide  []bool       // primForest: bipartite side flag per vertex
}

// getRun checks a runScratch out of the arena (a fresh one when the arena is
// nil or empty).
func (a *Arena) getRun() *runScratch {
	if a == nil {
		return &runScratch{}
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if n := len(a.runs); n > 0 {
		rs := a.runs[n-1]
		a.runs = a.runs[:n-1]
		return rs
	}
	return &runScratch{}
}

// putRun returns a runScratch to the arena (dropped when the arena is nil).
func (a *Arena) putRun(rs *runScratch) {
	if a == nil || rs == nil {
		return
	}
	a.mu.Lock()
	a.runs = append(a.runs, rs)
	a.mu.Unlock()
}

// getWorker checks a workerScratch out of the arena.
func (a *Arena) getWorker() *workerScratch {
	if a == nil {
		return &workerScratch{}
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if n := len(a.workers); n > 0 {
		ws := a.workers[n-1]
		a.workers = a.workers[:n-1]
		return ws
	}
	return &workerScratch{}
}

// putWorker returns a workerScratch to the arena.
func (a *Arena) putWorker(ws *workerScratch) {
	if a == nil || ws == nil {
		return
	}
	a.mu.Lock()
	a.workers = append(a.workers, ws)
	a.mu.Unlock()
}

// int32Buf returns buf resized to n without preserving contents.
func int32Buf(buf []int32, n int) []int32 {
	if cap(buf) < n {
		return make([]int32, n)
	}
	return buf[:n]
}

// floatBuf returns buf resized to n without preserving contents.
func floatBuf(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// slicesBuf returns buf resized to n with every slot up to the full capacity
// cleared: entries within n are overwritten by every consumer before use,
// but slots beyond n would otherwise pin the point lists of a previous,
// larger run after the cell count shrinks.
func slicesBuf(buf [][]int32, n int) [][]int32 {
	if cap(buf) < n {
		return make([][]int32, n)
	}
	buf = buf[:cap(buf)]
	clear(buf)
	return buf[:n]
}

// lazyTreeBuf returns buf resized to n with every slot up to the full
// capacity cleared: the zero lazyTree (unfired sync.Once, nil tree) is the
// meaningful initial state, and tree pointers beyond n must not outlive a
// shrinking cell count.
func lazyTreeBuf(buf []lazyTree, n int) []lazyTree {
	if cap(buf) < n {
		return make([]lazyTree, n)
	}
	buf = buf[:cap(buf)]
	clear(buf)
	return buf[:n]
}

// usecCellBuf returns buf resized to n with every slot up to the full
// capacity cleared (same reasoning as lazyTreeBuf).
func usecCellBuf(buf []usecCell, n int) []usecCell {
	if cap(buf) < n {
		return make([]usecCell, n)
	}
	buf = buf[:cap(buf)]
	clear(buf)
	return buf[:n]
}
