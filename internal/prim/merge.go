package prim

import (
	"sort"

	"pdbscan/internal/parallel"
)

// Merge merges two sorted slices a and b into out using less as the strict
// weak ordering. len(out) must be len(a)+len(b). The algorithm follows the
// paper's description (Section 2): equally spaced pivots from the larger side
// are binary-searched in the other side, creating independent sub-merges that
// run in parallel and are each solved serially. O(n) work, O(log n) depth.
func Merge[T any](ex *parallel.Pool, a, b, out []T, less func(x, y T) bool) {
	n := len(a) + len(b)
	if n == 0 {
		return
	}
	if len(out) != n {
		panic("prim.Merge: out has wrong length")
	}
	// Small inputs: serial merge.
	const serialCutoff = 4096
	if n <= serialCutoff {
		serialMerge(a, b, out, less)
		return
	}
	// Choose the number of sub-merges proportional to available workers.
	pieces := ex.Workers() * 4
	if pieces > n/serialCutoff+1 {
		pieces = n/serialCutoff + 1
	}
	if pieces < 2 {
		serialMerge(a, b, out, less)
		return
	}
	// Pivot positions in a; binary search each pivot in b. Sub-merge k handles
	// a[aCut[k]:aCut[k+1]] with b[bCut[k]:bCut[k+1]].
	aCut := make([]int, pieces+1)
	bCut := make([]int, pieces+1)
	aCut[pieces] = len(a)
	bCut[pieces] = len(b)
	for k := 1; k < pieces; k++ {
		aCut[k] = len(a) * k / pieces
	}
	ex.For(pieces-1, func(i int) {
		k := i + 1
		pivot := a[aCut[k]-1] // last element of piece k-1's a-range
		// All b elements strictly less than pivot go to earlier pieces;
		// elements equal to pivot stay after it to keep stability (a first).
		bCut[k] = sort.Search(len(b), func(j int) bool { return !less(b[j], pivot) })
	})
	// bCut must be non-decreasing; binary searches on a sorted b guarantee it
	// when pivots are non-decreasing, which they are since a is sorted.
	ex.ForGrain(pieces, 1, func(k int) {
		alo, ahi := aCut[k], aCut[k+1]
		blo, bhi := bCut[k], bCut[k+1]
		serialMerge(a[alo:ahi], b[blo:bhi], out[alo+blo:ahi+bhi], less)
	})
}

func serialMerge[T any](a, b, out []T, less func(x, y T) bool) {
	i, j, k := 0, 0, 0
	for i < len(a) && j < len(b) {
		if less(b[j], a[i]) {
			out[k] = b[j]
			j++
		} else {
			out[k] = a[i]
			i++
		}
		k++
	}
	for i < len(a) {
		out[k] = a[i]
		i++
		k++
	}
	for j < len(b) {
		out[k] = b[j]
		j++
		k++
	}
}

// Sort sorts a in place using a parallel merge sort built on Merge: the two
// halves are sorted in parallel (fork-join) and combined with the parallel
// merge. O(n log n) work, polylogarithmic depth. The sort is stable.
func Sort[T any](ex *parallel.Pool, a []T, less func(x, y T) bool) {
	if len(a) < 2 {
		return
	}
	mergeSort(ex, a, nil, less, ex.Workers())
}

// mergeSort sorts a using buf as scratch; a nil buf is allocated when the
// sort first forks, so a serial sort allocates none. budget limits fork
// depth so that at most ~2*budget goroutines are live.
func mergeSort[T any](ex *parallel.Pool, a, buf []T, less func(x, y T) bool, budget int) {
	const serialCutoff = 8192
	if len(a) <= serialCutoff || budget <= 1 {
		sort.SliceStable(a, func(i, j int) bool { return less(a[i], a[j]) })
		return
	}
	if buf == nil {
		buf = make([]T, len(a))
	}
	mid := len(a) / 2
	parallel.Do(
		func() { mergeSort(ex, a[:mid], buf[:mid], less, budget/2) },
		func() { mergeSort(ex, a[mid:], buf[mid:], less, budget-budget/2) },
	)
	Merge(ex, a[:mid], a[mid:], buf, less)
	copy(a, buf)
}
