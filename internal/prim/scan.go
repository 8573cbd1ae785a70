// Package prim reimplements the parallel primitives the paper takes from the
// Problem Based Benchmark Suite (PBBS): prefix sum, filter, merge, comparison
// sort, integer sort, and semisort (Table 1 of the paper). Each primitive
// matches the work bound of its PBBS counterpart; depth is polylogarithmic in
// the blocked-scheduler model of internal/parallel.
//
// Every primitive takes an explicit *parallel.Pool as its first argument and
// sizes its block partition by that pool's budget; a nil pool means the
// default (GOMAXPROCS) budget. Primitives keep no state between calls, so
// concurrent invocations with different pools never interfere.
package prim

import (
	"pdbscan/internal/parallel"
)

// Number is the constraint for scan/reduce element types.
type Number interface {
	~int | ~int32 | ~int64 | ~uint32 | ~uint64 | ~float64
}

// PrefixSum computes the exclusive prefix sum of a into out (out[i] = sum of
// a[:i]) and returns the total sum of a. out must have len(a) elements; it may
// alias a. This is the classic two-pass blocked scan: per-block sums, a serial
// scan over the (few) block sums, then a per-block local scan. O(n) work.
func PrefixSum[T Number](ex *parallel.Pool, a, out []T) T {
	n := len(a)
	if n == 0 {
		return 0
	}
	nb := ex.NumBlocks(n, 0)
	if nb == 1 {
		var run T
		for i := 0; i < n; i++ {
			v := a[i]
			out[i] = run
			run += v
		}
		return run
	}
	sums := make([]T, nb)
	ex.BlockedForIdx(n, 0, func(b, lo, hi int) {
		var s T
		for i := lo; i < hi; i++ {
			s += a[i]
		}
		sums[b] = s
	})
	var total T
	for b := 0; b < nb; b++ {
		s := sums[b]
		sums[b] = total
		total += s
	}
	ex.BlockedForIdx(n, 0, func(b, lo, hi int) {
		run := sums[b]
		for i := lo; i < hi; i++ {
			v := a[i]
			out[i] = run
			run += v
		}
	})
	return total
}

// PrefixSumInPlace overwrites a with its exclusive prefix sum and returns the
// total.
func PrefixSumInPlace[T Number](ex *parallel.Pool, a []T) T {
	return PrefixSum(ex, a, a)
}

// Filter returns the elements of a for which pred is true, preserving order.
// O(n) work: per-block count, prefix sum of counts, per-block compaction into
// unique output ranges.
func Filter[T any](ex *parallel.Pool, a []T, pred func(T) bool) []T {
	n := len(a)
	if n == 0 {
		return nil
	}
	nb := ex.NumBlocks(n, 0)
	counts := make([]int, nb)
	ex.BlockedForIdx(n, 0, func(b, lo, hi int) {
		c := 0
		for i := lo; i < hi; i++ {
			if pred(a[i]) {
				c++
			}
		}
		counts[b] = c
	})
	total := PrefixSumInPlace(ex, counts)
	out := make([]T, total)
	ex.BlockedForIdx(n, 0, func(b, lo, hi int) {
		w := counts[b]
		for i := lo; i < hi; i++ {
			if pred(a[i]) {
				out[w] = a[i]
				w++
			}
		}
	})
	return out
}

// FilterIndex returns the indices i in [0, n) for which pred(i) is true, in
// increasing order. This is the form most algorithms in the library use
// (e.g. "collect the core cells").
func FilterIndex(ex *parallel.Pool, n int, pred func(int) bool) []int32 {
	if n == 0 {
		return nil
	}
	nb := ex.NumBlocks(n, 0)
	counts := make([]int, nb)
	ex.BlockedForIdx(n, 0, func(b, lo, hi int) {
		c := 0
		for i := lo; i < hi; i++ {
			if pred(i) {
				c++
			}
		}
		counts[b] = c
	})
	total := PrefixSumInPlace(ex, counts)
	out := make([]int32, total)
	ex.BlockedForIdx(n, 0, func(b, lo, hi int) {
		w := counts[b]
		for i := lo; i < hi; i++ {
			if pred(i) {
				out[w] = int32(i)
				w++
			}
		}
	})
	return out
}

// CountIf counts the i in [0, n) for which pred(i) holds, in parallel.
func CountIf(ex *parallel.Pool, n int, pred func(int) bool) int {
	return ex.ReduceInt(n, func(i int) int {
		if pred(i) {
			return 1
		}
		return 0
	})
}
