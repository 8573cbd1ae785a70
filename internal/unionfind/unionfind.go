// Package unionfind implements the lock-free concurrent union-find structure
// used by ClusterCore (Algorithm 3) to maintain cell-graph connected
// components on the fly. Roots are linked by index order (higher-index root
// is attached under the lower-index root) with CAS, which prevents cycles
// without locks; Find uses path halving with atomic writes.
//
// This mirrors the paper's design point: the paper's union-find is lock-free,
// in contrast to PDSDBSCAN's lock-based structure.
package unionfind

import (
	"sync/atomic"

	"pdbscan/internal/parallel"
	"pdbscan/internal/prim"
)

// UF is a concurrent union-find over the elements [0, n).
type UF struct {
	parent []int32
}

// New creates a union-find with n singleton sets.
func New(n int) *UF {
	u := &UF{}
	u.Reset(n)
	return u
}

// Reset reinitializes u to n singleton sets, reusing the backing array when
// it is large enough. The zero UF is valid input. Must not race with any
// other method; callers (the core scratch arena) reset between runs, never
// during one.
func (u *UF) Reset(n int) {
	if cap(u.parent) < n {
		u.parent = make([]int32, n)
	}
	u.parent = u.parent[:n]
	for i := range u.parent {
		u.parent[i] = int32(i)
	}
}

// Len returns the number of elements.
func (u *UF) Len() int { return len(u.parent) }

// Find returns the representative of x's set. Safe for concurrent use with
// Find and Union.
func (u *UF) Find(x int32) int32 {
	for {
		p := atomic.LoadInt32(&u.parent[x])
		if p == x {
			return x
		}
		gp := atomic.LoadInt32(&u.parent[p])
		if gp == p {
			return p
		}
		// Path halving: benign CAS; failure means someone else compressed.
		atomic.CompareAndSwapInt32(&u.parent[x], p, gp)
		x = gp
	}
}

// Union merges the sets containing x and y and returns the surviving root.
// Lock-free: retries until the two roots agree or a CAS links them.
func (u *UF) Union(x, y int32) int32 {
	for {
		rx := u.Find(x)
		ry := u.Find(y)
		if rx == ry {
			return rx
		}
		// Link the higher-index root below the lower-index root. The CAS
		// only succeeds if rx is still a root, preserving acyclicity.
		if rx < ry {
			rx, ry = ry, rx
		}
		if atomic.CompareAndSwapInt32(&u.parent[rx], rx, ry) {
			return ry
		}
	}
}

// DenseRoots finds, in parallel on ex, the roots of all elements i for which
// include(i) is true, and returns them ascending together with a dense
// relabeling: dense[r] = index of root r in roots (meaningful only for
// returned roots). This is the label-densification step shared by every
// clustering finisher (the core executor's label pass, the baselines). Many
// elements share a root, so the marking pass uses atomic same-value stores to
// stay race-free; callers must not run concurrent Unions during the call.
func DenseRoots(ex *parallel.Pool, uf *UF, include func(i int32) bool) (roots []int32, dense []int32) {
	n := uf.Len()
	isRoot := make([]int32, n)
	ex.For(n, func(i int) {
		if include(int32(i)) {
			atomic.StoreInt32(&isRoot[uf.Find(int32(i))], 1)
		}
	})
	roots = prim.FilterIndex(ex, n, func(i int) bool { return isRoot[i] != 0 })
	dense = make([]int32, n)
	ex.For(len(roots), func(i int) { dense[roots[i]] = int32(i) })
	return roots, dense
}

// SameSet reports whether x and y are currently in the same set. In the
// presence of concurrent Unions the answer is a snapshot; ClusterCore uses it
// only as a pruning hint (a stale "false" costs one redundant connectivity
// query, never correctness).
func (u *UF) SameSet(x, y int32) bool {
	for {
		rx := u.Find(x)
		ry := u.Find(y)
		if rx == ry {
			return true
		}
		// rx is a root at the time of the load below; if it still is, the
		// answer "false" was true at that instant.
		if atomic.LoadInt32(&u.parent[rx]) == rx {
			return false
		}
	}
}
