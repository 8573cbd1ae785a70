package prim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestPrefixSumMatchesSerial(t *testing.T) {
	f := func(xs []int32) bool {
		a := make([]int64, len(xs))
		for i, x := range xs {
			a[i] = int64(x)
		}
		out := make([]int64, len(a))
		total := PrefixSum(nil, a, out)
		var run int64
		for i := range a {
			if out[i] != run {
				return false
			}
			run += a[i]
		}
		return total == run
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPrefixSumLargeInPlace(t *testing.T) {
	n := 1 << 20
	a := make([]int, n)
	for i := range a {
		a[i] = 1
	}
	total := PrefixSumInPlace(nil, a)
	if total != n {
		t.Fatalf("total = %d, want %d", total, n)
	}
	for i := 0; i < n; i += 131071 {
		if a[i] != i {
			t.Fatalf("a[%d] = %d, want %d", i, a[i], i)
		}
	}
}

func TestPrefixSumEmpty(t *testing.T) {
	if got := PrefixSum[int](nil, nil, nil); got != 0 {
		t.Fatalf("empty prefix sum = %v", got)
	}
}

func TestFilterPreservesOrder(t *testing.T) {
	f := func(xs []int16) bool {
		pred := func(x int16) bool { return x%3 == 0 }
		got := Filter(nil, xs, pred)
		var want []int16
		for _, x := range xs {
			if pred(x) {
				want = append(want, x)
			}
		}
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestFilterIndexLarge(t *testing.T) {
	n := 1 << 19
	idx := FilterIndex(nil, n, func(i int) bool { return i%7 == 0 })
	want := (n + 6) / 7
	if len(idx) != want {
		t.Fatalf("len = %d, want %d", len(idx), want)
	}
	for k, i := range idx {
		if int(i) != k*7 {
			t.Fatalf("idx[%d] = %d, want %d", k, i, k*7)
		}
	}
}

func TestCountIf(t *testing.T) {
	if got := CountIf(nil, 1000, func(i int) bool { return i < 10 }); got != 10 {
		t.Fatalf("CountIf = %d, want 10", got)
	}
}

func TestMergeMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 30; trial++ {
		na, nb := rng.Intn(20000), rng.Intn(20000)
		a := make([]int, na)
		b := make([]int, nb)
		for i := range a {
			a[i] = rng.Intn(5000)
		}
		for i := range b {
			b[i] = rng.Intn(5000)
		}
		sort.Ints(a)
		sort.Ints(b)
		out := make([]int, na+nb)
		Merge(nil, a, b, out, func(x, y int) bool { return x < y })
		want := append(append([]int{}, a...), b...)
		sort.Ints(want)
		for i := range out {
			if out[i] != want[i] {
				t.Fatalf("trial %d: out[%d] = %d, want %d", trial, i, out[i], want[i])
			}
		}
	}
}

func TestMergeEmptySides(t *testing.T) {
	less := func(x, y int) bool { return x < y }
	out := make([]int, 3)
	Merge(nil, nil, []int{1, 2, 3}, out, less)
	if out[0] != 1 || out[2] != 3 {
		t.Fatalf("merge with empty a: %v", out)
	}
	Merge(nil, []int{4, 5, 6}, nil, out, less)
	if out[0] != 4 || out[2] != 6 {
		t.Fatalf("merge with empty b: %v", out)
	}
	Merge(nil, nil, nil, nil, less) // must not panic
}

func TestSortMatchesStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{0, 1, 2, 100, 8192, 8193, 200000} {
		a := make([]int, n)
		for i := range a {
			a[i] = rng.Intn(1000)
		}
		want := append([]int{}, a...)
		sort.Ints(want)
		Sort(nil, a, func(x, y int) bool { return x < y })
		for i := range a {
			if a[i] != want[i] {
				t.Fatalf("n=%d: a[%d] = %d, want %d", n, i, a[i], want[i])
			}
		}
	}
}

func TestSortStability(t *testing.T) {
	type kv struct{ k, seq int }
	n := 100000
	a := make([]kv, n)
	rng := rand.New(rand.NewSource(3))
	for i := range a {
		a[i] = kv{k: rng.Intn(50), seq: i}
	}
	Sort(nil, a, func(x, y kv) bool { return x.k < y.k })
	for i := 1; i < n; i++ {
		if a[i].k == a[i-1].k && a[i].seq < a[i-1].seq {
			t.Fatalf("stability violated at %d", i)
		}
	}
}

func TestRadixSortPairsMatchesStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, n := range []int{0, 1, 3, 1000, 100000} {
		keys := make([]uint64, n)
		vals := make([]int32, n)
		for i := range keys {
			keys[i] = uint64(rng.Uint32())
			vals[i] = int32(i)
		}
		type pair struct {
			k uint64
			v int32
		}
		want := make([]pair, n)
		for i := range want {
			want[i] = pair{keys[i], vals[i]}
		}
		sort.SliceStable(want, func(i, j int) bool { return want[i].k < want[j].k })
		RadixSortPairs(nil, keys, vals, 32)
		for i := 0; i < n; i++ {
			if keys[i] != want[i].k || vals[i] != want[i].v {
				t.Fatalf("n=%d idx=%d: got (%d,%d) want (%d,%d)",
					n, i, keys[i], vals[i], want[i].k, want[i].v)
			}
		}
	}
}

func TestRadixSortPartialBits(t *testing.T) {
	keys := []uint64{5, 3, 5, 1, 0, 7, 2}
	vals := []int32{0, 1, 2, 3, 4, 5, 6}
	RadixSortPairs(nil, keys, vals, 3)
	for i := 1; i < len(keys); i++ {
		if keys[i] < keys[i-1] {
			t.Fatalf("not sorted at %d: %v", i, keys)
		}
	}
}

func TestIntegerSort(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 50000
	keyRange := 1 << 7 // like quadtree children for d=7
	keys := make([]int32, n)
	vals := make([]int32, n)
	for i := range keys {
		keys[i] = int32(rng.Intn(keyRange))
		vals[i] = int32(i)
	}
	IntegerSort(nil, keys, vals, keyRange)
	for i := 1; i < n; i++ {
		if keys[i] < keys[i-1] {
			t.Fatalf("not sorted at %d", i)
		}
	}
	// Stability: vals with equal keys must remain in increasing order.
	for i := 1; i < n; i++ {
		if keys[i] == keys[i-1] && vals[i] < vals[i-1] {
			t.Fatalf("instability at %d", i)
		}
	}
}

func TestSemisortGroupsContiguous(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, n := range []int{0, 1, 10, 1000, 200000} {
		keys := make([]uint64, n)
		for i := range keys {
			keys[i] = uint64(rng.Intn(97)) // few distinct keys -> big groups
		}
		res := Semisort(nil, keys)
		if len(res.Order) != n {
			t.Fatalf("order length %d, want %d", len(res.Order), n)
		}
		// Every index appears exactly once.
		seen := make([]bool, n)
		for _, idx := range res.Order {
			if seen[idx] {
				t.Fatalf("duplicate index %d", idx)
			}
			seen[idx] = true
		}
		// Groups partition [0,n) and are key-homogeneous; no key appears in
		// two groups.
		groupOf := map[uint64]int{}
		for g := 0; g+1 < len(res.GroupStart); g++ {
			lo, hi := res.GroupStart[g], res.GroupStart[g+1]
			if lo >= hi {
				t.Fatalf("empty group %d", g)
			}
			k := keys[res.Order[lo]]
			for i := lo; i < hi; i++ {
				if keys[res.Order[i]] != k {
					t.Fatalf("group %d mixes keys", g)
				}
			}
			if prev, ok := groupOf[k]; ok {
				t.Fatalf("key %d split across groups %d and %d", k, prev, g)
			}
			groupOf[k] = g
		}
		// Distinct-key count must match.
		distinct := map[uint64]bool{}
		for _, k := range keys {
			distinct[k] = true
		}
		if res.NumGroups() != len(distinct) {
			t.Fatalf("groups = %d, want %d", res.NumGroups(), len(distinct))
		}
	}
}

func TestSemisortAllEqualKeys(t *testing.T) {
	keys := make([]uint64, 100000)
	res := Semisort(nil, keys)
	if res.NumGroups() != 1 {
		t.Fatalf("groups = %d, want 1", res.NumGroups())
	}
}

func TestSemisortAllDistinctKeys(t *testing.T) {
	n := 50000
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(i) * 2654435761
	}
	res := Semisort(nil, keys)
	if res.NumGroups() != n {
		t.Fatalf("groups = %d, want %d", res.NumGroups(), n)
	}
}

func TestMix64Distinct(t *testing.T) {
	seen := map[uint64]bool{}
	for i := uint64(0); i < 10000; i++ {
		h := Mix64(i)
		if seen[h] {
			t.Fatalf("collision at %d", i)
		}
		seen[h] = true
	}
}
