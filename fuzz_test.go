package pdbscan

import (
	"bytes"
	"encoding/binary"
	"math"
	"path/filepath"
	"testing"

	"pdbscan/internal/dataset"
	"pdbscan/internal/geom"
	"pdbscan/internal/metrics"
)

// FuzzClusterInvariants feeds arbitrary bytes as 2D points and checks that
// Cluster either rejects the input or returns a result satisfying the
// DBSCAN definition (compared against the brute-force oracle).
func FuzzClusterInvariants(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}, uint8(10), uint8(2))
	f.Add(bytes.Repeat([]byte{0}, 64), uint8(1), uint8(1))
	f.Add([]byte{255, 255, 0, 0, 128, 64, 32, 16, 8, 4, 2, 1}, uint8(50), uint8(3))
	f.Fuzz(func(t *testing.T, raw []byte, epsQ, minPtsQ uint8) {
		if len(raw) < 16 {
			return
		}
		if len(raw) > 64*16 {
			raw = raw[:64*16]
		}
		// Decode pairs of uint64 -> small finite floats.
		n := len(raw) / 16
		rows := make([][]float64, 0, n)
		for i := 0; i < n; i++ {
			x := binary.LittleEndian.Uint64(raw[i*16:])
			y := binary.LittleEndian.Uint64(raw[i*16+8:])
			rows = append(rows, []float64{
				float64(x%10000) / 100,
				float64(y%10000) / 100,
			})
		}
		eps := 0.1 + float64(epsQ)/8
		minPts := 1 + int(minPtsQ)%6
		res, err := Cluster(rows, Config{Eps: eps, MinPts: minPts})
		if err != nil {
			t.Fatalf("valid input rejected: %v", err)
		}
		pts, _ := geom.FromRows(rows)
		ref := metrics.BruteDBSCAN(pts, eps, minPts)
		if err := metrics.SameDBSCANResult(ref, res.Core, res.Labels, res.Border, res.NumClusters); err != nil {
			t.Fatalf("eps=%v minPts=%d n=%d: %v", eps, minPts, len(rows), err)
		}
	})
}

// FuzzStreamingOps feeds arbitrary bytes as an insert/remove/window op
// sequence to a StreamingClusterer and checks after every tick that the
// incremental result matches the brute-force oracle on the current point set
// (exact methods rotate per tick; the op interleavings are the fuzz surface —
// slot reuse, cell death/rebirth, empty windows).
func FuzzStreamingOps(f *testing.F) {
	f.Add([]byte{0, 17, 33, 0, 40, 41, 2, 0, 0, 50, 60, 3, 1}, uint8(8), uint8(2))
	f.Add(bytes.Repeat([]byte{0, 1, 2}, 12), uint8(3), uint8(1))
	f.Add([]byte{0, 10, 10, 0, 10, 11, 0, 11, 10, 2, 1, 3, 0, 0, 5, 5}, uint8(16), uint8(3))
	f.Fuzz(func(t *testing.T, raw []byte, epsQ, minPtsQ uint8) {
		if len(raw) > 64 {
			raw = raw[:64]
		}
		eps := 0.5 + float64(epsQ%32)/8
		minPts := 1 + int(minPtsQ)%5
		s, err := NewStreamingClusterer(2, eps)
		if err != nil {
			t.Fatal(err)
		}
		methods := []Method{MethodExact, MethodExactQt, Method2DGridUSEC, Method2DBoxBCP, Method2DGridDelaunay}
		var ids []int64
		tick := 0
		pos := 0
		next := func() (byte, bool) {
			if pos >= len(raw) {
				return 0, false
			}
			b := raw[pos]
			pos++
			return b, true
		}
		for {
			op, ok := next()
			if !ok {
				break
			}
			switch op % 4 {
			case 0, 1: // insert one point
				xb, ok1 := next()
				yb, ok2 := next()
				if !ok1 || !ok2 {
					return
				}
				got, err := s.Insert([][]float64{{float64(xb) / 16, float64(yb) / 16}})
				if err != nil {
					t.Fatalf("insert: %v", err)
				}
				ids = append(ids, got[0])
			case 2: // remove the k-th live point
				kb, ok := next()
				if !ok {
					return
				}
				if len(ids) == 0 {
					continue
				}
				k := int(kb) % len(ids)
				if err := s.Remove(ids[k]); err != nil {
					t.Fatalf("remove: %v", err)
				}
				ids = append(ids[:k], ids[k+1:]...)
			case 3: // slide the window
				nb, ok := next()
				if !ok {
					return
				}
				keep := int(nb) % (len(ids) + 1)
				evicted := s.Window(keep)
				if len(ids)-len(evicted) != keep && len(ids) > keep {
					t.Fatalf("window(%d): evicted %d of %d", keep, len(evicted), len(ids))
				}
				if len(ids) > keep {
					ids = ids[len(ids)-keep:]
				}
			}
			m := methods[tick%len(methods)]
			tick++
			res, err := s.Run(Config{MinPts: minPts, Method: m})
			if err != nil {
				t.Fatalf("run %s: %v", m, err)
			}
			if len(ids) == 0 {
				if res.NumClusters != 0 {
					t.Fatalf("empty stream: %d clusters", res.NumClusters)
				}
				continue
			}
			rows := make([][]float64, 0, len(ids))
			for _, id := range s.IDs() {
				row, ok := s.Point(id)
				if !ok {
					t.Fatalf("live id %d missing", id)
				}
				rows = append(rows, row)
			}
			pts, _ := geom.FromRows(rows)
			ref := metrics.BruteDBSCAN(pts, eps, minPts)
			if err := metrics.SameDBSCANResult(ref, res.Core, res.Labels, res.Border, res.NumClusters); err != nil {
				t.Fatalf("tick %d %s eps=%v minPts=%d n=%d: %v", tick, m, eps, minPts, len(rows), err)
			}
		}
	})
}

// FuzzShardedCluster feeds arbitrary bytes as 2D points plus a shard count
// and differentially checks both sharded paths against the monolithic one on
// the identical input: the in-RAM sharded run must be label-permutation-equal
// for a rotating method (exact and approx), the out-of-core Spill run over a
// store written with that shard count bit-identical (every method here uses
// the grid layout), and the exact ones must pass the oracle. The fuzz
// surface is the partition geometry — cut placement, halo width, boundary
// dedup, window stitching — under adversarial point layouts; the seeded
// corpus includes a boundary-straddling chain at exact-eps spacing, the
// layout most likely to shatter at a cut.
func FuzzShardedCluster(f *testing.F) {
	// A cluster chain along x at exact-eps spacing (eps = 0.1+16/8 = 2.1 at
	// epsQ=16 ... the chain spacing 1.0 keeps pairs connected for most eps),
	// plus scattered noise. Every cut through the chain splits a cluster.
	chain := make([]byte, 0, 24*16)
	for i := 0; i < 24; i++ {
		var p [16]byte
		binary.LittleEndian.PutUint64(p[:8], uint64(i*100))  // x = i * 1.0
		binary.LittleEndian.PutUint64(p[8:], uint64(i%2*25)) // y jitter 0.25
		chain = append(chain, p[:]...)
	}
	f.Add(chain, uint8(8), uint8(2), uint8(5))
	f.Add(bytes.Repeat([]byte{7, 3}, 40), uint8(3), uint8(1), uint8(2))
	f.Add([]byte{255, 255, 0, 0, 128, 64, 32, 16, 8, 4, 2, 1, 9, 9, 9, 9}, uint8(50), uint8(3), uint8(255))
	f.Fuzz(func(t *testing.T, raw []byte, epsQ, minPtsQ, shardsQ uint8) {
		if len(raw) < 16 {
			return
		}
		if len(raw) > 64*16 {
			raw = raw[:64*16]
		}
		n := len(raw) / 16
		rows := make([][]float64, 0, n)
		for i := 0; i < n; i++ {
			x := binary.LittleEndian.Uint64(raw[i*16:])
			y := binary.LittleEndian.Uint64(raw[i*16+8:])
			rows = append(rows, []float64{
				float64(x%10000) / 100,
				float64(y%10000) / 100,
			})
		}
		eps := 0.1 + float64(epsQ)/8
		minPts := 1 + int(minPtsQ)%6
		shards := 2 + int(shardsQ)%15
		methods := []Method{MethodExact, MethodExactQt, Method2DGridUSEC, Method2DGridDelaunay, MethodApprox}
		m := methods[(int(epsQ)+int(shardsQ))%len(methods)]
		cfg := Config{Eps: eps, MinPts: minPts, Method: m}
		mono, err := Cluster(rows, cfg)
		if err != nil {
			t.Fatalf("monolithic rejected valid input: %v", err)
		}
		shCfg := cfg
		shCfg.Shards = shards
		sh, err := Cluster(rows, shCfg)
		if err != nil {
			t.Fatalf("sharded rejected valid input: %v", err)
		}
		if err := equivalentResults(sh, mono); err != nil {
			t.Fatalf("%s eps=%v minPts=%d shards=%d n=%d: sharded vs monolithic: %v",
				m, eps, minPts, shards, n, err)
		}
		c, err := NewClusterer(rows, eps)
		if err != nil {
			t.Fatalf("NewClusterer rejected valid input: %v", err)
		}
		path := filepath.Join(t.TempDir(), "pts.cells")
		if err := c.WriteStore(path, shards); err != nil {
			t.Fatalf("WriteStore: %v", err)
		}
		sc, err := OpenStoreClusterer(path)
		if err != nil {
			t.Fatalf("OpenStoreClusterer: %v", err)
		}
		defer sc.Close()
		spillCfg := cfg
		spillCfg.Spill = true
		sp, err := sc.Run(spillCfg)
		if err != nil {
			t.Fatalf("Spill run rejected valid input: %v", err)
		}
		if err := labelsEqual(sp, mono); err != nil {
			t.Fatalf("%s eps=%v minPts=%d shards=%d n=%d: Spill vs monolithic: %v",
				m, eps, minPts, shards, n, err)
		}
		if m != MethodApprox {
			pts, _ := geom.FromRows(rows)
			ref := metrics.BruteDBSCAN(pts, eps, minPts)
			if err := metrics.SameDBSCANResult(ref, sh.Core, sh.Labels, sh.Border, sh.NumClusters); err != nil {
				t.Fatalf("%s eps=%v minPts=%d shards=%d n=%d: oracle: %v", m, eps, minPts, shards, n, err)
			}
		}
	})
}

// FuzzHierarchyCut feeds arbitrary bytes as 2D points plus a query-radius
// sequence and differentially checks the dendrogram path against the batch
// path: one BuildHierarchy, then every radius in the sequence answered by
// CutEps on the shared Hierarchy — whose union-find replay advances or
// resets depending on the previous query — must be label-permutation-equal
// to a from-scratch Cluster at the same radius. The fuzz surface is the
// replay state machine under adversarial query orders and the exact-
// threshold edge cases; the seeded corpus includes the shard suite's
// exact-eps chain, where every query at the chain spacing is a boundary
// decision.
func FuzzHierarchyCut(f *testing.F) {
	// Chain along x at exact spacing 1.0 with alternating y jitter (the
	// FuzzShardedCluster layout): queried at the spacing itself, every link
	// is a d == eps inclusive-boundary case.
	chain := make([]byte, 0, 24*16)
	for i := 0; i < 24; i++ {
		var p [16]byte
		binary.LittleEndian.PutUint64(p[:8], uint64(i*100))  // x = i * 1.0
		binary.LittleEndian.PutUint64(p[8:], uint64(i%2*25)) // y jitter 0.25
		chain = append(chain, p[:]...)
	}
	// Query fractions: 8/64 of buildEps 8 = 1.0 — exactly the chain spacing
	// — surrounded by smaller and larger radii in a zigzag order.
	f.Add(chain, []byte{8, 4, 8, 63, 8, 1}, uint8(2))
	f.Add(bytes.Repeat([]byte{0}, 64), []byte{32, 16, 48}, uint8(1))
	f.Add([]byte{255, 255, 0, 0, 128, 64, 32, 16, 8, 4, 2, 1, 9, 9, 9, 9}, []byte{5, 60, 30}, uint8(3))
	f.Fuzz(func(t *testing.T, raw, epsSeq []byte, minPtsQ uint8) {
		if len(raw) < 16 || len(epsSeq) == 0 {
			return
		}
		if len(raw) > 48*16 {
			raw = raw[:48*16]
		}
		if len(epsSeq) > 12 {
			epsSeq = epsSeq[:12]
		}
		n := len(raw) / 16
		rows := make([][]float64, 0, n)
		for i := 0; i < n; i++ {
			x := binary.LittleEndian.Uint64(raw[i*16:])
			y := binary.LittleEndian.Uint64(raw[i*16+8:])
			rows = append(rows, []float64{
				float64(x%10000) / 100,
				float64(y%10000) / 100,
			})
		}
		const buildEps = 8.0
		minPts := 1 + int(minPtsQ)%6
		c, err := NewClusterer(rows, buildEps)
		if err != nil {
			t.Fatalf("valid input rejected: %v", err)
		}
		h, err := c.BuildHierarchy(minPts)
		if err != nil {
			t.Fatalf("BuildHierarchy: %v", err)
		}
		for qi, b := range epsSeq {
			q := buildEps * float64(1+int(b)%64) / 64
			cut, err := h.CutEps(q)
			if err != nil {
				t.Fatalf("CutEps(%v): %v", q, err)
			}
			batch, err := Cluster(rows, Config{Eps: q, MinPts: minPts})
			if err != nil {
				t.Fatalf("batch eps=%v: %v", q, err)
			}
			if err := equivalentResults(cut, batch); err != nil {
				t.Fatalf("query %d eps=%v minPts=%d n=%d: hierarchy vs batch: %v",
					qi, q, minPts, n, err)
			}
		}
	})
}

// FuzzCSVReader checks that the CSV reader never panics and that whatever it
// accepts round-trips through the writer.
func FuzzCSVReader(f *testing.F) {
	f.Add("1,2\n3,4\n")
	f.Add("# comment\n1.5e3, -2\n")
	f.Add("nan,inf\n")
	f.Add("")
	f.Fuzz(func(t *testing.T, s string) {
		pts, err := dataset.ReadCSV(bytes.NewBufferString(s))
		if err != nil {
			return
		}
		// Round-trip only for finite data (the writer emits shortest-form
		// floats, which re-read exactly).
		for _, v := range pts.Data {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return
			}
		}
		var buf bytes.Buffer
		if err := dataset.WriteCSV(&buf, pts); err != nil {
			t.Fatalf("write of accepted data failed: %v", err)
		}
		back, err := dataset.ReadCSV(&buf)
		if err != nil {
			t.Fatalf("round-trip read failed: %v", err)
		}
		if back.N != pts.N || back.D != pts.D {
			t.Fatalf("round-trip shape changed: %dx%d -> %dx%d", pts.N, pts.D, back.N, back.D)
		}
		for i := range pts.Data {
			if back.Data[i] != pts.Data[i] {
				t.Fatalf("round-trip value changed at %d", i)
			}
		}
	})
}
