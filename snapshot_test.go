package pdbscan

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
)

// snapBlob fills a streaming clusterer with clustered points and returns the
// inserted ids.
func snapFill(t *testing.T, s *StreamingClusterer, n int, seed int64) []int64 {
	t.Helper()
	ids, err := s.Insert(blobs(n, s.Dims(), seed))
	if err != nil {
		t.Fatal(err)
	}
	return ids
}

func snapEqualTicks(t *testing.T, name string, a, b *StreamResult) {
	t.Helper()
	if len(a.IDs) != len(b.IDs) {
		t.Fatalf("%s: %d vs %d ids", name, len(a.IDs), len(b.IDs))
	}
	for k := range a.IDs {
		if a.IDs[k] != b.IDs[k] {
			t.Fatalf("%s: id %d vs %d at row %d", name, a.IDs[k], b.IDs[k], k)
		}
		if a.Core[k] != b.Core[k] {
			t.Fatalf("%s: core flag of id %d: %v vs %v", name, a.IDs[k], a.Core[k], b.Core[k])
		}
	}
	if !permEqualLabels(a.Labels, b.Labels) {
		t.Fatalf("%s: labels not permutation-equal", name)
	}
	if a.NumClusters != b.NumClusters {
		t.Fatalf("%s: %d vs %d clusters", name, a.NumClusters, b.NumClusters)
	}
}

// TestSnapshotRoundTrip: snapshot a warm streaming clusterer with pending
// mutations, restore it, and drive the original and the restored clone
// through identical subsequent ticks — results must agree tick for tick, and
// the restored clusterer must stay incremental (not Full) with the same
// dirty-cell accounting as the original.
func TestSnapshotRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"exact", Config{MinPts: 6}},
		{"exact-qt", Config{MinPts: 6, Method: MethodExactQt}},
		{"approx", Config{MinPts: 6, Method: MethodApprox, Rho: 0.05}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := NewStreamingClusterer(2, 3.0)
			if err != nil {
				t.Fatal(err)
			}
			ids := snapFill(t, s, 800, 21)
			if _, err := s.Run(tc.cfg); err != nil {
				t.Fatal(err) // warm the caches
			}
			// Pending mutations the snapshot must carry as still-pending.
			if err := s.Remove(ids[10], ids[11], ids[12]); err != nil {
				t.Fatal(err)
			}
			snapFill(t, s, 50, 22)

			var buf bytes.Buffer
			if err := s.Snapshot(&buf); err != nil {
				t.Fatal(err)
			}
			r, err := RestoreStreaming(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			if r.Len() != s.Len() || r.Dims() != 2 || r.Eps() != 3.0 {
				t.Fatalf("restored shape: %d pts (want %d)", r.Len(), s.Len())
			}

			// Tick both; the snapshot must not have consumed the dirty set of
			// either side.
			want, err := s.Run(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			got, err := r.Run(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			snapEqualTicks(t, "post-restore tick", want, got)
			ss, rs := s.LastRunStats(), r.LastRunStats()
			if rs.Full {
				t.Fatal("restored tick ran Full: the incremental caches were lost")
			}
			if rs.DirtyCells != ss.DirtyCells || rs.NumCells != ss.NumCells {
				t.Fatalf("restored tick stats %+v, original %+v", rs, ss)
			}

			// Further identical mutations + ticks stay in lockstep, and ids
			// keep ascending from the same counter.
			rng := rand.New(rand.NewSource(33))
			for tick := 0; tick < 3; tick++ {
				rows := blobs(40, 2, int64(100+tick))
				i1, err := s.Insert(rows)
				if err != nil {
					t.Fatal(err)
				}
				i2, err := r.Insert(rows)
				if err != nil {
					t.Fatal(err)
				}
				if i1[0] != i2[0] || i1[len(i1)-1] != i2[len(i2)-1] {
					t.Fatalf("id sequences diverged: %d vs %d", i1[0], i2[0])
				}
				victim := want.IDs[rng.Intn(len(want.IDs))]
				if err := s.Remove(victim); err != nil {
					t.Fatal(err)
				}
				if err := r.Remove(victim); err != nil {
					t.Fatal(err)
				}
				want, err = s.Run(tc.cfg)
				if err != nil {
					t.Fatal(err)
				}
				got, err = r.Run(tc.cfg)
				if err != nil {
					t.Fatal(err)
				}
				snapEqualTicks(t, "lockstep tick", want, got)
			}
		})
	}
}

// TestSnapshotEmptyAndFresh: a snapshot of an empty or never-run clusterer
// restores and runs.
func TestSnapshotEmptyAndFresh(t *testing.T) {
	s, err := NewStreamingClusterer(3, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	r, err := RestoreStreaming(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 0 {
		t.Fatalf("restored empty clusterer has %d points", r.Len())
	}
	res, err := r.Run(Config{MinPts: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.IDs) != 0 {
		t.Fatal("empty run returned rows")
	}
	// Never-run (cold caches) but with points pending.
	s2, _ := NewStreamingClusterer(2, 3.0)
	snapFill(t, s2, 200, 5)
	buf.Reset()
	if err := s2.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	r2, err := RestoreStreaming(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	want, err := s2.Run(Config{MinPts: 6})
	if err != nil {
		t.Fatal(err)
	}
	got, err := r2.Run(Config{MinPts: 6})
	if err != nil {
		t.Fatal(err)
	}
	snapEqualTicks(t, "cold-cache tick", want, got)
}

// TestSnapshotCorruption: damaged streams must error out, never panic or
// restore silently wrong state.
func TestSnapshotCorruption(t *testing.T) {
	s, err := NewStreamingClusterer(2, 3.0)
	if err != nil {
		t.Fatal(err)
	}
	snapFill(t, s, 300, 9)
	if _, err := s.Run(Config{MinPts: 5}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	if _, err := RestoreStreaming(bytes.NewReader(valid)); err != nil {
		t.Fatalf("valid snapshot rejected: %v", err)
	}

	for _, cut := range []int{0, 4, 8, 16, len(valid) / 2, len(valid) - 1} {
		if _, err := RestoreStreaming(bytes.NewReader(valid[:cut])); err == nil {
			t.Errorf("truncation to %d bytes accepted", cut)
		}
	}
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 100; trial++ {
		bad := append([]byte(nil), valid...)
		pos := rng.Intn(len(bad))
		bad[pos] ^= 1 << uint(rng.Intn(8))
		if bad[pos] == valid[pos] {
			continue
		}
		if _, err := RestoreStreaming(bytes.NewReader(bad)); err == nil {
			t.Fatalf("bit flip at byte %d accepted", pos)
		}
	}
}

// TestSnapshotRejectsBadIDTable: a stream whose id table names one point slot
// for two ids, names a free slot, or repeats an id must not restore, though
// its checksum is valid: removing such an id would free a slot it does not
// own, and a repeated id breaks the binary search that finds ids.
func TestSnapshotRejectsBadIDTable(t *testing.T) {
	for _, tc := range []struct {
		name   string
		tamper func(s *StreamingClusterer, free int32)
	}{
		{"two ids on one slot", func(s *StreamingClusterer, _ int32) { s.slots[1] = s.slots[0] }},
		{"id on a free slot", func(s *StreamingClusterer, free int32) { s.slots[0] = free }},
		{"repeated id", func(s *StreamingClusterer, _ int32) { s.ids[1] = s.ids[0] }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := NewStreamingClusterer(2, 3.0)
			if err != nil {
				t.Fatal(err)
			}
			ids := snapFill(t, s, 100, 7)
			k, _ := slices.BinarySearch(s.ids, ids[50])
			free := s.slots[k]
			if err := s.Remove(ids[50]); err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := s.Snapshot(&buf); err != nil {
				t.Fatal(err)
			}
			if _, err := RestoreStreaming(bytes.NewReader(buf.Bytes())); err != nil {
				t.Fatalf("valid snapshot rejected: %v", err)
			}
			// Encode the tampered table through the real encoder, so the
			// stream's checksum covers it.
			tc.tamper(s, free)
			buf.Reset()
			if err := s.Snapshot(&buf); err != nil {
				t.Fatal(err)
			}
			if _, err := RestoreStreaming(bytes.NewReader(buf.Bytes())); err == nil {
				t.Fatal("snapshot with a tampered id table restored")
			}
		})
	}
}
