package main

import (
	"fmt"
	"time"

	"pdbscan"
	"pdbscan/internal/core"
	"pdbscan/internal/dataset"
	"pdbscan/internal/grid"
	"pdbscan/internal/parallel"
)

const (
	streamWindow     = 20_000
	streamBatch      = 200
	streamEps        = 4.0
	streamMinPts     = 10
	streamSetups     = 9  // set-ups per run; one takes ~55ms, so setup_s is a median of several
	streamCheckEvery = 20 // every k-th tick is compared with a from-scratch Cluster
	streamCountTicks = 50 // counts come from the first ticks after set-up
	// streamMinTick bounds the ticks a run can need: the stream holds
	// seconds/streamMinTick ticks of points, and a run stops early (noted in
	// the provenance) if a host ever ticks faster than that.
	streamMinTick = 1500 * time.Microsecond
)

// streamRun holds the stream and the public clusterer that consumes it.
type streamRun struct {
	b      *bench
	data   []float64 // drift-2d rows in stream order
	window int
	next   int // index of the next row to insert
	cfg    pdbscan.Config
	s      *pdbscan.StreamingClusterer
	ticks  int
}

func runStream(b *bench) error {
	window := b.size(streamWindow, 2_000)
	maxTicks := int(b.seconds/streamMinTick) + 2*streamCountTicks
	pts := dataset.DriftStream(dataset.DriftStreamConfig{N: window + maxTicks*streamBatch, D: 2, Seed: b.seed})
	b.prov["dataset"] = "drift-2d"
	b.prov["n"], b.prov["d"], b.prov["eps"], b.prov["min_pts"] = window, 2, streamEps, streamMinPts
	b.prov["window"], b.prov["batch"] = window, streamBatch
	sr := &streamRun{b: b, data: pts.Data, window: window, cfg: pdbscan.Config{MinPts: streamMinPts}}

	setups, segment := b.plan(streamSetups)
	for i := 0; i < setups; i++ {
		sr.s = nil
		freshHeap()
		start := time.Now()
		if err := sr.setup(); err != nil {
			return err
		}
		b.setupDone(start)
	}
	if b.trace {
		// Traced first, so the counts come from the same ticks on every run.
		if err := streamTraced(sr); err != nil {
			return err
		}
	}
	m0 := readMem()
	ops := loop(segment, 1, func(int) {
		if sr.exhausted() {
			return
		}
		res, lat, err := sr.tick()
		if err == nil && sr.ticks%streamCheckEvery == 0 {
			err = sr.checkScratch(res)
		}
		b.opDone(false, lat, err)
	})
	b.perOp(m0, readMem(), ops)
	b.prov["ticks"] = sr.ticks
	return nil
}

// setup creates a fresh StreamingClusterer, inserts the first window and
// runs the first (full) clustering.
func (sr *streamRun) setup() error {
	s, err := pdbscan.NewStreamingClusterer(2, streamEps)
	if err != nil {
		return err
	}
	if _, err := s.InsertFlat(sr.data[:2*sr.window]); err != nil {
		return err
	}
	if _, err := s.Run(sr.cfg); err != nil {
		return err
	}
	sr.s, sr.next, sr.ticks = s, sr.window, 0
	return nil
}

func (sr *streamRun) exhausted() bool {
	if 2*(sr.next+streamBatch) <= len(sr.data) {
		return false
	}
	sr.b.prov["stream_exhausted"] = true
	return true
}

// tick is the timed op: insert the next batch, slide the window, re-cluster.
func (sr *streamRun) tick() (*pdbscan.StreamResult, time.Duration, error) {
	start := time.Now()
	_, err := sr.write(nil)
	var res *pdbscan.StreamResult
	if err == nil {
		res, err = sr.s.Run(sr.cfg)
	}
	lat := time.Since(start)
	sr.ticks++
	if err == nil && len(res.Labels) != sr.window {
		err = fmt.Errorf("tick %d: %d labels for a window of %d", sr.ticks, len(res.Labels), sr.window)
	}
	return res, lat, err
}

// write is the tick's write side: InsertFlat of the next batch, then Window.
// With a tracer root each call gets its span. It returns the inserted rows.
func (sr *streamRun) write(tr *tracerAt) ([]float64, error) {
	rows := sr.data[2*sr.next : 2*(sr.next+streamBatch)]
	sr.next += streamBatch
	var err error
	tr.call("pdbscan.insert", func() { _, err = sr.s.InsertFlat(rows) })
	if err != nil {
		return rows, err
	}
	tr.call("pdbscan.window", func() { sr.s.Window(sr.window) })
	return rows, nil
}

// checkScratch compares a tick's result with a from-scratch Cluster of the
// current window (the last window rows inserted, in insertion order).
func (sr *streamRun) checkScratch(res *pdbscan.StreamResult) error {
	cur := sr.data[2*(sr.next-sr.window) : 2*sr.next]
	want, err := pdbscan.ClusterFlat(cur, 2, pdbscan.Config{Eps: streamEps, MinPts: streamMinPts})
	if err != nil {
		return err
	}
	if err := sameClustering(fromResult(&res.Result), fromResult(want)); err != nil {
		return fmt.Errorf("tick %d vs from-scratch: %w", sr.ticks, err)
	}
	return nil
}

// streamTraced times each tick's write side on the public clusterer
// (InsertFlat and Window, as in the untraced op) and its read side one layer
// call at a time on a shadow grid.Dynamic and core.Incremental that receive
// the same mutations outside the clock: Snapshot, RunIncremental, then the
// re-index to insertion order, as StreamingClusterer.Run does. The public
// clusterer then runs the same tick outside the clock; the two results must
// agree.
func streamTraced(sr *streamRun) error {
	b, tr := sr.b, sr.b.tr
	dy := grid.NewDynamic(2, streamEps)
	inc := core.NewIncremental()
	arena := core.NewArena()
	var fifo []int32 // shadow point slots of the window, oldest first

	// mirror applies a tick's mutations to the shadow structure.
	mirror := func(rows []float64) {
		for i := 0; i < len(rows); i += 2 {
			fifo = append(fifo, dy.Insert(rows[i:i+2]))
		}
		for len(fifo) > sr.window {
			dy.Remove(fifo[0])
			fifo = fifo[1:]
		}
	}
	// read snapshots, runs the incremental pipeline and re-indexes its
	// slot-keyed result to insertion order.
	read := func(at *tracerAt) (out clustering, dirty *grid.DirtyInfo, cells *grid.Cells, err error) {
		at.call("grid.Dynamic.Snapshot", func() { cells, dirty, err = dy.Snapshot(parallel.NewPool(0)) })
		if err != nil {
			return
		}
		var res *core.Result
		p := exactParams(streamMinPts)
		p.Exec, p.Arena = parallel.NewPool(0), arena
		at.coreCall(b, "core.RunIncremental", &p, func() { res, err = core.RunIncremental(cells, p, inc, dirty) })
		if err != nil {
			return
		}
		at.call("pdbscan.result", func() {
			out = clustering{
				labels:   make([]int32, len(fifo)),
				core:     make([]bool, len(fifo)),
				border:   make(map[int32][]int32, len(res.Border)),
				clusters: res.NumClusters,
			}
			posOfSlot := make([]int32, dy.NumPointSlots())
			for k, slot := range fifo {
				posOfSlot[slot] = int32(k)
				out.labels[k], out.core[k] = res.Labels[slot], res.Core[slot]
			}
			for slot, member := range res.Border {
				out.border[posOfSlot[slot]] = member
			}
		})
		return
	}

	// Set-up: the shadow structure takes the public clusterer's first window.
	setup := tr.op("setup")
	setup.call("pdbscan.insert", func() { mirror(sr.data[:2*sr.window]) })
	_, _, _, err := read(setup)
	setup.end()
	if err != nil {
		return err
	}

	var dirtySum, fullTicks int
	tick := 0
	loop(b.tracedSegment(), streamCountTicks, func(int) {
		if sr.exhausted() {
			return
		}
		full := inc.Fresh()
		at := tr.op("op")
		rows, err := sr.write(at)
		var got clustering
		var dirty *grid.DirtyInfo
		var cells *grid.Cells
		if err == nil {
			at.untimed(func() { mirror(rows) })
			got, dirty, cells, err = read(at)
		}
		lat := at.end()
		sr.ticks++
		tick++
		if err != nil {
			b.opDone(true, lat, err)
			return
		}

		// The public read side of the same tick, outside the clock.
		pub, err := sr.s.Run(sr.cfg)
		if err == nil {
			err = sameClustering(got, fromResult(&pub.Result))
		}
		stats := sr.s.LastRunStats()
		if err == nil && stats.DirtyCells != dirty.NumAffected {
			err = fmt.Errorf("tick %d: %d dirty cells traced, %d public", tick, dirty.NumAffected, stats.DirtyCells)
		}
		if tick <= streamCountTicks {
			dirtySum += dirty.NumAffected
			if full || dirty.Full {
				fullTicks++
			}
		}
		if tick == streamCountTicks {
			b.count("pdbscan.dirty_cells", float64(dirtySum)/streamCountTicks)
			b.count("pdbscan.full_ticks", float64(fullTicks))
			b.count("grid.cells", float64(stats.NumCells))
			b.count("grid.neighbor_refs", float64(neighborRefs(cells)))
			b.count("core.core_points", float64(countTrue(got.core)))
			b.count("core.clusters", float64(got.clusters))
			b.count("core.shards", 1)
		}
		b.opDone(true, lat, err)
	})
	return nil
}
