package core

import (
	"context"
	"errors"
	"reflect"
	"slices"
	"testing"

	"pdbscan/internal/grid"
	"pdbscan/internal/parallel"
)

// sameCoreResult asserts two pipeline results are identical (the pipeline is
// deterministic, so equality is exact, not merely up to permutation).
func sameCoreResult(t *testing.T, got, want *Result, label string) {
	t.Helper()
	if got.NumClusters != want.NumClusters {
		t.Fatalf("%s: NumClusters = %d, want %d", label, got.NumClusters, want.NumClusters)
	}
	if !reflect.DeepEqual(got.Labels, want.Labels) {
		t.Fatalf("%s: labels differ", label)
	}
	if !reflect.DeepEqual(got.Core, want.Core) {
		t.Fatalf("%s: core flags differ", label)
	}
	if len(got.Border) != len(want.Border) || (len(want.Border) > 0 && !reflect.DeepEqual(got.Border, want.Border)) {
		t.Fatalf("%s: border maps differ", label)
	}
}

// TestRunCancelAtEveryPhaseBoundary cancels a context from the PhaseHook at
// each pipeline phase in turn and asserts (1) Run returns context.Canceled,
// (2) the arena scratch the cancelled run released is reused cleanly — the
// very next uncancelled run on the same arena returns exactly the baseline.
// Besides grid cells it covers the inputs only a one-shard window takes: 2D
// box cells, a sample mask, and the bucketed graph loop.
func TestRunCancelAtEveryPhaseBoundary(t *testing.T) {
	pts := clusteredPoints(6000, 2, 100, 42)
	cells := buildGridCells(pts, 2.0)
	box := grid.BuildBox2D(nil, pts, 2.0)
	box.ComputeNeighborsBox2D(nil)
	for _, in := range []struct {
		name  string
		cells *grid.Cells
		p     Params
	}{
		{"grid", cells, Params{MinPts: 10, Graph: GraphBCP}},
		{"box", box, Params{MinPts: 10, Graph: GraphBCP}},
		{"sample", cells, Params{MinPts: 10, Graph: GraphBCP, Sample: UniformMask(nil, pts.N, 0.3, 5)}},
		{"bucketing", cells, Params{MinPts: 10, Graph: GraphBCP, Bucketing: true, Buckets: 7}},
	} {
		base := in.p
		base.Arena = NewArena()
		want, err := Run(in.cells, base)
		if err != nil {
			t.Fatalf("%s: %v", in.name, err)
		}
		if want.NumClusters == 0 {
			t.Fatalf("%s: no clusters; the rerun check would be vacuous", in.name)
		}
		for _, phase := range []string{"mark", "graph", "merge", "label", "border", "done"} {
			ctx, cancel := context.WithCancel(context.Background())
			p := base
			p.Exec = parallel.NewPoolContext(ctx, 0)
			p.PhaseHook = func(name string) {
				if name == phase {
					cancel()
				}
			}
			res, err := Run(in.cells, p)
			cancel()
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("%s cancel at %q: err = %v, want context.Canceled", in.name, phase, err)
			}
			if res != nil {
				t.Fatalf("%s cancel at %q: got a result alongside the error", in.name, phase)
			}
			// The next run reuses the scratch the cancelled run abandoned
			// mid-phase; it must be indistinguishable from a clean run.
			got, err := Run(in.cells, base)
			if err != nil {
				t.Fatalf("%s run after cancel at %q: %v", in.name, phase, err)
			}
			sameCoreResult(t, got, want, in.name+" run after cancel at "+phase)
		}
	}
}

// TestRunCancelPhaseBoundaryAllStrategies repeats the boundary cancellation
// for every graph strategy (the lazy per-cell state — quadtrees, USEC
// envelopes, Delaunay — must also tolerate an abandoned run).
func TestRunCancelPhaseBoundaryAllStrategies(t *testing.T) {
	pts := clusteredPoints(3000, 2, 100, 7)
	cells := buildGridCells(pts, 2.0)
	for _, g := range []GraphStrategy{GraphBCP, GraphQuadtree, GraphApprox, GraphUSEC, GraphDelaunay} {
		arena := NewArena()
		base := Params{MinPts: 8, Graph: g, Mark: MarkScan, Arena: arena}
		if g == GraphApprox {
			base.Rho = 0.05
		}
		want, err := Run(cells, base)
		if err != nil {
			t.Fatal(err)
		}
		for _, phase := range []string{"graph", "border"} {
			ctx, cancel := context.WithCancel(context.Background())
			p := base
			p.Exec = parallel.NewPoolContext(ctx, 0)
			p.PhaseHook = func(name string) {
				if name == phase {
					cancel()
				}
			}
			if _, err := Run(cells, p); !errors.Is(err, context.Canceled) {
				t.Fatalf("graph=%d cancel at %q: err = %v", g, phase, err)
			}
			cancel()
			got, err := Run(cells, base)
			if err != nil {
				t.Fatalf("graph=%d run after cancel: %v", g, err)
			}
			sameCoreResult(t, got, want, "rerun")
		}
	}
}

// TestRunShardedCancelAtEveryPhaseBoundary is the sharded-path variant,
// covering the cross-shard merge phase the monolithic path does not have,
// for both sources of the sharded executor: RunSharded over the partition,
// and RunOutOfCore over a store written from the same cells and partition
// (whose window phases are announced once per shard; the first one cancels).
func TestRunShardedCancelAtEveryPhaseBoundary(t *testing.T) {
	pts := clusteredPoints(8000, 2, 100, 11)
	cells := buildGridCells(pts, 2.0)
	part, err := grid.MakePartition(nil, cells, 4)
	if err != nil {
		t.Fatal(err)
	}
	if part.NumShards < 2 {
		t.Fatalf("partition produced %d shards, want >= 2", part.NumShards)
	}
	store := writeTestStore(t, cells, part)
	runs := []struct {
		name string
		run  func(Params) (*Result, error)
	}{
		{"sharded", func(p Params) (*Result, error) { return RunSharded(cells, p, part) }},
		{"out-of-core", func(p Params) (*Result, error) {
			res, _, err := RunOutOfCore(store, p, 0)
			return res, err
		}},
	}
	for _, r := range runs {
		arena := NewArena()
		base := Params{MinPts: 10, Graph: GraphBCP, Arena: arena}
		want, err := r.run(base)
		if err != nil {
			t.Fatal(err)
		}
		for _, phase := range []string{"mark", "graph", "merge", "label", "border", "done"} {
			ctx, cancel := context.WithCancel(context.Background())
			p := base
			p.Exec = parallel.NewPoolContext(ctx, 0)
			p.PhaseHook = func(name string) {
				if name == phase {
					cancel()
				}
			}
			res, err := r.run(p)
			cancel()
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("%s cancel at %q: err = %v, want context.Canceled", r.name, phase, err)
			}
			if res != nil {
				t.Fatalf("%s cancel at %q: got a result alongside the error", r.name, phase)
			}
			got, err := r.run(base)
			if err != nil {
				t.Fatalf("%s run after cancel at %q: %v", r.name, phase, err)
			}
			sameCoreResult(t, got, want, r.name+" rerun after cancel at "+phase)
		}
	}
}

// TestRunIncrementalCancelPoisonsCache cancels an incremental tick at each
// phase boundary and asserts the half-absorbed cache is marked not-reusable
// (Fresh reports true), so the next tick recomputes from scratch and matches
// a from-scratch run exactly. A completed tick announces exactly these
// phases, in this order.
func TestRunIncrementalCancelPoisonsCache(t *testing.T) {
	pts := clusteredPoints(4000, 2, 100, 13)
	phases := []string{"mark", "collect", "graph", "label", "border", "done"}
	for _, phase := range phases {
		dyn := grid.NewDynamic(2, 2.0)
		for i := 0; i < pts.N; i++ {
			dyn.Insert(pts.At(i))
		}
		cells, dirty, err := dyn.Snapshot(nil)
		if err != nil {
			t.Fatal(err)
		}
		inc := NewIncremental()
		arena := NewArena()
		base := Params{MinPts: 10, Graph: GraphBCP, Arena: arena}
		first := base
		var seen []string
		first.PhaseHook = func(name string) { seen = append(seen, name) }
		want, err := RunIncremental(cells, first, inc, dirty)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(seen, phases) {
			t.Fatalf("announced phases %v, want %v", seen, phases)
		}
		if inc.Fresh() {
			t.Fatal("cache still fresh after a completed run")
		}

		// Mutation-free snapshot; cancel the tick at the phase boundary.
		cells2, dirty2, err := dyn.Snapshot(nil)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		p := base
		p.Exec = parallel.NewPoolContext(ctx, 0)
		p.PhaseHook = func(name string) {
			if name == phase {
				cancel()
			}
		}
		if _, err := RunIncremental(cells2, p, inc, dirty2); !errors.Is(err, context.Canceled) {
			t.Fatalf("incremental cancel at %q: err = %v", phase, err)
		}
		cancel()
		if !inc.Fresh() {
			t.Fatalf("incremental cancel at %q: cache not poisoned", phase)
		}

		// The poisoned cache forces a full recompute; results must match the
		// baseline exactly.
		cells3, dirty3, err := dyn.Snapshot(nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := RunIncremental(cells3, base, inc, dirty3)
		if err != nil {
			t.Fatalf("tick after cancelled tick: %v", err)
		}
		sameCoreResult(t, got, want, "tick after cancel at "+phase)
	}
}

// TestRunUncancelledContextIdentical pins that merely running under a live
// (never-cancelled) context changes nothing: results are bit-identical to a
// context-free run, for the monolithic and sharded paths.
func TestRunUncancelledContextIdentical(t *testing.T) {
	pts := clusteredPoints(5000, 3, 100, 17)
	cells := buildGridCells(pts, 3.0)
	base := Params{MinPts: 10, Graph: GraphBCP, Arena: NewArena()}
	want, err := Run(cells, base)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	p := base
	p.Exec = parallel.NewPoolContext(ctx, 3)
	var tm PhaseTimings
	p.Timings = &tm
	got, err := Run(cells, p)
	if err != nil {
		t.Fatal(err)
	}
	sameCoreResult(t, got, want, "live-context run")
	if tm.Mark < 0 || tm.Graph < 0 || tm.Border < 0 {
		t.Fatalf("negative phase timings: %+v", tm)
	}
	if tm.Mark == 0 && tm.Collect == 0 && tm.Graph == 0 && tm.Label == 0 && tm.Border == 0 {
		t.Fatal("no phase timing recorded")
	}
}
