package grid

import (
	"fmt"
	"slices"

	"pdbscan/internal/parallel"
	"pdbscan/internal/prim"
)

// Partition splits the non-empty cells of a grid construction into NumShards
// contiguous spatial blocks ("shards") along one axis of the absolute cell
// lattice. Because grid cells are anchored to the absolute side-grid lattice
// (Cells.Anchor, CellCoord), a shard is a half-open interval of absolute
// lattice coordinates on the split axis: every build of the same point set
// produces the same shards, which is what makes the sharded clustering path
// reproducible.
//
// Each shard also knows its halo — the cells owned by other shards that lie
// within eps of one of its owned cells (exactly the cross-shard entries of
// the owned cells' Neighbors lists, so the halo is eps-wide by the same
// cube-distance test every other phase uses). Owned cells that have at least
// one halo neighbor are the shard's boundary: only their cell-graph edges can
// cross the shard cut, so the merge pass after independent per-shard
// clustering touches boundary cells alone.
type Partition struct {
	// NumShards is the number of shards actually produced. It never exceeds
	// the number of distinct occupied lattice coordinates on the split axis
	// (a thinner slab could not keep shards contiguous), so it may be lower
	// than requested.
	NumShards int
	// Axis is the dimension the lattice was cut along: the axis with the
	// most distinct occupied lattice coordinates — i.e. the most slabs, so
	// the requested shard count clamps as little as possible (ties to the
	// widest coordinate span, then the lowest axis). A one-shard partition
	// cuts nothing and reports the axis the cells are numbered by.
	Axis int
	// ShardOf[g] is the shard owning cell g.
	ShardOf []int32
	// Owned[s] lists the cells owned by shard s, ascending. On a
	// lattice-ordered construction (BuildGrid) it is a contiguous id range.
	Owned [][]int32
	// Halo[s] lists the cells within eps of shard s's owned cells but owned
	// by other shards, ascending.
	Halo [][]int32
	// Boundary[s] lists the owned cells of shard s with at least one
	// cross-shard neighbor, ascending. Only these cells can carry cell-graph
	// edges into the halo.
	Boundary [][]int32
}

// MakePartition partitions the cells of a grid construction into at most
// `shards` contiguous spatial blocks of roughly equal point count, with
// eps-wide halos. Requires computed Neighbors, and for shards > 1 the grid
// layout (Coords non-nil). The executor sizes the parallel passes (nil =
// default pool).
//
// One shard needs no lattice, so it serves any layout, box cells included:
// it owns every cell in ascending id order and has no halo or boundary. Its
// Axis is the lattice axis the cells are numbered by (0 for box cells).
//
// The split axis and cut positions depend only on the occupied lattice (not
// on cell enumeration order), so equal point sets yield equal partitions.
func MakePartition(ex *parallel.Pool, c *Cells, shards int) (*Partition, error) {
	if c.Neighbors == nil {
		return nil, fmt.Errorf("grid: MakePartition requires computed neighbor lists")
	}
	if shards < 1 {
		return nil, fmt.Errorf("grid: shard count must be >= 1, got %d", shards)
	}
	if c.Coords == nil && shards > 1 {
		return nil, fmt.Errorf("grid: MakePartition requires the grid layout for more than one shard (box cells have no lattice)")
	}
	d := c.Pts.D
	numCells := c.NumCells()
	p := &Partition{NumShards: 1, Axis: c.axis, ShardOf: make([]int32, numCells)}
	if shards == 1 || numCells == 0 {
		owned := make([]int32, numCells)
		ex.For(numCells, func(g int) { owned[g] = int32(g) })
		p.Owned = [][]int32{owned}
		p.Halo = [][]int32{nil}
		p.Boundary = [][]int32{nil}
		return p, nil
	}

	// Split axis: the rule BuildGrid numbers its cells by, so on a
	// lattice-ordered construction the order below is the identity and every
	// shard is a contiguous id range.
	widths := coordWidths(c.Coords, d)
	axis, slabs := latticeAxis(ex, c.Coords, d, widths)
	p.Axis = axis

	// Order cells by (axis coordinate, cell index) and cut the order into
	// point-balanced runs, never splitting cells that share an axis
	// coordinate (shards must be coordinate intervals).
	order := make([]int32, numCells)
	keys := make([]uint64, numCells)
	ex.For(numCells, func(g int) {
		order[g] = int32(g)
		keys[g] = uint64(c.Coords[g*d+axis])
	})
	prim.RadixSortPairs(ex, keys, order, widths[axis])
	totalPts := 0
	for _, g := range order {
		totalPts += c.CellSize(int(g))
	}
	if shards > slabs {
		shards = slabs
	}
	p.NumShards = shards
	p.Owned = make([][]int32, shards)
	p.Halo = make([][]int32, shards)
	p.Boundary = make([][]int32, shards)

	// Greedy balanced cuts: close shard s once its cumulative point count
	// reaches s+1 shares of the total, advancing only at slab boundaries. A
	// shard is also closed when the remaining slabs are only just enough to
	// give every remaining shard one, so point skew never starves the tail
	// shards down to empty.
	s, cum, slabIdx := 0, 0, -1
	for i, g := range order {
		if i == 0 || c.AbsCoord(int(g), axis) != c.AbsCoord(int(order[i-1]), axis) {
			slabIdx++
			if i > 0 && s < shards-1 &&
				(cum*shards >= (s+1)*totalPts || slabs-slabIdx <= shards-1-s) {
				s++
			}
		}
		p.ShardOf[g] = int32(s)
		p.Owned[s] = append(p.Owned[s], g)
		cum += c.CellSize(int(g))
	}
	// Owned lists ascending by cell index (they were appended in axis order,
	// which is index order already on a lattice-ordered construction).
	ex.ForGrain(shards, 1, func(s int) { slices.Sort(p.Owned[s]) })

	// Halo and boundary, per shard: scan owned cells' neighbor lists for
	// cross-shard entries. Dedup by sort+compact over the collected
	// candidates — their count is bounded by the boundary cells' neighbor
	// lists, so no per-shard O(numCells) scratch is needed.
	ex.ForGrain(shards, 1, func(s int) {
		var halo, boundary []int32
		for _, g := range p.Owned[s] {
			cross := false
			for _, h := range c.Neighbors[g] {
				if p.ShardOf[h] != int32(s) {
					cross = true
					halo = append(halo, h)
				}
			}
			if cross {
				boundary = append(boundary, g)
			}
		}
		slices.Sort(halo)
		p.Halo[s] = slices.Compact(halo)
		p.Boundary[s] = boundary
	})
	return p, nil
}
