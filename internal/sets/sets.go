// Package sets implements Stage I of CLSA-CIM (paper §IV-1): every base
// layer's OFM is partitioned into disjoint hyperrectangular sets, the
// minimum scheduling units. All elements of a set are computed before any
// element of the next set of the same OFM.
//
// Sets are 2-D tiles spanning the full channel depth (one MVM produces a
// whole (1x1xOC) pixel vector, so channels are never split). Tiles are
// laid out and executed in raster order — the intra-layer data flow of
// §III-B. Tile boundaries are aligned to the pooling strides of the
// downstream non-base path, keeping sets large enough to emit complete
// pooling windows (the paper's 2x2-pooling minimum-set-size example);
// similar-sized tiles keep per-set execution times even. Increasing the
// set count gives finer scheduling granularity and deeper cross-layer
// overlap at the cost of more scheduling state, exactly the trade-off
// the paper describes.
package sets

import (
	"fmt"
	"sort"

	"clsacim/internal/mapping"
	"clsacim/internal/nn"
	"clsacim/internal/region"
	"clsacim/internal/tensor"
)

// DefaultTargetSets is the default Stage I granularity: the scheduler
// aims for this many sets per base layer (clamped by alignment and OFM
// geometry). The paper's evaluation reports the maximum achievable
// utilization / minimum latency, which corresponds to fine granularity;
// use FineGranularity (or a large TargetSets) to reproduce it.
const DefaultTargetSets = 26

// FineGranularity as TargetSets requests the finest alignment-respecting
// partition (alignH x alignW tiles).
const FineGranularity = 1 << 30

// Set is one minimum scheduling unit.
type Set struct {
	// Layer indexes the owning group in Plan.Layers.
	Layer int
	// Index is the intra-layer raster position (Stage III order).
	Index int
	// Box is the tile in the layer's OFM coordinates.
	Box region.Box
	// Cycles is the execution time: one cycle per OFM pixel.
	Cycles int64
}

// LayerSets holds the Stage I result for one mapped base layer. Sets
// form a GH x GW grid in raster order; RowBounds and ColBounds hold the
// grid boundaries (len GH+1 and GW+1) for O(log n) intersection queries.
type LayerSets struct {
	Group  *mapping.Group
	Sets   []Set
	AlignH int
	AlignW int
	GH, GW int
	// RowBounds[i] is the first OFM row of grid row i; RowBounds[GH] is
	// the OFM height. ColBounds likewise for columns.
	RowBounds []int
	ColBounds []int
}

// Intersecting appends to dst the indices of sets whose boxes intersect
// b, using the grid bounds (O(log + hits) instead of scanning all sets).
func (ls *LayerSets) Intersecting(b region.Box, dst []int) []int {
	r0, r1 := boundRange(ls.RowBounds, b.H0, b.H1)
	c0, c1 := boundRange(ls.ColBounds, b.W0, b.W1)
	for r := r0; r < r1; r++ {
		for c := c0; c < c1; c++ {
			dst = append(dst, r*ls.GW+c)
		}
	}
	return dst
}

// RowRange returns the grid-row index range [r0, r1) of rows whose OFM
// interval intersects [lo, hi). Every returned row has positive overlap
// when the query interval is non-empty.
func (ls *LayerSets) RowRange(lo, hi int) (int, int) {
	return boundRange(ls.RowBounds, lo, hi)
}

// ColRange is RowRange for grid columns.
func (ls *LayerSets) ColRange(lo, hi int) (int, int) {
	return boundRange(ls.ColBounds, lo, hi)
}

// boundRange returns the index range [i0, i1) of grid cells whose
// interval [bounds[i], bounds[i+1]) intersects [lo, hi).
func boundRange(bounds []int, lo, hi int) (int, int) {
	n := len(bounds) - 1
	if n <= 0 || hi <= bounds[0] || lo >= bounds[n] {
		return 0, 0
	}
	// i0: last cell starting at or before lo.
	i0 := sort.SearchInts(bounds, lo+1) - 1
	if i0 < 0 {
		i0 = 0
	}
	// i1: first cell starting at or beyond hi.
	i1 := sort.SearchInts(bounds, hi)
	if i1 > n {
		i1 = n
	}
	return i0, i1
}

// Plan is the Stage I output for a whole mapped graph.
type Plan struct {
	Layers []LayerSets
	// ByNode maps a base-layer node to its index in Layers.
	ByNode map[*nn.Node]int
	// TargetSets records the requested granularity.
	TargetSets int
}

// Options configures set determination.
type Options struct {
	// TargetSets is the desired number of sets per layer
	// (DefaultTargetSets if 0; FineGranularity for the finest legal
	// partition). Higher values give finer scheduling granularity.
	TargetSets int
}

// Determine partitions every mapped layer's OFM into sets. The grid is
// cut along OH first (keeping raster-friendly row bands) and along OW
// only when the requested granularity exceeds the row count. For
// duplicated layers the target is rounded up to a multiple of the
// duplication factor so the round-robin distribution over the d_i
// replica PE groups stays even.
func Determine(g *nn.Graph, m *mapping.Mapping, opt Options) (*Plan, error) {
	target := opt.target()
	plan := &Plan{
		Layers:     make([]LayerSets, 0, len(m.Groups)),
		ByNode:     make(map[*nn.Node]int, len(m.Groups)),
		TargetSets: target,
	}
	cons := g.Consumers()
	for li, grp := range m.Groups {
		geo := newGeometry(grp.Node, cons)
		gh, gw := geo.grid(setCount(target, grp.Dup))
		ls, err := partition(li, grp.Node, geo, gh, gw)
		if err != nil {
			return nil, err
		}
		ls.Group = grp
		plan.Layers = append(plan.Layers, ls)
		plan.ByNode[grp.Node] = li
	}
	return plan, nil
}

func (o Options) target() int {
	if o.TargetSets <= 0 {
		return DefaultTargetSets
	}
	return o.TargetSets
}

// setCount is the number of sets requested for a layer with
// duplication factor dup: target rounded up to a multiple of dup below
// FineGranularity. It is the only way the duplication vector reaches
// Stage I.
func setCount(target, dup int) int {
	if dup > 1 && target < FineGranularity {
		return (target + dup - 1) / dup * dup
	}
	return target
}

// geometry is the duplication-independent part of a layer's partition:
// the OFM shape, the pooling alignment of its tile boundaries, and the
// number of alignment units along each axis.
type geometry struct {
	out            tensor.Shape
	alignH, alignW int
	unitsH, unitsW int
}

func newGeometry(n *nn.Node, cons map[*nn.Node][]*nn.Node) geometry {
	out := n.OutShape
	alignH, alignW := downstreamAlign(n, cons)
	alignH = clampAlign(alignH, out.H)
	alignW = clampAlign(alignW, out.W)
	return geometry{out: out, alignH: alignH, alignW: alignW,
		unitsH: (out.H + alignH - 1) / alignH,
		unitsW: (out.W + alignW - 1) / alignW}
}

// grid returns the gh x gw grid shape requested for n sets. The
// partition is a function of this shape alone: region.SplitH/SplitW
// cut exactly min(n, units) pieces.
func (geo geometry) grid(n int) (gh, gw int) {
	gh = min(n, geo.unitsH)
	gw = 1
	if gh > 0 && gh == geo.unitsH && n > geo.unitsH {
		gw = min((n+gh-1)/gh, geo.unitsW)
	}
	return gh, gw
}

// partition is the Stage I kernel: it tiles layer li's OFM (node n)
// into a gh x gw grid of sets. The result's Group is left for the
// caller to set.
func partition(li int, n *nn.Node, geo geometry, gh, gw int) (LayerSets, error) {
	out := geo.out
	full := region.Full(out.H, out.W, out.C)
	rows := full.SplitH(gh, geo.alignH)
	cols := full.SplitW(gw, geo.alignW)
	ls := LayerSets{AlignH: geo.alignH, AlignW: geo.alignW, GH: len(rows), GW: len(cols)}
	ls.RowBounds = make([]int, 0, len(rows)+1)
	for _, r := range rows {
		ls.RowBounds = append(ls.RowBounds, r.H0)
	}
	ls.RowBounds = append(ls.RowBounds, out.H)
	ls.ColBounds = make([]int, 0, len(cols)+1)
	for _, c := range cols {
		ls.ColBounds = append(ls.ColBounds, c.W0)
	}
	ls.ColBounds = append(ls.ColBounds, out.W)
	ls.Sets = make([]Set, 0, len(rows)*len(cols))
	idx := 0
	for _, r := range rows {
		for _, c := range cols {
			b := region.NewBox(r.H0, r.H1, c.W0, c.W1, 0, out.C)
			ls.Sets = append(ls.Sets, Set{Layer: li, Index: idx, Box: b, Cycles: int64(b.Pixels())})
			idx++
		}
	}
	// The grid construction guarantees pairwise disjointness; volume
	// and containment checks catch boundary bugs in O(n).
	var vol int
	for i := range ls.Sets {
		s := &ls.Sets[i]
		if s.Box.Empty() || !full.ContainsBox(s.Box) {
			return LayerSets{}, fmt.Errorf("sets: tile %v of %v outside OFM", s.Box, n)
		}
		vol += s.Box.Volume()
	}
	if vol != full.Volume() {
		return LayerSets{}, fmt.Errorf("sets: tiles of %v cover %d of %d elements", n, vol, full.Volume())
	}
	return ls, nil
}

// Memo is Stage I for many duplication vectors of one mapping plan — a
// scored solver's candidates. A layer's partition depends on its d_i
// only through the rounded set count (setCount), so partitions are
// computed once per (layer, grid shape) and shared by every plan the
// memo returns; alignments and ByNode are computed once per memo.
// Returned plans share those slices and the ByNode map with the memo
// and with each other, so they must be treated as read-only (as every
// consumer does). A Memo is not safe for concurrent use.
type Memo struct {
	target int
	nodes  []*nn.Node
	geo    []geometry
	byNode map[*nn.Node]int
	parts  []map[[2]int]LayerSets
}

// NewMemo prepares Stage I for the base layers of plan over graph g.
func NewMemo(g *nn.Graph, plan *mapping.Plan, opt Options) *Memo {
	nl := len(plan.Layers)
	mm := &Memo{
		target: opt.target(),
		nodes:  make([]*nn.Node, nl),
		geo:    make([]geometry, nl),
		byNode: make(map[*nn.Node]int, nl),
		parts:  make([]map[[2]int]LayerSets, nl),
	}
	cons := g.Consumers()
	for li, info := range plan.Layers {
		mm.nodes[li] = info.Node
		mm.geo[li] = newGeometry(info.Node, cons)
		mm.byNode[info.Node] = li
		mm.parts[li] = make(map[[2]int]LayerSets)
	}
	return mm
}

// Determine returns the Stage I plan of m, a mapping of the memo's
// plan; it equals Determine(g, m, opt) field for field.
func (mm *Memo) Determine(m *mapping.Mapping) (*Plan, error) {
	if len(m.Groups) != len(mm.nodes) {
		return nil, fmt.Errorf("sets: mapping has %d groups, memo %d layers", len(m.Groups), len(mm.nodes))
	}
	plan := &Plan{Layers: make([]LayerSets, len(m.Groups)), ByNode: mm.byNode, TargetSets: mm.target}
	for li, grp := range m.Groups {
		if grp.Node != mm.nodes[li] {
			return nil, fmt.Errorf("sets: group %d maps %v, memo layer is %v", li, grp.Node, mm.nodes[li])
		}
		gh, gw := mm.geo[li].grid(setCount(mm.target, grp.Dup))
		ls, ok := mm.parts[li][[2]int{gh, gw}]
		if !ok {
			var err error
			if ls, err = partition(li, grp.Node, mm.geo[li], gh, gw); err != nil {
				return nil, err
			}
			mm.parts[li][[2]int{gh, gw}] = ls
		}
		ls.Group = grp
		plan.Layers[li] = ls
	}
	return plan, nil
}

func clampAlign(a, extent int) int {
	if a < 1 {
		return 1
	}
	if a > extent {
		return extent
	}
	return a
}

// downstreamAlign returns the least common multiples of the vertical and
// horizontal pooling strides on the non-base consumer paths of n
// (stopping at base layers). Set boundaries at these multiples emit
// complete pooling windows, satisfying the paper's minimum-set-size
// requirement.
func downstreamAlign(n *nn.Node, cons map[*nn.Node][]*nn.Node) (alignH, alignW int) {
	alignH, alignW = 1, 1
	seen := make(map[*nn.Node]bool)
	var walk func(x *nn.Node)
	walk = func(x *nn.Node) {
		for _, c := range cons[x] {
			if seen[c] || c.IsBase() {
				continue
			}
			seen[c] = true
			switch op := c.Op.(type) {
			case *nn.MaxPool:
				alignH = lcm(alignH, op.SH)
				alignW = lcm(alignW, op.SW)
			case *nn.AvgPool:
				if !op.Global {
					alignH = lcm(alignH, op.SH)
					alignW = lcm(alignW, op.SW)
				}
			}
			walk(c)
		}
	}
	walk(n)
	return alignH, alignW
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func lcm(a, b int) int {
	if a == 0 || b == 0 {
		return 0
	}
	return a / gcd(a, b) * b
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// TotalCycles returns the serial execution time of one layer's sets
// (its t_i under pure intra-layer scheduling).
func (ls LayerSets) TotalCycles() int64 {
	var t int64
	for _, s := range ls.Sets {
		t += s.Cycles
	}
	return t
}
