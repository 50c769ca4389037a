package deps

import (
	"encoding/binary"
	"fmt"
	"slices"

	"clsacim/internal/sets"
)

// Builder is Stage II for many Stage I plans of one mapped graph — a
// scored solver's candidates, which differ only in their duplication
// vectors. A consumer layer's edge stream depends on the candidate only
// through the set grids of the layer and of its route targets (a
// layer's partition is a function of its grid shape, see sets.Memo),
// so the Builder compiles every layer's routes once and memoizes each
// layer's stream under the (GH, GW) of the layer and its targets. A
// search move that changes d_i then re-emits at most the streams into
// and out of layer i; every other stream is reused, its flat ids
// rebased onto the candidate's LayerOff when the CSR is assembled. The
// result equals Build on the same plan array for array. A Builder is
// not safe for concurrent use.
type Builder struct {
	code []layerCode
	memo []map[string]memoEdges
	rb   rebase
	key  []byte
	sc   buildScratch
	// Reused by BuildTransient.
	results []layerEdges
	csr     CSR
}

// memoEdges is a memoized layer stream and the flat id of each of the
// layer's route targets' first set when it was emitted.
type memoEdges struct {
	layerEdges
	bases []int32
}

// rebase moves memoized streams onto the layer offsets of the plan
// being assembled. targets[li] lists layer li's route targets in
// ascending order; bases[li] holds their first flat ids when li's
// stream was emitted.
type rebase struct {
	targets, bases [][]int32
}

// NewBuilder compiles the routes of every layer of plan. Later plans
// passed to Build must partition the same mapped layers (only their
// grids may differ).
func NewBuilder(plan *sets.Plan) (*Builder, error) {
	nl := len(plan.Layers)
	b := &Builder{
		code: make([]layerCode, nl),
		memo: make([]map[string]memoEdges, nl),
		rb:   rebase{targets: make([][]int32, nl), bases: make([][]int32, nl)},
	}
	for li := range plan.Layers {
		lc, err := compileLayer(plan, li, nil)
		if err != nil {
			return nil, err
		}
		var tg []int32
		for _, rt := range lc.routes {
			tg = append(tg, int32(rt.target))
		}
		slices.Sort(tg)
		b.code[li] = lc
		b.rb.targets[li] = slices.Compact(tg)
		b.memo[li] = make(map[string]memoEdges)
	}
	return b, nil
}

// Build computes Stage II for plan, re-emitting only the layers whose
// grid key has not been seen before. The graph owns its arrays.
func (b *Builder) Build(plan *sets.Plan) (*Graph, error) {
	return b.build(plan, make([]layerEdges, len(plan.Layers)), new(CSR))
}

// BuildTransient is Build into arrays the Builder reuses: the graph is
// valid only until the next Build or BuildTransient call. It serves a
// scoring loop that discards every candidate's graph, which then pays
// no per-candidate CSR allocation.
func (b *Builder) BuildTransient(plan *sets.Plan) (*Graph, error) {
	b.results = resize(b.results, len(plan.Layers))
	return b.build(plan, b.results, &b.csr)
}

func (b *Builder) build(plan *sets.Plan, results []layerEdges, c *CSR) (*Graph, error) {
	nl := len(plan.Layers)
	if nl != len(b.code) {
		return nil, fmt.Errorf("deps: plan has %d layers, builder %d", nl, len(b.code))
	}
	layerOff := layerOffsets(plan, c.LayerOff)
	for li := range plan.Layers {
		if n := plan.Layers[li].Group.Node; n != b.code[li].node {
			return nil, fmt.Errorf("deps: plan layer %d is %v, builder compiled %v", li, n, b.code[li].node)
		}
		key := b.gridKey(plan, li)
		if me, ok := b.memo[li][string(key)]; ok {
			results[li] = me.layerEdges
			b.rb.bases[li] = me.bases
			continue
		}
		le, err := b.code[li].emit(plan, li, layerOff, &b.sc)
		if err != nil {
			return nil, err
		}
		targets := b.rb.targets[li]
		bases := make([]int32, len(targets))
		for k, t := range targets {
			bases[k] = layerOff[t]
		}
		results[li] = le
		b.rb.bases[li] = bases
		b.memo[li][string(key)] = memoEdges{le, bases}
	}
	return &Graph{Plan: plan, CSR: assembleCSR(plan, layerOff, results, &b.rb, c)}, nil
}

// gridKey encodes the set grids layer li's edge stream depends on: its
// own and those of its route targets.
func (b *Builder) gridKey(plan *sets.Plan, li int) []byte {
	k := b.key[:0]
	ls := &plan.Layers[li]
	k = binary.AppendUvarint(k, uint64(ls.GH))
	k = binary.AppendUvarint(k, uint64(ls.GW))
	for _, t := range b.rb.targets[li] {
		k = binary.AppendUvarint(k, uint64(plan.Layers[t].GH))
		k = binary.AppendUvarint(k, uint64(plan.Layers[t].GW))
	}
	b.key = k
	return k
}

// appendPred appends layer li's predecessor ids (le) to dst, moved
// from the offsets the stream was emitted under to layerOff. Each
// set's run is sorted by flat id and flat ids are layer-major, so one
// forward walk over the ascending targets finds every edge's layer.
func (rb *rebase) appendPred(dst []int32, le *layerEdges, li int, layerOff []int32) []int32 {
	targets, bases := rb.targets[li], rb.bases[li]
	moved := false
	for k, t := range targets {
		moved = moved || layerOff[t] != bases[k]
	}
	if !moved {
		return append(dst, le.pred...)
	}
	for si := 0; si+1 < len(le.setOff); si++ {
		k := 0
		for _, p := range le.pred[le.setOff[si]:le.setOff[si+1]] {
			for t := targets[k]; p >= bases[k]+layerOff[t+1]-layerOff[t]; t = targets[k] {
				k++
			}
			dst = append(dst, p-bases[k]+layerOff[targets[k]])
		}
	}
	return dst
}
