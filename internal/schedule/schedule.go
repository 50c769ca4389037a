// Package schedule implements Stages III and IV of CLSA-CIM (paper
// §IV-3/4), the layer-by-layer baseline of §II-B, and the bounded
// cross-layer family interpolating between them.
//
// Stage III fixes the intra-layer order of each base layer's OFM sets:
// sets execute in raster order (resource dependency — the same crossbars
// compute consecutive sets, so they serialize on their PE group).
//
// With weight duplication a layer owns d_i identical replica PE groups;
// its sets are dispatched to the replicas round-robin, preserving the
// raster emission order at d_i-fold throughput ("the input vectors are
// evenly distributed among the duplicates", paper §III-C). Sets on the
// same replica serialize; sets on different replicas may overlap.
//
// Stage IV computes the earliest feasible start of every set: a set
// starts as soon as its replica has finished its previous set, every
// predecessor set it depends on (Stage II) is complete, and the
// policy's admission window permits the layer — partial OFMs flow to
// successor layers before the full OFM exists, which is what raises PE
// utilization.
//
// All strategies are instances of one Policy interface (see policy.go):
// "lbl" (window 1, strictly sequential layers, paper Fig. 1(c) and
// Fig. 6a), "xinf" (unbounded window, Fig. 6b), and the bounded "xK"
// family in between. One scheduler loop over the dependency graph's CSR
// arrays serves them all.
package schedule

import (
	"fmt"
	"sync"

	"clsacim/internal/deps"
)

// EdgeCostFn returns extra latency (cycles) charged on a dependency edge
// from predecessor set pred to a set of layer toLayer — the hook for the
// NoC and GPEU cost extensions. A nil function means the paper's
// idealized zero-cost data movement.
type EdgeCostFn func(pred deps.SetRef, toLayer int) int64

// Options configures scheduling.
type Options struct {
	EdgeCost EdgeCostFn
}

// Schedule computes the execution timeline of dg under policy p: list
// scheduling over the set DAG's CSR arrays, processing layers in
// topological (plan) order so every dependency's finish time is known
// when a set is placed. The policy's admission window gates each layer
// on the completion of every layer Window positions back, which
// serializes layers entirely at window 1 and imposes nothing at
// Unbounded.
func Schedule(dg *deps.Graph, p Policy, opt Options) (*Timeline, error) {
	if err := checkInputs(dg, p); err != nil {
		return nil, err
	}
	t := NewTimeline(dg, p)
	sc := scratchPool.Get().(*Scratch)
	t.Makespan = sc.place(dg, p, opt.EdgeCost, t)
	scratchPool.Put(sc)
	return t, nil
}

// scratchPool lends Schedule the placement loop's scratch, so a
// materialized schedule allocates only its Timeline.
var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

// Scratch is the reusable state of the placement loop: per-set end
// times, the admission prefix, and per-replica cursors. It is grown,
// never shrunk, so a warm Scratch makes no allocations. A Scratch is
// not safe for concurrent use.
type Scratch struct {
	end, prefixEnd, ready []int64
}

// Makespan returns Schedule(dg, p, opt).Makespan without materializing
// the timeline: the same placement loop runs with set end times kept in
// s only. It is the cost model of the scored duplication solvers; the
// event simulator (package sim) stays its independent oracle.
func (s *Scratch) Makespan(dg *deps.Graph, p Policy, opt Options) (int64, error) {
	if err := checkInputs(dg, p); err != nil {
		return 0, err
	}
	return s.place(dg, p, opt.EdgeCost, nil), nil
}

func checkInputs(dg *deps.Graph, p Policy) error {
	if p == nil {
		return fmt.Errorf("schedule: nil policy")
	}
	if dg == nil || dg.CSR == nil {
		return fmt.Errorf("schedule: dependency graph has no CSR (build it with deps.Build)")
	}
	return nil
}

// place is the Stage IV placement loop shared by Schedule and
// Makespan. It returns the makespan; set end times go to s.end, and
// also to t's items with the activity accounting when t is non-nil.
func (s *Scratch) place(dg *deps.Graph, p Policy, edgeCost EdgeCostFn, t *Timeline) int64 {
	csr := dg.CSR
	k := p.Window()
	nl := len(dg.Plan.Layers)
	s.end = grow(s.end, csr.NumSets())
	s.prefixEnd = grow(s.prefixEnd, nl+1)
	end, prefixEnd := s.end, s.prefixEnd
	// prefixEnd[i] is the max end over layers [0, i): the admission
	// gate of layer li is prefixEnd[li-k+1].
	prefixEnd[0] = 0
	// At window 1 with idealized edges every predecessor (always in an
	// earlier layer) finishes no later than the gate, so the dependency
	// scan is provably redundant.
	skipDeps := k == 1 && edgeCost == nil
	var makespan int64
	for li, ls := range dg.Plan.Layers {
		d := ls.Group.Dup
		var gate int64
		if k < nl && li >= k {
			gate = prefixEnd[li-k+1]
		}
		s.ready = grow(s.ready, d)
		ready := s.ready
		for i := range ready {
			ready[i] = gate
		}
		base := int(csr.LayerOff[li])
		var layerEnd, layerActive int64
		for si := 0; si < len(ls.Sets); si++ {
			id := base + si
			r := p.Replica(si, d)
			start := ready[r]
			for e := csr.PredOff[id]; !skipDeps && e < csr.PredOff[id+1]; e++ {
				pid := csr.Pred[e]
				pt := end[pid]
				if edgeCost != nil {
					pl, ps := csr.Set(pid)
					pt += edgeCost(deps.SetRef{Layer: pl, Set: ps, Vol: int(csr.PredVol[e])}, li)
				}
				if pt > start {
					start = pt
				}
			}
			c := csr.Cycles[id]
			fin := start + c
			end[id] = fin
			ready[r] = fin
			if fin > layerEnd {
				layerEnd = fin
			}
			if t != nil {
				t.Items[id] = Item{Layer: li, Set: si, Replica: r, Start: start, End: fin}
				t.ReplicaActive[li][r] += c
				layerActive += c
			}
		}
		if t != nil {
			t.LayerActive[li] = layerActive
		}
		prefixEnd[li+1] = max(prefixEnd[li], layerEnd)
		makespan = max(makespan, layerEnd)
	}
	return makespan
}

// grow returns s resized to n, reusing its backing array when large
// enough (contents are unspecified; callers overwrite).
func grow(s []int64, n int) []int64 {
	if cap(s) < n {
		return make([]int64, n)
	}
	return s[:n]
}

// LayerByLayerVirtual schedules a weight-virtualized mapping (paper
// §V-C future work, see mapping.SolveVirtual): layers execute strictly
// sequentially, and before every swapped layer its reload time is
// charged while the swap-pool PEs are being programmed. reload[i] is the
// per-layer programming cost (0 for resident layers). Reload time counts
// toward the makespan but not toward active (computing) cycles, so it
// depresses Eq. 2 utilization exactly as real crossbar writes would.
func LayerByLayerVirtual(dg *deps.Graph, reload []int64) (*Timeline, error) {
	if len(reload) != len(dg.Plan.Layers) {
		return nil, fmt.Errorf("schedule: reload vector has %d entries, plan %d",
			len(reload), len(dg.Plan.Layers))
	}
	csr := dg.CSR
	t := NewTimeline(dg, LayerByLayer)
	var cur int64
	for li, ls := range dg.Plan.Layers {
		cur += reload[li]
		base := int(csr.LayerOff[li])
		for si := 0; si < len(ls.Sets); si++ {
			c := csr.Cycles[base+si]
			t.Items[base+si] = Item{Layer: li, Set: si, Replica: 0, Start: cur, End: cur + c}
			cur += c
			t.LayerActive[li] += c
			t.ReplicaActive[li][0] += c
		}
	}
	t.Makespan = cur
	return t, nil
}
