// Package check is an independent invariant checker for execution
// timelines: given a compiled workload (mapping + dependency graph) and
// the policy a timeline claims to follow, Timeline re-derives every
// property a legal CLSA-CIM execution must satisfy and reports the first
// violation as a typed error.
//
// The checker is deliberately separate from the machinery that produces
// timelines: it shares no code with the Stage IV list scheduler
// (package schedule) or the event-driven simulator (package sim), so a
// bug in either engine cannot also hide in the oracle that judges it.
// The public Engine runs it on every timeline it computes (once per
// compilation and canonical scheduling mode), the stream checker runs it
// on every inference, and the differential fuzz harness
// (FuzzScheduleVsSim) drives it over both engines on randomized models.
//
// The invariant set:
//
//   - Shape: one item per Stage I set, carrying its own (layer, set)
//     coordinates, a replica inside the layer's duplication range, and
//     non-negative times.
//   - Dispatch (Stage III): set s of a layer with d replicas runs on the
//     replica the policy's Replica(s, d) rule names.
//   - Dependency order: every CSR dependency edge is respected — a set
//     starts only after each predecessor set has completed, plus the
//     configured edge cost (NoC/GPEU).
//   - Crossbar exclusivity: no physical PE executes two sets at once.
//     Sets of the same replica PE group serialize in raster order (a
//     set starts only once the replica's previous set has ended), and
//     groups that share PEs (weight virtualization) must never overlap
//     in time.
//   - Window admission: under a window-K policy no set of layer l starts
//     before every layer up to l-K has fully completed.
//   - Conservation (Stage III/IV accounting): each set runs for exactly
//     its Stage I cycle count, per-layer and per-replica active-cycle
//     totals match the items, and the total active time equals the
//     plan's total work.
//   - Makespan/metrics consistency: the makespan is exactly the latest
//     item end, and paper Eq. 2 utilization computed from the timeline
//     is a valid fraction in (0, 1].
package check

import (
	"fmt"
	"sort"

	"clsacim/internal/deps"
	"clsacim/internal/mapping"
	"clsacim/internal/metrics"
	"clsacim/internal/schedule"
)

// Kind classifies a Violation by the invariant it breaks.
type Kind string

// The invariant classes Timeline asserts.
const (
	KindShape        Kind = "shape"
	KindDispatch     Kind = "dispatch"
	KindDependency   Kind = "dependency"
	KindExclusivity  Kind = "exclusivity"
	KindWindow       Kind = "window"
	KindConservation Kind = "conservation"
	KindMakespan     Kind = "makespan"
)

// Violation is one broken invariant. Layer/Set locate the offending item
// when the violation is set-specific (-1 otherwise).
type Violation struct {
	Kind       Kind
	Layer, Set int
	Msg        string
}

func (v *Violation) Error() string {
	if v.Layer >= 0 {
		return fmt.Sprintf("check: %s violation at L%d/S%d: %s", v.Kind, v.Layer, v.Set, v.Msg)
	}
	return fmt.Sprintf("check: %s violation: %s", v.Kind, v.Msg)
}

func violation(k Kind, li, si int, format string, args ...any) error {
	return &Violation{Kind: k, Layer: li, Set: si, Msg: fmt.Sprintf(format, args...)}
}

// Options configures the checker.
type Options struct {
	// EdgeCost is the dependency-edge cost the timeline was scheduled
	// under (nil = the paper's idealized zero-cost data movement). It
	// must match the producing run's cost model, or legal timelines will
	// be rejected.
	EdgeCost schedule.EdgeCostFn
}

// Timeline asserts the full invariant set on tl, which claims to execute
// the workload dg on mapping m under policy p. It returns nil for a
// legal execution and a *Violation describing the first broken invariant
// otherwise.
func Timeline(m *mapping.Mapping, dg *deps.Graph, p schedule.Policy, tl *schedule.Timeline, opt Options) error {
	if m == nil || dg == nil || dg.CSR == nil || tl == nil {
		return violation(KindShape, -1, -1, "nil mapping, dependency graph, CSR, or timeline")
	}
	if p == nil {
		return violation(KindShape, -1, -1, "nil policy")
	}
	csr := dg.CSR
	nl := len(dg.Plan.Layers)
	if len(m.Groups) != nl {
		return violation(KindShape, -1, -1, "mapping has %d groups, plan %d layers", len(m.Groups), nl)
	}
	if len(tl.Off) != nl+1 || len(tl.LayerActive) != nl || len(tl.ReplicaActive) != nl {
		return violation(KindShape, -1, -1,
			"timeline indexes %d layers, plan has %d", len(tl.Off)-1, nl)
	}
	if len(tl.Items) != csr.NumSets() {
		return violation(KindShape, -1, -1, "%d items, plan has %d sets", len(tl.Items), csr.NumSets())
	}
	last, err := checkItems(m, dg, p, tl, opt.EdgeCost)
	if err != nil {
		return err
	}
	if err := checkSharedPEs(m, tl); err != nil {
		return err
	}
	return checkMakespan(m, tl, last)
}

// checkItems is one pass over the items in CSR order (layer-major,
// raster within a layer). Per set it asserts the shape, the Stage III
// dispatch rule, dependency order, window admission, raster-order
// serialization on the replica, and the Stage I duration; per layer it
// asserts the recorded active totals. It returns the latest item end.
// Its scratch is sized by layers and replicas, never by sets.
func checkItems(m *mapping.Mapping, dg *deps.Graph, p schedule.Policy, tl *schedule.Timeline, edge schedule.EdgeCostFn) (int64, error) {
	csr := dg.CSR
	k := p.Window()
	maxDup := 0
	for _, ls := range dg.Plan.Layers {
		maxDup = max(maxDup, ls.Group.Dup)
	}
	prevEnd := make([]int64, maxDup) // end of the replica's previous set
	active := make([]int64, maxDup)  // the replica's busy cycles
	layerEnd := make([]int64, len(dg.Plan.Layers))
	var gate, last int64 // gate: latest end over layers [0, li-k]
	for li, ls := range dg.Plan.Layers {
		off := int(csr.LayerOff[li])
		if int(tl.Off[li]) != off {
			return 0, violation(KindShape, li, -1, "layer offset %d != CSR offset %d", tl.Off[li], off)
		}
		d := m.Groups[li].Dup
		if d != ls.Group.Dup {
			return 0, violation(KindShape, li, -1, "mapping duplication %d != plan duplication %d", d, ls.Group.Dup)
		}
		if len(tl.ReplicaActive[li]) != d {
			return 0, violation(KindShape, li, -1,
				"replica accounting has %d rows, layer has %d replicas", len(tl.ReplicaActive[li]), d)
		}
		if li >= k {
			gate = max(gate, layerEnd[li-k])
		}
		clear(prevEnd[:d])
		clear(active[:d])
		var layerActive int64
		for si := range ls.Sets {
			id := off + si
			it := tl.Items[id]
			if it.Layer != li || it.Set != si {
				return 0, violation(KindShape, li, si, "item labeled L%d/S%d", it.Layer, it.Set)
			}
			if it.Replica < 0 || it.Replica >= d {
				return 0, violation(KindShape, li, si, "replica %d outside [0, %d)", it.Replica, d)
			}
			if it.Start < 0 || it.End < it.Start {
				return 0, violation(KindShape, li, si, "times [%d, %d) not ordered", it.Start, it.End)
			}
			if want := p.Replica(si, d); it.Replica != want {
				return 0, violation(KindDispatch, li, si, "runs on replica %d, dispatch rule says %d", it.Replica, want)
			}
			for e := csr.PredOff[id]; e < csr.PredOff[id+1]; e++ {
				pid := csr.Pred[e]
				need := tl.Items[pid].End
				if edge != nil {
					pl, ps := csr.Set(pid)
					need += edge(deps.SetRef{Layer: pl, Set: ps, Vol: int(csr.PredVol[e])}, li)
				}
				if it.Start < need {
					pl, ps := csr.Set(pid)
					return 0, violation(KindDependency, li, si,
						"starts %d before predecessor L%d/S%d ready at %d", it.Start, pl, ps, need)
				}
			}
			if it.Start < gate {
				return 0, violation(KindWindow, li, si,
					"starts %d before layers <= %d complete at %d (window %d)", it.Start, li-k, gate, k)
			}
			if r := it.Replica; it.Start < prevEnd[r] {
				return 0, violation(KindExclusivity, li, si,
					"starts %d before replica %d is free at %d (its previous set in raster order)", it.Start, r, prevEnd[r])
			}
			dur := it.End - it.Start
			if dur != csr.Cycles[id] {
				return 0, violation(KindConservation, li, si, "duration %d != %d Stage I cycles", dur, csr.Cycles[id])
			}
			prevEnd[it.Replica] = it.End
			active[it.Replica] += dur
			layerActive += dur
			layerEnd[li] = max(layerEnd[li], it.End)
		}
		last = max(last, layerEnd[li])
		if tl.LayerActive[li] != layerActive {
			return 0, violation(KindConservation, li, -1,
				"recorded layer active %d != item total %d", tl.LayerActive[li], layerActive)
		}
		for r, a := range active[:d] {
			if tl.ReplicaActive[li][r] != a {
				return 0, violation(KindConservation, li, -1,
					"recorded replica %d active %d != item total %d", r, tl.ReplicaActive[li][r], a)
			}
		}
	}
	return last, nil
}

// span is one busy interval of a replica PE group.
type span struct {
	start, end int64
	li, si     int
}

// checkSharedPEs asserts crossbar exclusivity between replica groups
// that share physical PEs (weight virtualization pools). Within a group
// checkItems already serialized the sets, so disjoint mappings stop
// after one per-PE ownership pass; only a shared mapping pays for the
// interval sweep, which is the single-inference case of the stream
// checker's.
func checkSharedPEs(m *mapping.Mapping, tl *schedule.Timeline) error {
	npe := 0
	for _, g := range m.Groups {
		for _, pe := range g.PEs {
			npe = max(npe, pe+1)
		}
	}
	owner := make([]int32, npe) // 1 + global replica index, 0 = unowned
	gid := int32(0)
	for _, g := range m.Groups {
		for r := 0; r < g.Dup; r++ {
			gid++
			for _, pe := range g.ReplicaPEs(r) {
				if owner[pe] != 0 && owner[pe] != gid {
					return checkStreamExclusivity([]StreamModel{{Mapping: m}}, []StreamInference{{Timeline: tl}})
				}
				owner[pe] = gid
			}
		}
	}
	return nil
}

// sweepSpans sorts busy intervals and reports the first overlap.
func sweepSpans(ss []span) error {
	sort.Slice(ss, func(i, j int) bool {
		if ss[i].start != ss[j].start {
			return ss[i].start < ss[j].start
		}
		return ss[i].end < ss[j].end
	})
	for i := 1; i < len(ss); i++ {
		if ss[i].start < ss[i-1].end {
			return violation(KindExclusivity, ss[i].li, ss[i].si,
				"overlaps L%d/S%d on the same crossbars ([%d,%d) vs [%d,%d))",
				ss[i-1].li, ss[i-1].si, ss[i].start, ss[i].end, ss[i-1].start, ss[i-1].end)
		}
	}
	return nil
}

// checkMakespan asserts that the recorded makespan is exactly the latest
// item end and that paper Eq. 2 utilization derived from the timeline is
// a valid fraction.
func checkMakespan(m *mapping.Mapping, tl *schedule.Timeline, last int64) error {
	if tl.Makespan != last {
		return violation(KindMakespan, -1, -1, "makespan %d != latest item end %d", tl.Makespan, last)
	}
	ut, err := metrics.Utilization(tl, m)
	if err != nil {
		return violation(KindMakespan, -1, -1, "utilization (Eq. 2): %v", err)
	}
	if ut <= 0 || ut > 1 {
		return violation(KindMakespan, -1, -1, "utilization %v outside (0, 1]", ut)
	}
	return nil
}
