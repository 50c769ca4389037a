package check_test

import (
	"errors"
	"testing"

	"clsacim/internal/check"
	"clsacim/internal/cim"
	"clsacim/internal/deps"
	"clsacim/internal/frontend"
	"clsacim/internal/im2col"
	"clsacim/internal/mapping"
	"clsacim/internal/models"
	"clsacim/internal/schedule"
	"clsacim/internal/sets"
	"clsacim/internal/sim"
)

type compiled struct {
	m    *mapping.Mapping
	dg   *deps.Graph
	arch cim.Config
}

// compile runs the shape-only compilation pipeline for one builtin
// model at coarse granularity.
func compile(t *testing.T, id models.ID, extra, targetSets int) compiled {
	t.Helper()
	g := models.MustBuild(id, models.Options{})
	if _, err := frontend.Canonicalize(g, frontend.Options{}); err != nil {
		t.Fatal(err)
	}
	plan, err := mapping.Analyze(g, im2col.PEDims{Rows: 256, Cols: 256})
	if err != nil {
		t.Fatal(err)
	}
	solver := mapping.SolverNone
	if extra > 0 {
		solver = mapping.SolverDP
	}
	sol, err := mapping.Solve(plan, plan.MinPEs+extra, solver)
	if err != nil {
		t.Fatal(err)
	}
	m, err := mapping.Apply(g, plan, sol, plan.MinPEs+extra)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := sets.Determine(g, m, sets.Options{TargetSets: targetSets})
	if err != nil {
		t.Fatal(err)
	}
	dg, err := deps.Build(g, sp)
	if err != nil {
		t.Fatal(err)
	}
	arch := cim.Default()
	arch.NumPEs = plan.MinPEs + extra
	return compiled{m: m, dg: dg, arch: arch}
}

func policies() []schedule.Policy {
	return []schedule.Policy{
		schedule.LayerByLayer,
		schedule.Windowed(2),
		schedule.Windowed(4),
		schedule.CrossLayer,
	}
}

// copyTimeline deep-copies the mutable parts of a timeline so
// corruption tests do not alias the original.
func copyTimeline(tl *schedule.Timeline) *schedule.Timeline {
	c := *tl
	c.Items = append([]schedule.Item(nil), tl.Items...)
	c.LayerActive = append([]int64(nil), tl.LayerActive...)
	c.ReplicaActive = make([][]int64, len(tl.ReplicaActive))
	for i, r := range tl.ReplicaActive {
		c.ReplicaActive[i] = append([]int64(nil), r...)
	}
	return &c
}

// TestTimelinePassesEveryPolicyEveryModel: both engines' timelines for
// every builtin model under every policy family member must satisfy the
// full invariant set.
func TestTimelinePassesEveryPolicyEveryModel(t *testing.T) {
	heavy := map[models.ID]bool{
		models.VGG19: true, models.ResNet50: true,
		models.ResNet101: true, models.ResNet152: true,
	}
	for _, id := range models.SortedIDs() {
		id := id
		if testing.Short() && heavy[id] {
			continue
		}
		t.Run(string(id), func(t *testing.T) {
			t.Parallel()
			c := compile(t, id, 6, 12)
			for _, p := range policies() {
				tl, err := schedule.Schedule(c.dg, p, schedule.Options{})
				if err != nil {
					t.Fatalf("%s: %v", p.Name(), err)
				}
				if err := check.Timeline(c.m, c.dg, p, tl, check.Options{}); err != nil {
					t.Fatalf("%s: scheduled timeline rejected: %v", p.Name(), err)
				}
				res, err := sim.Run(c.arch, c.dg, c.m, p, nil)
				if err != nil {
					t.Fatalf("%s: sim: %v", p.Name(), err)
				}
				if err := check.Timeline(c.m, c.dg, p, res.Timeline, check.Options{}); err != nil {
					t.Fatalf("%s: simulated timeline rejected: %v", p.Name(), err)
				}
				if !tl.Equal(res.Timeline) {
					t.Fatalf("%s: schedule and sim timelines differ", p.Name())
				}
			}
		})
	}
}

// TestTimelineWithEdgeCostPasses: the checker accepts timelines produced
// under a dependency-edge cost when given the same cost model, and
// rejects them under a larger one.
func TestTimelineWithEdgeCostPasses(t *testing.T) {
	c := compile(t, models.TinyBranchNet, 4, 9)
	cost := func(pred deps.SetRef, toLayer int) int64 { return 3 }
	tl, err := schedule.Schedule(c.dg, schedule.CrossLayer, schedule.Options{EdgeCost: cost})
	if err != nil {
		t.Fatal(err)
	}
	if err := check.Timeline(c.m, c.dg, schedule.CrossLayer, tl, check.Options{EdgeCost: cost}); err != nil {
		t.Fatalf("timeline rejected under its own cost model: %v", err)
	}
	bigger := func(pred deps.SetRef, toLayer int) int64 { return 10 }
	err = check.Timeline(c.m, c.dg, schedule.CrossLayer, tl, check.Options{EdgeCost: bigger})
	assertKind(t, err, check.KindDependency)
}

func assertKind(t *testing.T, err error, want check.Kind) {
	t.Helper()
	if err == nil {
		t.Fatalf("corruption not detected, want %s violation", want)
	}
	var v *check.Violation
	if !errors.As(err, &v) {
		t.Fatalf("error %v is not a *check.Violation", err)
	}
	if v.Kind != want {
		t.Fatalf("violation kind = %s (%v), want %s", v.Kind, err, want)
	}
}

// TestTimelineRejectsCorruption: hand-corrupted copies of a valid
// timeline must be rejected with the right violation kind.
func TestTimelineRejectsCorruption(t *testing.T) {
	c := compile(t, models.TinyBranchNet, 4, 9)
	csr := c.dg.CSR

	schedOf := func(p schedule.Policy) *schedule.Timeline {
		tl, err := schedule.Schedule(c.dg, p, schedule.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return tl
	}

	t.Run("dependency swap", func(t *testing.T) {
		tl := copyTimeline(schedOf(schedule.CrossLayer))
		// Pull a dependent set to before its latest predecessor's end.
		for id := 0; id < csr.NumSets(); id++ {
			var need int64 = -1
			for e := csr.PredOff[id]; e < csr.PredOff[id+1]; e++ {
				if end := tl.Items[csr.Pred[e]].End; end > need {
					need = end
				}
			}
			if need <= 0 {
				continue
			}
			d := tl.Items[id].End - tl.Items[id].Start
			tl.Items[id].Start = need - 1
			tl.Items[id].End = need - 1 + d
			assertKind(t, check.Timeline(c.m, c.dg, schedule.CrossLayer, tl, check.Options{}), check.KindDependency)
			return
		}
		t.Fatal("no dependent set found to corrupt")
	})

	t.Run("crossbar overlap", func(t *testing.T) {
		tl := copyTimeline(schedOf(schedule.LayerByLayer))
		// Overlap the first layer's second set onto its first on the
		// same replica (layer 0 has no dependencies and no window gate,
		// so exclusivity is the first invariant to break).
		items := tl.ItemsOf(0)
		for si := 1; si < len(items); si++ {
			first := tl.At(0, 0)
			it := tl.At(0, si)
			if it.Replica != first.Replica {
				continue
			}
			d := it.End - it.Start
			it.Start = first.Start
			it.End = first.Start + d
			assertKind(t, check.Timeline(c.m, c.dg, schedule.LayerByLayer, tl, check.Options{}), check.KindExclusivity)
			return
		}
		t.Skip("layer 0 has no two sets on one replica at this granularity")
	})

	t.Run("dispatch violation", func(t *testing.T) {
		tl := copyTimeline(schedOf(schedule.CrossLayer))
		// Move one set to a neighbouring replica where it overlaps
		// nothing, and carry its cycles over in the replica accounting:
		// every time stays legal, only the Stage III dispatch rule
		// (set s runs on replica s mod d) is broken.
		for li := 0; li < tl.NumLayers(); li++ {
			d := c.dg.Plan.Layers[li].Group.Dup
			if d < 2 {
				continue
			}
			items := tl.ItemsOf(li)
			for si, it := range items {
				to := (it.Replica + 1) % d
				free := true
				for _, o := range items {
					if o.Replica == to && o.Start < it.End && it.Start < o.End {
						free = false
						break
					}
				}
				if !free {
					continue
				}
				dur := it.End - it.Start
				tl.ReplicaActive[li][it.Replica] -= dur
				tl.ReplicaActive[li][to] += dur
				tl.At(li, si).Replica = to
				assertKind(t, check.Timeline(c.m, c.dg, schedule.CrossLayer, tl, check.Options{}), check.KindDispatch)
				return
			}
		}
		t.Fatal("no set found that fits on another replica")
	})

	t.Run("raster order swapped", func(t *testing.T) {
		tl := copyTimeline(schedOf(schedule.LayerByLayer))
		// Swap the time slots of two consecutive sets of one replica
		// with equal cycle counts. Under window 1 every predecessor has
		// finished and every successor waits for the whole layer, so
		// dependencies, overlap and accounting all still hold; only the
		// raster order on the replica is broken.
		for li := 0; li < tl.NumLayers(); li++ {
			d := c.dg.Plan.Layers[li].Group.Dup
			items := tl.ItemsOf(li)
			for si := 0; si+d < len(items); si++ {
				a, b := tl.At(li, si), tl.At(li, si+d)
				if a.End-a.Start != b.End-b.Start || a.Start == b.Start {
					continue
				}
				a.Start, a.End, b.Start, b.End = b.Start, b.End, a.Start, a.End
				assertKind(t, check.Timeline(c.m, c.dg, schedule.LayerByLayer, tl, check.Options{}), check.KindExclusivity)
				return
			}
		}
		t.Fatal("no pair of equal-length sets found on one replica")
	})

	t.Run("window violation", func(t *testing.T) {
		tl := copyTimeline(schedOf(schedule.LayerByLayer))
		// Find a set whose dependencies finished strictly before its
		// layer's admission gate, and start it inside that gap: legal by
		// data dependencies, illegal under the window-1 admission rule.
		layerEnd := make([]int64, tl.NumLayers())
		for _, it := range tl.Items {
			if it.End > layerEnd[it.Layer] {
				layerEnd[it.Layer] = it.End
			}
		}
		var gate int64
		for li := 1; li < tl.NumLayers(); li++ {
			if e := layerEnd[li-1]; e > gate {
				gate = e
			}
			for _, it := range tl.ItemsOf(li) {
				id := csr.ID(li, it.Set)
				var need int64
				for e := csr.PredOff[id]; e < csr.PredOff[id+1]; e++ {
					if end := tl.Items[csr.Pred[e]].End; end > need {
						need = end
					}
				}
				if need >= gate || it.Start != gate || it.Set != 0 {
					continue
				}
				d := it.End - it.Start
				mut := tl.At(li, it.Set)
				mut.Start = gate - 1
				mut.End = gate - 1 + d
				assertKind(t, check.Timeline(c.m, c.dg, schedule.LayerByLayer, tl, check.Options{}), check.KindWindow)
				return
			}
		}
		t.Fatal("no window-gated set found to corrupt")
	})

	t.Run("active cycles tampered", func(t *testing.T) {
		tl := copyTimeline(schedOf(schedule.CrossLayer))
		tl.LayerActive[0]++
		assertKind(t, check.Timeline(c.m, c.dg, schedule.CrossLayer, tl, check.Options{}), check.KindConservation)
	})

	t.Run("replica accounting tampered", func(t *testing.T) {
		tl := copyTimeline(schedOf(schedule.CrossLayer))
		tl.ReplicaActive[0][0]++
		assertKind(t, check.Timeline(c.m, c.dg, schedule.CrossLayer, tl, check.Options{}), check.KindConservation)
	})

	t.Run("duration stretched", func(t *testing.T) {
		tl := copyTimeline(schedOf(schedule.CrossLayer))
		// Stretch the very last set: no successors, nothing after it on
		// its replica, so only the Stage I cycle count gives it away.
		last := 0
		for id := range tl.Items {
			if tl.Items[id].End > tl.Items[last].End {
				last = id
			}
		}
		tl.Items[last].End++
		assertKind(t, check.Timeline(c.m, c.dg, schedule.CrossLayer, tl, check.Options{}), check.KindConservation)
	})

	t.Run("makespan tampered", func(t *testing.T) {
		tl := copyTimeline(schedOf(schedule.CrossLayer))
		tl.Makespan++
		assertKind(t, check.Timeline(c.m, c.dg, schedule.CrossLayer, tl, check.Options{}), check.KindMakespan)
	})

	t.Run("replica out of range", func(t *testing.T) {
		tl := copyTimeline(schedOf(schedule.CrossLayer))
		tl.Items[0].Replica = c.dg.Plan.Layers[0].Group.Dup
		assertKind(t, check.Timeline(c.m, c.dg, schedule.CrossLayer, tl, check.Options{}), check.KindShape)
	})

	t.Run("item mislabeled", func(t *testing.T) {
		tl := copyTimeline(schedOf(schedule.CrossLayer))
		tl.Items[0].Set = 1
		assertKind(t, check.Timeline(c.m, c.dg, schedule.CrossLayer, tl, check.Options{}), check.KindShape)
	})

	t.Run("nil policy", func(t *testing.T) {
		tl := copyTimeline(schedOf(schedule.CrossLayer))
		assertKind(t, check.Timeline(c.m, c.dg, nil, tl, check.Options{}), check.KindShape)
	})
}

// TestViolationMessage: violations carry their location and read as one
// line.
func TestViolationMessage(t *testing.T) {
	v := &check.Violation{Kind: check.KindDependency, Layer: 3, Set: 7, Msg: "starts early"}
	if got := v.Error(); got != "check: dependency violation at L3/S7: starts early" {
		t.Errorf("Error() = %q", got)
	}
	v = &check.Violation{Kind: check.KindMakespan, Layer: -1, Set: -1, Msg: "off by one"}
	if got := v.Error(); got != "check: makespan violation: off by one" {
		t.Errorf("Error() = %q", got)
	}
}
