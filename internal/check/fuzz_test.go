package check_test

import (
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

// FuzzScheduleVsSim is the differential fuzz harness over the whole
// scheduling stack: a fuzzed random CNN is compiled (canonicalize →
// map → Stage I/II) and executed by BOTH engines — the analytic Stage IV
// list scheduler and the event-driven simulator — under a fuzzed policy
// and mapping. Every timeline must pass the independent invariant
// checker, and the two engines must agree item-for-item. The
// makespan-only scheduler pass (the scored solvers' cost model) and the
// simulator's coarse run must report that same makespan. Any divergence
// is a bug in one of the three subsystems.
//
// The window byte also selects the dependency-edge cost: idealized, a
// per-layer-pair latency (NoC-like), or a volume-proportional one
// (GPEU-like).
//
// The seed corpus in testdata/fuzz/FuzzScheduleVsSim covers both policy
// extremes, bounded windows, duplication on/off, and each Stage I
// granularity class; CI replays it on every run (go test) and mutates
// it briefly (go test -fuzz).
func FuzzScheduleVsSim(f *testing.F) {
	f.Add(int64(1), byte(4), byte(0), byte(3), byte(2))
	f.Add(int64(2), byte(6), byte(1), byte(0), byte(0))
	f.Add(int64(3), byte(5), byte(2), byte(8), byte(4))
	f.Add(int64(17), byte(7), byte(3), byte(5), byte(1))
	f.Add(int64(42), byte(3), byte(5), byte(11), byte(3))
	f.Add(int64(5), byte(6), byte(6), byte(7), byte(2))
	f.Add(int64(9), byte(4), byte(14), byte(0), byte(4))
	f.Add(int64(23), byte(5), byte(15), byte(9), byte(1))
	f.Fuzz(func(t *testing.T, seed int64, layers, window, extra, gran byte) {
		maxBase := 2 + int(layers)%6 // [2, 7] base layers
		k := int(window) % 6         // 0 → xinf, else xK
		extraPEs := int(extra) % 12  // duplication headroom
		granularity := []int{1, 3, 9, 27, sets.FineGranularity}[int(gran)%5]
		edge := edgeCosts[int(window)/6%len(edgeCosts)]

		g, err := models.RandomCNN(models.RandomOptions{Seed: seed, MaxBaseLayers: maxBase, MaxInput: 24})
		if err != nil {
			t.Fatalf("generator: %v", err)
		}
		if _, err := frontend.Canonicalize(g, frontend.Options{}); err != nil {
			t.Fatalf("canonicalize: %v", err)
		}
		pe := im2col.PEDims{Rows: 64, Cols: 64}
		plan, err := mapping.Analyze(g, pe)
		if err != nil {
			t.Fatalf("analyze: %v", err)
		}
		solver := mapping.SolverNone
		if extraPEs > 0 {
			solver = mapping.SolverDP
		}
		sol, err := mapping.Solve(plan, plan.MinPEs+extraPEs, solver)
		if err != nil {
			t.Fatalf("solve: %v", err)
		}
		m, err := mapping.Apply(g, plan, sol, plan.MinPEs+extraPEs)
		if err != nil {
			t.Fatalf("apply: %v", err)
		}
		sp, err := sets.Determine(g, m, sets.Options{TargetSets: granularity})
		if err != nil {
			t.Fatalf("stage I: %v", err)
		}
		dg, err := deps.Build(g, sp)
		if err != nil {
			t.Fatalf("stage II: %v", err)
		}

		p := schedule.Policy(schedule.CrossLayer)
		if k > 0 {
			p = schedule.Windowed(k)
		}
		tl, err := schedule.Schedule(dg, p, schedule.Options{EdgeCost: edge})
		if err != nil {
			t.Fatalf("schedule: %v", err)
		}
		if err := check.Timeline(m, dg, p, tl, check.Options{EdgeCost: edge}); err != nil {
			t.Fatalf("scheduled timeline rejected: %v", err)
		}

		arch := cim.Default()
		arch.PE = pe
		arch.NumPEs = plan.MinPEs + extraPEs
		res, err := sim.RunOpt(arch, dg, m, p, sim.Options{Edge: edge})
		if err != nil {
			t.Fatalf("sim: %v", err)
		}
		if err := check.Timeline(m, dg, p, res.Timeline, check.Options{EdgeCost: edge}); err != nil {
			t.Fatalf("simulated timeline rejected: %v", err)
		}
		if !tl.Equal(res.Timeline) {
			t.Fatalf("scheduler and simulator disagree (makespan %d vs %d)", tl.Makespan, res.Makespan)
		}

		var sc schedule.Scratch
		pass, err := sc.Makespan(dg, p, schedule.Options{EdgeCost: edge})
		if err != nil {
			t.Fatalf("makespan pass: %v", err)
		}
		coarse, err := sim.NewState().RunCoarse(arch, dg, m, p, sim.Options{Edge: edge})
		if err != nil {
			t.Fatalf("coarse sim: %v", err)
		}
		if pass != tl.Makespan || coarse.Makespan != tl.Makespan {
			t.Fatalf("makespans disagree: pass %d, Schedule %d, RunCoarse %d", pass, tl.Makespan, coarse.Makespan)
		}
	})
}

// edgeCosts are the dependency-edge cost models the fuzzer draws from.
var edgeCosts = []schedule.EdgeCostFn{
	nil,
	func(pred deps.SetRef, toLayer int) int64 { return int64((pred.Layer*7 + toLayer*3) % 5) },
	func(pred deps.SetRef, toLayer int) int64 { return int64(pred.Vol / 64) },
}
