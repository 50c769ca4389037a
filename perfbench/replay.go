package main

import (
	"fmt"

	"clsacim/internal/check"
	"clsacim/internal/cim"
	"clsacim/internal/deps"
	"clsacim/internal/frontend"
	"clsacim/internal/mapping"
	"clsacim/internal/metrics"
	"clsacim/internal/models"
	"clsacim/internal/nn"
	"clsacim/internal/schedule"
	"clsacim/internal/sets"
	"clsacim/internal/sim"
)

// The traced run of the sweep and search workloads replays each op
// through every stage's single top-level entry point, in the order
// clsacim.Compile and Compiled.Schedule call them, with a span around
// each call. The replay covers the configurations the workloads use:
// the default architecture (256x256 crossbars, default tMVM, 8-bit
// weights, idealized data movement, so no dependency-edge cost) with
// optional weight duplication.

// replayKey is one compilation, normalized the way the Engine keys its
// compile cache: without duplication the solver is "none" and extra
// PEs fold onto the x = 0 compilation.
type replayKey struct {
	model      string
	x          int
	solver     string // "none", a plain solver, or "search"
	solverMode string // scoring mode of "search"
	targetSets int    // 0 = finest
}

func baselineKey(model string, targetSets int) replayKey {
	return replayKey{model: model, solver: "none", targetSets: targetSets}
}

// replayComp is a replayed compilation and its scheduled timelines'
// makespans per canonical mode.
type replayComp struct {
	g         *nn.Graph
	mapped    *mapping.Mapping
	dg        *deps.Graph
	makespans map[string]int64
}

// replayer replays the ops of one traced phase.
type replayer struct {
	tr *tracer
	op int
}

// call runs f inside a span and returns its error.
func (r replayer) call(name string, parent int32, f func() error) error {
	id := r.tr.begin(name, r.op, parent)
	err := f()
	r.tr.end(id)
	return err
}

// compile replays clsacim.Compile for key.
func (r replayer) compile(parent int32, key replayKey) (*replayComp, error) {
	id := r.tr.begin("engine.compile", r.op, parent)
	defer r.tr.end(id)
	var g *nn.Graph
	err := r.call("models.Build", id, func() (err error) {
		g, err = models.Build(models.ID(key.model), models.Options{})
		return err
	})
	if err != nil {
		return nil, err
	}
	if err := r.call("frontend.Canonicalize", id, func() error {
		_, err := frontend.Canonicalize(g, frontend.Options{WeightBits: 8})
		return err
	}); err != nil {
		return nil, err
	}
	arch := cim.Default()
	var plan *mapping.Plan
	if err := r.call("mapping.Analyze", id, func() (err error) {
		plan, err = mapping.Analyze(g, arch.PE)
		return err
	}); err != nil {
		return nil, err
	}
	f := plan.MinPEs + key.x
	arch.NumPEs = f
	if err := arch.Validate(); err != nil {
		return nil, err
	}
	targetSets := key.targetSets
	if targetSets == 0 {
		targetSets = sets.FineGranularity
	}
	var sol mapping.Solution
	solveID := r.tr.begin("mapping.Solve", r.op, id)
	if key.solver == "search" {
		sol, err = r.search(solveID, g, plan, f, arch, key, targetSets)
	} else {
		var fn mapping.Func
		if fn, err = mapping.Lookup(key.solver); err == nil {
			sol, err = fn(plan, f)
		}
	}
	r.tr.end(solveID)
	if err != nil {
		return nil, err
	}
	mapped, dg, err := r.stagesIandII(id, g, plan, sol, f, targetSets)
	if err != nil {
		return nil, err
	}
	return &replayComp{g: g, mapped: mapped, dg: dg, makespans: make(map[string]int64)}, nil
}

// stagesIandII replays mapping.Apply, Stage I and Stage II.
func (r replayer) stagesIandII(parent int32, g *nn.Graph, plan *mapping.Plan, sol mapping.Solution, f, targetSets int) (*mapping.Mapping, *deps.Graph, error) {
	var mapped *mapping.Mapping
	if err := r.call("mapping.Apply", parent, func() (err error) {
		mapped, err = mapping.Apply(g, plan, sol, f)
		return err
	}); err != nil {
		return nil, nil, err
	}
	var sp *sets.Plan
	if err := r.call("sets.Determine", parent, func() (err error) {
		sp, err = sets.Determine(g, mapped, sets.Options{TargetSets: targetSets})
		return err
	}); err != nil {
		return nil, nil, err
	}
	var dg *deps.Graph
	a0 := heapAllocBytes()
	if err := r.call("deps.Build", parent, func() (err error) {
		dg, err = deps.Build(g, sp)
		return err
	}); err != nil {
		return nil, nil, err
	}
	r.tr.add("deps.alloc_bytes", float64(heapAllocBytes()-a0))
	r.tr.add("deps.edges", float64(dg.NumEdges()))
	r.tr.add("sets.sets", float64(dg.NumSets()))
	return mapped, dg, nil
}

// search replays the scored "search" solver: every candidate it scores
// pays mapping.Apply, Stage I, Stage II and a coarse simulation, each
// recorded as a child of the mapping.Solve span.
func (r replayer) search(parent int32, g *nn.Graph, plan *mapping.Plan, f int, arch cim.Config, key replayKey, targetSets int) (mapping.Solution, error) {
	fn, ok := mapping.LookupScored(key.solver)
	if !ok {
		return mapping.Solution{}, fmt.Errorf("no scored solver %q", key.solver)
	}
	pol, err := policyFor(key.solverMode, len(plan.Layers))
	if err != nil {
		return mapping.Solution{}, err
	}
	st := sim.NewState()
	score := func(d []int) (int64, error) {
		r.tr.add("mapping.candidates", 1)
		sol, err := mapping.NewSolution(plan, d)
		if err != nil {
			return 0, err
		}
		mapped, dg, err := r.stagesIandII(parent, g, plan, sol, f, targetSets)
		if err != nil {
			return 0, err
		}
		var res sim.Coarse
		err = r.call("sim.RunCoarse", parent, func() (err error) {
			res, err = st.RunCoarse(arch, dg, mapped, pol, sim.Options{})
			return err
		})
		return res.Makespan, err
	}
	return fn(plan, f, score, mapping.ScoredOptions{Seed: searchSeed})
}

// policyFor resolves a mode name to its policy, folded onto the
// canonical representative for the layer count as the engine does.
func policyFor(mode string, layers int) (schedule.Policy, error) {
	p, err := schedule.ParseMode(mode)
	if err != nil {
		return nil, err
	}
	switch k := p.Window(); {
	case k <= 1:
		return schedule.LayerByLayer, nil
	case k >= layers:
		return schedule.CrossLayer, nil
	}
	return p, nil
}

// schedule replays Compiled.Schedule (Stage III/IV, the always-on
// timeline validation and the report metrics) and the engine's
// WithValidation check, once per canonical mode like the engine's
// timeline cache, and returns the makespan.
func (r replayer) schedule(parent int32, c *replayComp, mode string) (int64, error) {
	pol, err := policyFor(mode, len(c.dg.Plan.Layers))
	if err != nil {
		return 0, err
	}
	if m, ok := c.makespans[pol.Name()]; ok {
		return m, nil
	}
	id := r.tr.begin("engine.schedule", r.op, parent)
	var t *schedule.Timeline
	err = r.call("schedule.Schedule", id, func() (err error) {
		t, err = schedule.Schedule(c.dg, pol, schedule.Options{})
		return err
	})
	if err == nil {
		r.tr.add("schedule.items", float64(len(t.Items)))
		err = r.call("schedule.Validate", id, func() error { return t.Validate(c.dg, schedule.Options{}) })
	}
	if err == nil {
		_, err = metrics.Utilization(t, c.mapped)
	}
	r.tr.end(id)
	if err != nil {
		return 0, err
	}
	if err := r.call("check.Timeline", parent, func() error {
		return check.Timeline(c.mapped, c.dg, pol, t, check.Options{})
	}); err != nil {
		return 0, err
	}
	c.makespans[pol.Name()] = t.Makespan
	return t.Makespan, nil
}
