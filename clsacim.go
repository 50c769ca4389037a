// Package clsacim is the public API of the CLSA-CIM reproduction: a
// compiler and system-level simulator for neural-network inference on
// tiled RRAM computing-in-memory (CIM) architectures, implementing the
// cross-layer scheduling algorithm and weight-duplication mapping of
//
//	Pelke et al., "CLSA-CIM: A Cross-Layer Scheduling Approach for
//	Computing-in-Memory Architectures", DATE 2024.
//
// The entry point is the Engine: a concurrency-safe evaluator that
// holds the architecture (functional options), caches compilations by
// (model, architecture, mapping) key, and runs batches on a bounded
// worker pool:
//
//	eng, _ := clsacim.New(
//		clsacim.WithCrossbar(256, 256),
//		clsacim.WithTMVMNanos(1400),
//	)
//	ev, _ := eng.Evaluate(ctx, clsacim.Request{
//		Model:             "tinyyolov4",
//		Mode:              clsacim.ModeCrossLayer, // xinf
//		ExtraPEs:          32,                     // x: F = PEmin + x
//		WeightDuplication: true,                   // wdup mapping
//	})
//	fmt.Println(ev.Speedup, ev.Result.Utilization)
//
// Requests round-trip through JSON, sweeps go through
// Engine.EvaluateBatch, and Engine.Stats exposes the compile-cache
// accounting. Custom duplication solvers plug in with RegisterSolver;
// custom models (see Builder) join the builtin table with
// RegisterModel.
//
// Compilation canonicalizes the network (BN folding, padding/bias
// partitioning, weight quantization), maps base layers onto crossbar PEs
// (optionally solving the weight-duplication problem), and runs CLSA-CIM
// Stages I-II (set and dependency determination). Scheduling runs Stages
// III-IV (or the layer-by-layer baseline) and reports the paper's
// metrics.
//
// The original one-shot entry points — Compile, Compiled.Schedule, and
// Evaluate — still work and are kept as thin compatibility wrappers;
// new code should prefer the Engine, which shares compilations that the
// one-shot API redoes on every call.
package clsacim

import (
	"context"
	"fmt"
	"io"
	"sync"

	"clsacim/internal/cim"
	"clsacim/internal/deps"
	"clsacim/internal/frontend"
	"clsacim/internal/gantt"
	"clsacim/internal/im2col"
	"clsacim/internal/mapping"
	"clsacim/internal/metrics"
	"clsacim/internal/nn"
	"clsacim/internal/schedule"
	"clsacim/internal/sets"
	"clsacim/internal/sim"
)

// ScheduleMode selects the scheduling strategy. The zero value is the
// layer-by-layer baseline; ModeCrossLayer is unbounded cross-layer
// inference, and ModeWindow(K) is the bounded family in between.
// Values are comparable (==) and round-trip through JSON.
type ScheduleMode struct {
	// w encodes the admission window: 0 = layer-by-layer (the default),
	// -1 = unbounded cross-layer ("xinf"), K > 0 = at most K layers
	// concurrently active ("xK").
	w int
}

// Scheduling strategies: the paper's layer-by-layer baseline (§II-B) and
// CLSA-CIM cross-layer inference ("xinf", §IV).
var (
	ModeLayerByLayer = ScheduleMode{}
	ModeCrossLayer   = ScheduleMode{w: -1}
)

// ModeWindow returns the bounded cross-layer mode xK: at most k layers
// concurrently active. k = 1 behaves exactly like ModeLayerByLayer and
// k >= the model's layer count exactly like ModeCrossLayer; values in
// between interpolate between the paper's two extremes. Non-positive k
// yields ModeLayerByLayer.
func ModeWindow(k int) ScheduleMode {
	if k <= 0 {
		return ModeLayerByLayer
	}
	return ScheduleMode{w: k}
}

// Window returns the mode's admission bound: the maximum number of
// layers concurrently active (schedule.Unbounded for ModeCrossLayer).
func (m ScheduleMode) Window() int {
	switch {
	case m.w < 0:
		return schedule.Unbounded
	case m.w == 0:
		return 1
	default:
		return m.w
	}
}

// policy resolves the mode to its scheduling policy.
func (m ScheduleMode) policy() schedule.Policy {
	switch {
	case m.w < 0:
		return schedule.CrossLayer
	case m.w == 0:
		return schedule.LayerByLayer
	default:
		return schedule.Windowed(m.w)
	}
}

// String names the mode as in the paper's plots.
func (m ScheduleMode) String() string {
	switch {
	case m.w < 0:
		return "xinf"
	case m.w == 0:
		return "layer-by-layer"
	default:
		return fmt.Sprintf("x%d", m.w)
	}
}

// Name returns the canonical short mode name accepted by ParseMode:
// "lbl", "xinf", or "x<K>".
func (m ScheduleMode) Name() string { return m.wireName() }

// Config controls compilation. The zero value reproduces the paper's
// case-study architecture: 256x256 crossbars, tMVM = 1400 ns, F = PEmin,
// no weight duplication, idealized (zero-cost) data movement.
// Config round-trips through JSON (zero fields are omitted), so
// configurations can arrive over the wire alongside a Request.
type Config struct {
	// PERows and PECols are the crossbar dimensions (default 256x256).
	PERows int `json:"pe_rows,omitempty"`
	PECols int `json:"pe_cols,omitempty"`
	// TMVMNanos is the MVM latency of one cycle (default 1400 ns).
	TMVMNanos float64 `json:"tmvm_nanos,omitempty"`
	// ExtraPEs is the paper's x: the architecture provides
	// F = PEmin + x crossbars. Ignored when TotalPEs is set.
	ExtraPEs int `json:"extra_pes,omitempty"`
	// TotalPEs overrides the PE count F when positive.
	TotalPEs int `json:"total_pes,omitempty"`
	// WeightDuplication enables the wdup mapping (paper §III-C):
	// Optimization Problem 1 decides which layers to replicate.
	WeightDuplication bool `json:"weight_duplication,omitempty"`
	// Solver picks the duplication solver: "dp" (exact for the paper's
	// Optimization Problem 1, default), "greedy", "minmax" (bottleneck
	// objective, extension), "uniform" (even spread baseline), "none",
	// "search" (schedule-aware annealing scored by the Stage IV
	// scheduler's makespan), or any name added through RegisterSolver.
	Solver string `json:"solver,omitempty"`
	// SolverBudget bounds the candidate evaluations of a scored solver
	// such as "search" (0 = the solver's default;
	// mapping.DefaultSearchBudget for "search"). The budget is expressed
	// in evaluations, not wall clock, so a fixed (seed, budget) pair is
	// reproducible across machines and GOMAXPROCS settings. Plain
	// solvers ignore it.
	SolverBudget int `json:"solver_budget,omitempty"`
	// SolverSeed seeds the deterministic move RNG of a scored solver.
	// Plain solvers ignore it.
	SolverSeed uint64 `json:"solver_seed,omitempty"`
	// SolverMode names the scheduling mode ("lbl", "x4", "xinf") whose
	// makespan a scored solver optimizes. Empty means "xinf". The Engine
	// fills it from the request's mode, so direct Engine users never set
	// it; it exists so the compile cache can key on it and one-shot
	// Compile callers can steer the search. Plain solvers ignore it.
	SolverMode string `json:"solver_mode,omitempty"`
	// TargetSets is the Stage I granularity (sets per layer). The
	// default is the finest alignment-respecting partition, which
	// realizes the paper's "maximum achievable utilization and minimum
	// inference latency". Use small values (e.g. 26) for coarse
	// scheduling experiments.
	TargetSets int `json:"target_sets,omitempty"`
	// WeightBits quantizes base-layer weights (default 8; negative
	// disables quantization).
	WeightBits int `json:"weight_bits,omitempty"`
	// NoCCyclesPerHop charges data movement per mesh hop on dependency
	// edges (extension of paper §V-C; 0 = idealized).
	NoCCyclesPerHop float64 `json:"noc_cycles_per_hop,omitempty"`
	// GPEUCyclesPerKElem charges non-base-layer processing per 1024
	// transferred elements on dependency edges (0 = idealized).
	GPEUCyclesPerKElem float64 `json:"gpeu_cycles_per_kelem,omitempty"`
	// PEsPerTile groups PEs into NoC tiles (default 4).
	PEsPerTile int `json:"pes_per_tile,omitempty"`
	// WeightVirtualization permits architectures with fewer PEs than
	// the network needs (TotalPEs < PEmin): swapped layers time-share a
	// PE pool and are reprogrammed before execution (the paper's §V-C
	// future-work scenario). Only layer-by-layer scheduling is possible
	// in this regime.
	WeightVirtualization bool `json:"weight_virtualization,omitempty"`
	// WriteCyclesPerCrossbar is the RRAM programming time per crossbar
	// in MVM cycles (default 512) when virtualization is active.
	WriteCyclesPerCrossbar int64 `json:"write_cycles_per_crossbar,omitempty"`
	// WriteParallelism is the number of crossbars programmable
	// concurrently (default 4).
	WriteParallelism int `json:"write_parallelism,omitempty"`
	// EnergyPerMVMNanoJ enables the energy estimate (extension): nJ
	// consumed by one PE per MVM cycle. 0 disables energy reporting.
	EnergyPerMVMNanoJ float64 `json:"energy_per_mvm_nj,omitempty"`
	// EnergyPerWriteNanoJ is the nJ cost of programming one crossbar
	// (virtualization).
	EnergyPerWriteNanoJ float64 `json:"energy_per_write_nj,omitempty"`
}

func (c Config) withDefaults() Config {
	if c.PERows == 0 {
		c.PERows = 256
	}
	if c.PECols == 0 {
		c.PECols = 256
	}
	if c.TMVMNanos == 0 {
		c.TMVMNanos = cim.DefaultTMVMNanos
	}
	if c.Solver == "" {
		c.Solver = "dp"
	}
	if c.TargetSets == 0 {
		c.TargetSets = sets.FineGranularity
	}
	if c.WeightBits == 0 {
		c.WeightBits = 8
	}
	if c.PEsPerTile == 0 {
		c.PEsPerTile = 4
	}
	if c.WriteCyclesPerCrossbar == 0 {
		c.WriteCyclesPerCrossbar = 512
	}
	if c.WriteParallelism == 0 {
		c.WriteParallelism = 4
	}
	return c
}

// solverFunc resolves the duplication solver from the process-wide
// registry (see RegisterSolver). Without weight duplication every layer
// keeps d_i = 1 regardless of the configured name.
func (c Config) solverFunc() (mapping.Func, error) {
	if !c.WeightDuplication {
		return lookupSolver(mapping.SolverNone.String())
	}
	return lookupSolver(c.Solver)
}

// Compiled is a model compiled against an architecture: canonicalized,
// mapped (with duplication applied), and analyzed by CLSA-CIM Stages
// I-II. It can be scheduled in any mode.
type Compiled struct {
	ModelName string
	cfg       Config
	arch      cim.Config
	graph     *nn.Graph
	plan      *mapping.Plan
	mapped    *mapping.Mapping
	setsPlan  *sets.Plan
	depGraph  *deps.Graph
	dup       mapping.Solution
	peMin     int
	edgeCost  schedule.EdgeCostFn
	// virtual is non-nil when the network does not fit (F < PEmin) and
	// weight virtualization is active.
	virtual *mapping.VirtualMapping

	// sched is the compilation's mutable scheduling state, shared by
	// pointer between a base compilation and its derived F-views (see
	// withExtraPEs), so all of them reuse one set of timelines,
	// validation marks, the Stage III dispatch plan, and the simulator
	// scratch pool.
	sched *schedState
}

// schedState caches everything scheduling and simulation derive from a
// compilation's immutable Stage I-III artifacts.
//
// timelines caches validated schedules per canonical mode wire name. A
// Compiled is immutable and shared through the Engine's compile cache,
// so the schedule of a (compile key, mode) pair is computed once;
// sweeps that rescore the same baseline hit this cache. checked (same
// key space, same lock) marks timelines that already passed the full
// internal/check invariant set, so WithValidation sweeps validate each
// cached timeline once instead of per request.
//
// dispatch is the lazily built Stage III dispatch plan; every built-in
// policy shares the raster Replica rule, so one plan serves every
// scheduling mode — re-simulating a cached compilation under another
// mode reuses it and only re-runs the event loop. simPool recycles
// sim.State scratch across those re-simulations.
type schedState struct {
	mu        sync.Mutex
	timelines map[string]*schedule.Timeline
	checked   map[string]bool
	dispatch  *schedule.Dispatch
	simPool   sync.Pool // *sim.State
}

// Virtualized reports whether the compilation uses weight reloading
// (F < PEmin).
func (c *Compiled) Virtualized() bool { return c.virtual != nil }

// ReloadCyclesTotal returns the summed crossbar-programming time per
// inference (0 without virtualization).
func (c *Compiled) ReloadCyclesTotal() int64 {
	if c.virtual == nil {
		return 0
	}
	return c.virtual.TotalReload
}

// CrossbarWritesPerInference returns the number of crossbars programmed
// per inference — the endurance pressure of running below PEmin.
func (c *Compiled) CrossbarWritesPerInference() int {
	if c.virtual == nil {
		return 0
	}
	return c.virtual.Writes
}

// ResidentLayers returns how many layers keep dedicated weights.
func (c *Compiled) ResidentLayers() int {
	if c.virtual == nil {
		return len(c.plan.Layers)
	}
	n := 0
	for _, r := range c.virtual.Resident {
		if r {
			n++
		}
	}
	return n
}

// Compile lowers model through the full preparation pipeline. It is
// the one-shot entry point kept for compatibility: every call redoes
// the whole pipeline. New code should go through an Engine, whose
// compile cache shares this work across requests.
func Compile(model *Model, cfg Config) (*Compiled, error) {
	cfg = cfg.withDefaults()
	scored := cfg.WeightDuplication && mapping.IsScored(cfg.Solver)
	var solve mapping.Func
	var err error
	if !scored {
		solve, err = cfg.solverFunc()
		if err != nil {
			return nil, err
		}
	}
	g, err := model.graph()
	if err != nil {
		return nil, fmt.Errorf("clsacim: building model %q: %w", model.Name, err)
	}
	wb := cfg.WeightBits
	if wb < 0 {
		wb = 0
	}
	if _, err := frontend.Canonicalize(g, frontend.Options{WeightBits: wb}); err != nil {
		return nil, fmt.Errorf("clsacim: canonicalizing %q: %w", model.Name, err)
	}
	pe := im2col.PEDims{Rows: cfg.PERows, Cols: cfg.PECols}
	plan, err := mapping.Analyze(g, pe)
	if err != nil {
		return nil, fmt.Errorf("clsacim: analyzing %q: %w", model.Name, err)
	}
	f := plan.MinPEs + cfg.ExtraPEs
	if cfg.TotalPEs > 0 {
		f = cfg.TotalPEs
	}
	arch := cim.Config{
		NumPEs:             f,
		PE:                 pe,
		TMVMNanos:          cfg.TMVMNanos,
		PEsPerTile:         cfg.PEsPerTile,
		WeightBits:         wb,
		CellBits:           4,
		InputBits:          8,
		GPEUCyclesPerKElem: cfg.GPEUCyclesPerKElem,
	}
	if cfg.NoCCyclesPerHop > 0 {
		arch.NoC = cim.NoCConfig{Enabled: true, CyclesPerHop: cfg.NoCCyclesPerHop}
	}
	if err := arch.Validate(); err != nil {
		return nil, err
	}
	var sol mapping.Solution
	var mapped *mapping.Mapping
	var virtual *mapping.VirtualMapping
	var stages *stageMemo
	if f < plan.MinPEs {
		if !cfg.WeightVirtualization {
			return nil, fmt.Errorf("clsacim: %q needs %d PEs but the architecture has %d; "+
				"enable WeightVirtualization to run below PEmin", model.Name, plan.MinPEs, f)
		}
		virtual, err = mapping.SolveVirtual(plan, f, mapping.WriteCost{
			CyclesPerCrossbar: cfg.WriteCyclesPerCrossbar,
			Parallelism:       cfg.WriteParallelism,
		})
		if err != nil {
			return nil, fmt.Errorf("clsacim: virtualizing %q: %w", model.Name, err)
		}
		mapped = virtual.Mapping
		sol = mapping.Solution{D: mapped.Dup, PEsNeeded: mapped.PEsUsed}
	} else {
		if scored {
			sol, stages, err = solveScored(cfg, g, plan, f, arch)
		} else {
			sol, err = solve(plan, f)
		}
		if err != nil {
			return nil, fmt.Errorf("clsacim: solving duplication for %q: %w", model.Name, err)
		}
		mapped, err = mapping.Apply(g, plan, sol, f)
		if err != nil {
			return nil, fmt.Errorf("clsacim: applying mapping for %q: %w", model.Name, err)
		}
	}
	setsPlan, err := stages.determine(g, mapped, cfg.TargetSets)
	if err != nil {
		return nil, fmt.Errorf("clsacim: stage I for %q: %w", model.Name, err)
	}
	depGraph, err := stages.build(g, setsPlan)
	if err != nil {
		return nil, fmt.Errorf("clsacim: stage II for %q: %w", model.Name, err)
	}
	c := &Compiled{
		ModelName: model.Name,
		sched: &schedState{
			timelines: make(map[string]*schedule.Timeline),
			checked:   make(map[string]bool),
			simPool:   sync.Pool{New: func() any { return sim.NewState() }},
		},
		cfg:      cfg,
		arch:     arch,
		graph:    g,
		plan:     plan,
		mapped:   mapped,
		setsPlan: setsPlan,
		depGraph: depGraph,
		dup:      sol,
		peMin:    plan.MinPEs,
		virtual:  virtual,
	}
	c.edgeCost = edgeCostFn(arch, mapped)
	return c, nil
}

// withExtraPEs derives the F = PEmin + x view of a base compilation
// (compiled with ExtraPEs = 0). Without weight duplication, TotalPEs,
// and NoC routing, every Stage I-III artifact and every timeline is
// independent of how many idle extra PEs the architecture provides —
// only the reported F, the Eq. 2 utilization denominator, and the Eq. 3
// x differ. The view is a shallow copy with the PE count adjusted; the
// scheduling state (timelines, dispatch plan, simulator pool) stays
// shared with the base, so a no-duplication ExtraPEs sweep compiles and
// schedules once.
func (c *Compiled) withExtraPEs(x int) *Compiled {
	v := *c
	v.cfg.ExtraPEs = x
	v.arch.NumPEs = c.peMin + x
	mv := *c.mapped
	mv.F = v.arch.NumPEs
	v.mapped = &mv
	return &v
}

// edgeCostFn assembles the optional NoC + GPEU dependency-edge cost for
// a mapping on an architecture (nil when idealized). It is a free
// function rather than a Compiled method because the scored-solver
// evaluation loop needs it for candidate mappings that never become a
// Compiled.
func edgeCostFn(arch cim.Config, mapped *mapping.Mapping) schedule.EdgeCostFn {
	noc := arch.NoC.Enabled && arch.NoC.CyclesPerHop > 0
	gpeu := arch.GPEUCyclesPerKElem > 0
	if !noc && !gpeu {
		return nil
	}
	tileOf := make([]int, len(mapped.Groups))
	for i, g := range mapped.Groups {
		if len(g.PEs) > 0 {
			tileOf[i] = arch.TileOf(g.PEs[0])
		}
	}
	return func(pred deps.SetRef, toLayer int) int64 {
		var cost float64
		if noc {
			cost += float64(arch.HopDistance(tileOf[pred.Layer], tileOf[toLayer])) * arch.NoC.CyclesPerHop
		}
		if gpeu {
			cost += arch.GPEUCyclesPerKElem * float64(pred.Vol) / 1024.0
		}
		return int64(cost + 0.5)
	}
}

// scoringMode resolves the mode a scored solver optimizes for from
// Config.SolverMode (default xinf), folded onto its canonical
// representative for the layer count like Compiled.normalizeMode.
func scoringMode(cfg Config, layers int) (ScheduleMode, error) {
	mode := ModeCrossLayer
	if cfg.SolverMode != "" {
		var err error
		mode, err = ParseMode(cfg.SolverMode)
		if err != nil {
			return ScheduleMode{}, err
		}
	}
	switch k := mode.Window(); {
	case k <= 1:
		return ModeLayerByLayer, nil
	case k >= layers:
		return ModeCrossLayer, nil
	default:
		return mode, nil
	}
}

// solveScored runs a schedule-aware duplication solver: the candidate
// evaluation callback applies the candidate (mapping.Apply), takes its
// Stage I-II artifacts from a per-compile memo, and returns the
// makespan the Stage IV scheduler achieves under the scoring mode. A
// candidate re-partitions only the layers whose set count its
// duplication changes and re-derives only the dependency blocks
// touching them, and the makespan-only scheduler pass reuses one
// scratch, so an evaluation costs a small fraction of a full Stage
// I-II plus simulation. The returned memo serves the winner's final
// Stage I-II in Compile. The event simulator is not on this path; it
// remains the oracle the scheduler's makespan is tested against.
func solveScored(cfg Config, g *nn.Graph, plan *mapping.Plan, f int, arch cim.Config) (mapping.Solution, *stageMemo, error) {
	fn, ok := mapping.LookupScored(cfg.Solver)
	if !ok {
		return mapping.Solution{}, nil, fmt.Errorf("%w %q", ErrUnknownSolver, cfg.Solver)
	}
	mode, err := scoringMode(cfg, len(plan.Layers))
	if err != nil {
		return mapping.Solution{}, nil, err
	}
	stages := &stageMemo{sets: sets.NewMemo(g, plan, sets.Options{TargetSets: cfg.TargetSets})}
	var sc schedule.Scratch
	score := func(d []int) (int64, error) {
		sol, err := mapping.NewSolution(plan, d)
		if err != nil {
			return 0, err
		}
		mapped, err := mapping.Apply(g, plan, sol, f)
		if err != nil {
			return 0, err
		}
		setsPlan, err := stages.determine(g, mapped, cfg.TargetSets)
		if err != nil {
			return 0, err
		}
		b, err := stages.builder(setsPlan)
		if err != nil {
			return 0, err
		}
		dg, err := b.BuildTransient(setsPlan)
		if err != nil {
			return 0, err
		}
		var opt schedule.Options
		if mode.Window() > 1 {
			// Mirrors schedOptions: edge costs engage only under
			// cross-layer overlap, so the search optimizes exactly what
			// the final schedule will be charged.
			opt.EdgeCost = edgeCostFn(arch, mapped)
		}
		return sc.Makespan(dg, mode.policy(), opt)
	}
	sol, err := fn(plan, f, score, mapping.ScoredOptions{Seed: cfg.SolverSeed, Budget: cfg.SolverBudget})
	return sol, stages, err
}

// stageMemo carries Stage I and II across the duplication vectors of
// one compile (sets.Memo, deps.Builder). A nil *stageMemo runs the
// one-shot sets.Determine and deps.Build.
type stageMemo struct {
	sets *sets.Memo
	deps *deps.Builder
}

func (s *stageMemo) determine(g *nn.Graph, mapped *mapping.Mapping, targetSets int) (*sets.Plan, error) {
	if s == nil {
		return sets.Determine(g, mapped, sets.Options{TargetSets: targetSets})
	}
	return s.sets.Determine(mapped)
}

func (s *stageMemo) build(g *nn.Graph, plan *sets.Plan) (*deps.Graph, error) {
	if s == nil {
		return deps.Build(g, plan)
	}
	b, err := s.builder(plan)
	if err != nil {
		return nil, err
	}
	return b.Build(plan)
}

// builder returns the Stage II builder, compiling it from the first
// plan it sees.
func (s *stageMemo) builder(plan *sets.Plan) (*deps.Builder, error) {
	if s.deps == nil {
		b, err := deps.NewBuilder(plan)
		if err != nil {
			return nil, err
		}
		s.deps = b
	}
	return s.deps, nil
}

// PEmin returns the minimum PE count storing every weight once.
func (c *Compiled) PEmin() int { return c.peMin }

// TotalPEs returns F, the PE count of the compiled architecture.
func (c *Compiled) TotalPEs() int { return c.arch.NumPEs }

// PEsUsed returns the number of PEs actually allocated after mapping.
func (c *Compiled) PEsUsed() int { return c.mapped.PEsUsed }

// NumSets returns the total Stage I set count.
func (c *Compiled) NumSets() int { return c.depGraph.NumSets() }

// NumDepEdges returns the total Stage II dependency-edge count.
func (c *Compiled) NumDepEdges() int { return c.depGraph.NumEdges() }

// Report holds the scheduling outcome and the paper's metrics for one
// (mapping, scheduling) configuration.
type Report struct {
	Model          string
	Mode           ScheduleMode
	F              int
	PEmin          int
	MakespanCycles int64
	// LatencyNanos is MakespanCycles * tMVM.
	LatencyNanos float64
	// Utilization is paper Eq. 2.
	Utilization float64
	// Duplication holds the applied d vector (plan-layer order).
	Duplication []int
	// EnergyMicroJoule is the dynamic compute energy estimate
	// (extension; 0 unless Config.EnergyPerMVMNanoJ is set).
	EnergyMicroJoule float64
	// ReloadCycles is the total crossbar-programming time included in
	// the makespan (weight virtualization only).
	ReloadCycles int64
	// Degraded marks a report produced by the coarse fast path
	// (ScheduleCoarse): the scalar metrics above are exact, but the
	// report holds no timeline, so LayerSpans, Gantt rendering, critical
	// paths, schedule export, and the energy estimate are unavailable.
	Degraded bool

	sched *schedule.Timeline
	comp  *Compiled
}

// schedOptions returns the scheduling options of a mode: dependency
// edges carry the NoC/GPEU cost only under cross-layer overlap (any
// window above 1); the layer-by-layer baseline stays idealized as in
// the paper.
func (c *Compiled) schedOptions(mode ScheduleMode) schedule.Options {
	var opt schedule.Options
	if mode.Window() > 1 {
		opt.EdgeCost = c.edgeCost
	}
	return opt
}

// normalizeMode folds modes with provably identical schedules onto one
// canonical representative: any window-1 mode is lbl, and any window at
// least the layer count is xinf (the gate never engages). This keeps
// the timeline cache from computing x1 next to lbl, or x<large> next
// to xinf.
func (c *Compiled) normalizeMode(mode ScheduleMode) ScheduleMode {
	k := mode.Window()
	switch {
	case k <= 1:
		return ModeLayerByLayer
	case k >= len(c.depGraph.Plan.Layers):
		return ModeCrossLayer
	default:
		return mode
	}
}

// timeline returns the validated execution timeline of the compilation
// under mode, computing it at most once per canonical mode (the
// Compiled is shared through the Engine's compile cache, so repeated
// requests — in particular the layer-by-layer baseline of every
// evaluation — reuse it).
func (c *Compiled) timeline(mode ScheduleMode) (*schedule.Timeline, error) {
	mode = c.normalizeMode(mode)
	key := mode.wireName()
	c.sched.mu.Lock()
	t, ok := c.sched.timelines[key]
	c.sched.mu.Unlock()
	if ok {
		return t, nil
	}
	var err error
	opt := c.schedOptions(mode)
	if c.virtual != nil {
		if mode.Window() != 1 {
			return nil, fmt.Errorf("clsacim: %q runs on %d < PEmin=%d PEs; cross-layer scheduling requires full weight residency",
				c.ModelName, c.arch.NumPEs, c.peMin)
		}
		t, err = schedule.LayerByLayerVirtual(c.depGraph, c.virtual.ReloadCycles)
	} else {
		t, err = schedule.Schedule(c.depGraph, mode.policy(), opt)
	}
	if err != nil {
		return nil, err
	}
	if err := t.Validate(c.depGraph, opt); err != nil {
		return nil, fmt.Errorf("clsacim: schedule validation: %w", err)
	}
	c.sched.mu.Lock()
	if prev, ok := c.sched.timelines[key]; ok {
		t = prev // a concurrent builder won the race; both are identical
	} else {
		c.sched.timelines[key] = t
	}
	c.sched.mu.Unlock()
	return t, nil
}

// hasTimeline reports whether the canonical mode's timeline is already
// cached — the Engine's partial-hit accounting asks this before
// scheduling on a cache-hit compilation.
func (c *Compiled) hasTimeline(mode ScheduleMode) bool {
	key := c.normalizeMode(mode).wireName()
	c.sched.mu.Lock()
	_, ok := c.sched.timelines[key]
	c.sched.mu.Unlock()
	return ok
}

// dispatch returns the compilation's shared Stage III dispatch plan,
// building it on first use. Every built-in policy shares the raster
// Replica rule, so one plan serves all scheduling modes.
func (c *Compiled) dispatch() *schedule.Dispatch {
	s := c.sched
	s.mu.Lock()
	d := s.dispatch
	if d == nil {
		d = schedule.NewDispatch(c.depGraph, schedule.CrossLayer)
		s.dispatch = d
	}
	s.mu.Unlock()
	return d
}

// Schedule runs Stage III/IV under the mode's policy (the layer-by-layer
// baseline, xK bounded windows, or full cross-layer) and computes the
// metrics. The schedule is validated before being returned. Virtualized
// compilations (F < PEmin) support only window-1 scheduling: cross-layer
// overlap would require swapped weights to be present twice.
func (c *Compiled) Schedule(mode ScheduleMode) (*Report, error) {
	s, err := c.timeline(mode)
	if err != nil {
		return nil, err
	}
	ut, err := metrics.Utilization(s, c.mapped)
	if err != nil {
		return nil, err
	}
	rep := &Report{
		Model:          c.ModelName,
		Mode:           mode,
		F:              c.arch.NumPEs,
		PEmin:          c.peMin,
		MakespanCycles: s.Makespan,
		LatencyNanos:   metrics.LatencyNanos(s.Makespan, c.arch.TMVMNanos),
		Utilization:    ut,
		Duplication:    append([]int(nil), c.dup.D...),
		ReloadCycles:   c.ReloadCyclesTotal(),
		sched:          s,
		comp:           c,
	}
	if c.cfg.EnergyPerMVMNanoJ > 0 {
		nj, err := metrics.EnergyNanoJoule(s, c.mapped,
			c.cfg.EnergyPerMVMNanoJ, c.cfg.EnergyPerWriteNanoJ, c.CrossbarWritesPerInference())
		if err != nil {
			return nil, err
		}
		rep.EnergyMicroJoule = nj / 1000
	}
	return rep, nil
}

// LayerSpan reports when one replica PE group of a base layer was first
// and last active, and its total busy time.
type LayerSpan struct {
	Name     string
	Replica  int // 0 <= Replica < DupCount
	DupCount int
	PEs      int // crossbars of this replica (c_i)
	Start    int64
	End      int64
	Active   int64
}

// LayerSpans returns per-replica activity of the schedule in plan order,
// for Gantt rendering and analysis. A degraded report has no schedule
// and returns nil.
func (r *Report) LayerSpans() []LayerSpan {
	if r.sched == nil {
		return nil
	}
	var out []LayerSpan
	for li, g := range r.comp.mapped.Groups {
		items := r.sched.ItemsOf(li)
		for rep := 0; rep < g.Dup; rep++ {
			span := LayerSpan{
				Name: g.Node.Name, Replica: rep, DupCount: g.Dup,
				PEs:    g.PEsPerReplica(),
				Active: r.sched.ReplicaActive[li][rep],
				Start:  -1,
			}
			for _, it := range items {
				if it.Replica != rep {
					continue
				}
				if span.Start < 0 || it.Start < span.Start {
					span.Start = it.Start
				}
				if it.End > span.End {
					span.End = it.End
				}
			}
			if span.Start < 0 {
				span.Start = 0
			}
			out = append(out, span)
		}
	}
	return out
}

// RenderGantt writes an ASCII Gantt chart of the schedule (the textual
// analogue of paper Fig. 6a/6b) to w. width is the number of time
// buckets (0 for the default).
func (r *Report) RenderGantt(w io.Writer, width int) error {
	if r.sched == nil {
		return errDegradedReport(r)
	}
	rows := gantt.FromSchedule(r.comp.depGraph, r.sched)
	title := fmt.Sprintf("%s, F=%d (%s, %s)", r.Model, r.F, mappingLabel(r.comp.cfg), r.Mode)
	return gantt.Render(w, title, rows, r.MakespanCycles, gantt.Options{Width: width, ShowPEs: true})
}

func mappingLabel(cfg Config) string {
	if cfg.WeightDuplication {
		return "wdup"
	}
	return "no duplication"
}

// CriticalStep is one element of the schedule's critical path.
type CriticalStep struct {
	Layer  string
	Set    int
	Start  int64
	End    int64
	Cause  string // "dep", "resource", "window", or "start"
	Cycles int64
}

// CriticalPath returns the chain of set executions that determines the
// makespan (earliest first): each step could not start earlier because
// of the previous one (a data dependency or the same replica's previous
// set). It answers "which layers limit inference latency" — the
// duplication candidates for the next extra PEs.
func (r *Report) CriticalPath() ([]CriticalStep, error) {
	if r.sched == nil {
		return nil, errDegradedReport(r)
	}
	path, err := r.sched.CriticalPath(r.comp.depGraph, r.comp.schedOptions(r.Mode))
	if err != nil {
		return nil, err
	}
	out := make([]CriticalStep, len(path))
	for i, st := range path {
		out[i] = CriticalStep{
			Layer:  r.comp.depGraph.Plan.Layers[st.Item.Layer].Group.Node.Name,
			Set:    st.Item.Set,
			Start:  st.Item.Start,
			End:    st.Item.End,
			Cause:  st.Cause,
			Cycles: st.Item.End - st.Item.Start,
		}
	}
	return out, nil
}

// CriticalLayers aggregates the critical path per layer, sorted along
// the path: how many makespan cycles each layer chain contributes.
func (r *Report) CriticalLayers() ([]CriticalStep, error) {
	if r.sched == nil {
		return nil, errDegradedReport(r)
	}
	path, err := r.sched.CriticalPath(r.comp.depGraph, r.comp.schedOptions(r.Mode))
	if err != nil {
		return nil, err
	}
	var out []CriticalStep
	for _, sum := range schedule.SummarizeCriticalPath(r.comp.depGraph, path) {
		out = append(out, CriticalStep{Layer: sum.Name, Set: sum.Steps, Cycles: sum.Cycles})
	}
	return out, nil
}

// WriteScheduleJSON serializes the full set-level schedule (layer names,
// replica assignment, per-set timing and OFM boxes) as indented JSON for
// external tooling.
func (r *Report) WriteScheduleJSON(w io.Writer) error {
	if r.sched == nil {
		return errDegradedReport(r)
	}
	return r.sched.WriteJSON(w, r.comp.depGraph)
}

// errDegradedReport is the uniform failure of timeline-derived queries
// on a coarse (degraded) report.
func errDegradedReport(r *Report) error {
	return fmt.Errorf("clsacim: %q %s report is degraded (no timeline)", r.Model, r.Mode)
}

// ScheduleCoarse is the degraded-mode counterpart of Schedule: it runs
// the zero-alloc coarse simulation (SimulateCoarse) and wraps the
// scalar metrics in a Report marked Degraded. Makespan, latency, and
// utilization are exact — the coarse path runs the same event loop —
// but the report holds no timeline, so LayerSpans, Gantt rendering,
// critical paths, schedule export, and the energy estimate are
// unavailable. Virtualized compilations (F < PEmin) are refused: the
// coarse loop does not model crossbar reprogramming.
func (c *Compiled) ScheduleCoarse(mode ScheduleMode) (*Report, error) {
	if c.virtual != nil {
		return nil, fmt.Errorf("clsacim: %q runs on %d < PEmin=%d PEs; coarse scheduling does not model crossbar reprogramming",
			c.ModelName, c.arch.NumPEs, c.peMin)
	}
	sum, err := c.SimulateCoarse(mode)
	if err != nil {
		return nil, err
	}
	return &Report{
		Model:          c.ModelName,
		Mode:           mode,
		F:              c.arch.NumPEs,
		PEmin:          c.peMin,
		MakespanCycles: sum.MakespanCycles,
		LatencyNanos:   sum.LatencyNanos,
		Utilization:    sum.Utilization,
		Duplication:    append([]int(nil), c.dup.D...),
		Degraded:       true,
		comp:           c,
	}, nil
}

// SimReport is the outcome of the event-driven simulation.
type SimReport struct {
	Model          string
	Mode           ScheduleMode
	MakespanCycles int64
	LatencyNanos   float64
	Utilization    float64
	// PeakLiveElems is the maximum number of intermediate OFM elements
	// simultaneously buffered on the architecture.
	PeakLiveElems int64
	// PEActive holds per-PE busy cycles (length F).
	PEActive []int64
}

// Simulate executes the workload on the discrete-event simulator
// (package sim) instead of the analytic scheduler. Both produce
// identical timelines — the simulator additionally reports per-PE
// activity and buffer pressure.
//
// Re-simulation on a cached compilation is incremental: the Stage I-III
// artifacts and the dispatch plan are reused across modes, the event
// loop's scratch state comes from a shared pool, and only the event
// loop itself re-runs.
func (c *Compiled) Simulate(mode ScheduleMode) (*SimReport, error) {
	nm := c.normalizeMode(mode)
	st := c.sched.simPool.Get().(*sim.State)
	res, err := st.Run(c.arch, c.depGraph, c.mapped, nm.policy(), sim.Options{
		Edge:     c.schedOptions(nm).EdgeCost,
		Dispatch: c.dispatch(),
	})
	c.sched.simPool.Put(st)
	if err != nil {
		return nil, err
	}
	return &SimReport{
		Model:          c.ModelName,
		Mode:           mode,
		MakespanCycles: res.Makespan,
		LatencyNanos:   metrics.LatencyNanos(res.Makespan, c.arch.TMVMNanos),
		Utilization:    res.Utilization,
		PeakLiveElems:  res.PeakLiveElems,
		PEActive:       res.PEActive,
	}, nil
}

// SimSummary is the outcome of a coarse simulation: the scalar metrics
// of a run that skipped per-set timeline materialization.
type SimSummary struct {
	Model          string
	Mode           ScheduleMode
	MakespanCycles int64
	LatencyNanos   float64
	Utilization    float64
	PeakLiveElems  int64
}

// SimulateCoarse is the fast-path simulation for callers that only need
// makespan, utilization, and buffer pressure: the event loop runs
// without materializing per-set timeline items, and on a warm
// compilation it allocates nothing — the cheap cost model for
// mapping-space search loops that call it thousands of times.
func (c *Compiled) SimulateCoarse(mode ScheduleMode) (SimSummary, error) {
	nm := c.normalizeMode(mode)
	st := c.sched.simPool.Get().(*sim.State)
	res, err := st.RunCoarse(c.arch, c.depGraph, c.mapped, nm.policy(), sim.Options{
		Edge:     c.schedOptions(nm).EdgeCost,
		Dispatch: c.dispatch(),
	})
	c.sched.simPool.Put(st)
	if err != nil {
		return SimSummary{}, err
	}
	return SimSummary{
		Model:          c.ModelName,
		Mode:           mode,
		MakespanCycles: res.Makespan,
		LatencyNanos:   metrics.LatencyNanos(res.Makespan, c.arch.TMVMNanos),
		Utilization:    res.Utilization,
		PeakLiveElems:  res.PeakLiveElems,
	}, nil
}

// Evaluation compares one configuration against the paper's reference:
// layer-by-layer scheduling without weight duplication on F = PEmin PEs.
type Evaluation struct {
	Baseline *Report // lbl, x = 0, no duplication
	Result   *Report
	// Speedup is Baseline.MakespanCycles / Result.MakespanCycles.
	Speedup float64
	// UtilizationGain is Result.Utilization / Baseline.Utilization.
	UtilizationGain float64
	// Eq3Speedup is the paper's Eq. 3 estimate from the utilizations.
	Eq3Speedup float64
	// Degraded marks an evaluation served by the coarse fast path after
	// its deadline expired (Request.AllowDegraded / WithDegradation):
	// the scalar metrics are exact, but both Reports carry no timeline.
	Degraded bool
}

// Evaluate compiles and schedules model under cfg and mode, and measures
// speedup and utilization gain against the layer-by-layer reference. It
// is a one-shot compatibility wrapper around a throwaway Engine; sweeps
// and services should hold an Engine so the baseline and repeated
// configurations compile once instead of per call.
func Evaluate(model *Model, cfg Config, mode ScheduleMode) (*Evaluation, error) {
	e, err := New(WithConfig(cfg))
	if err != nil {
		return nil, err
	}
	return e.EvaluateModel(context.Background(), model, Request{Mode: mode})
}
