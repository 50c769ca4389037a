// Package sim is a discrete-event system-level simulator for tiled CIM
// architectures executing CLSA-CIM workloads — the "custom system-level
// simulator" of paper §V. It executes the set-level workload on explicit
// replica PE-group resources with an event queue, independently of the
// analytic scheduler in package schedule; tests assert that both produce
// identical timelines, which cross-validates the Stage IV recursion.
//
// The simulator consumes the same CSR dependency arrays as the
// scheduler and returns the same schedule.Timeline, so the two engines
// differ only in mechanism (event queue vs list scheduling), never in
// data model. Every schedule.Policy is supported: the policy's
// admission window is simulated as a gate that opens a layer only once
// every layer Window positions back has completed.
//
// Beyond timing, the simulator accounts per-PE active cycles (the inputs
// to paper Eq. 2) and tracks the live intermediate-data footprint (a
// proxy for the tile buffer / DRAM traffic requirements of §II-A).
//
// The event loop is built for re-simulation: a State holds every
// scratch array plus a bucketed calendar queue (internal/eventq) and is
// reset, not reallocated, across runs — re-evaluating one compilation
// under another scheduling mode touches no per-set allocations beyond
// the returned Timeline. The immutable Stage III dispatch plan
// (schedule.Dispatch) can be supplied through Options and shared across
// modes and engines (internal/stream uses the same plan), and RunCoarse
// skips per-set Timeline materialization entirely for callers that only
// need makespan/utilization/buffer scalars (degraded serving). The
// scored solvers price candidates with the scheduler's makespan-only
// pass (schedule.Scratch.Makespan) instead; RunCoarse is its oracle in
// the differential fuzz harness. The previous binary-heap loop survives as the reference
// implementation in reference_test.go, with a differential test pinning
// byte-identical timelines.
package sim

import (
	"fmt"

	"clsacim/internal/check"
	"clsacim/internal/cim"
	"clsacim/internal/deps"
	"clsacim/internal/eventq"
	"clsacim/internal/mapping"
	"clsacim/internal/schedule"
)

// Result is the outcome of one simulation: the executed Timeline (the
// same representation the analytic scheduler returns) plus the
// simulator's extra accounting.
type Result struct {
	*schedule.Timeline
	// PEActive[p] is the number of cycles PE p spent computing MVMs.
	PEActive []int64
	// PeakLiveElems is the maximum number of OFM elements simultaneously
	// alive (produced but not yet consumed by every dependent set) — the
	// aggregate buffer pressure on the architecture.
	PeakLiveElems int64
	// Utilization is paper Eq. 2 computed from PEActive.
	Utilization float64
}

// Coarse is the outcome of a coarse run: the scalar metrics without the
// per-set timeline. It is returned by value, so a warm State yields it
// without allocating.
type Coarse struct {
	Makespan      int64
	Utilization   float64
	PeakLiveElems int64
}

// Options configures a simulation run.
type Options struct {
	// Edge is the optional dependency-edge cost (NoC hops, GPEU
	// processing); nil means the paper's idealized zero-cost movement.
	Edge schedule.EdgeCostFn
	// Dispatch optionally supplies a precomputed Stage III dispatch plan
	// for (dg, p). It must have been built by schedule.NewDispatch for
	// the same dependency graph and a policy with the same Replica rule
	// (all built-in policies share the raster rule, so one plan serves
	// every mode). Nil builds a fresh plan for the run.
	Dispatch *schedule.Dispatch
	// Debug runs the engine-independent invariant checker
	// (check.Timeline) on the simulated timeline before it is returned:
	// dependency order, crossbar exclusivity, window admission,
	// conservation, and makespan consistency. A violation means a
	// simulator bug and is returned as the run's error.
	Debug bool
}

// Run simulates the workload dg on architecture arch with mapping m
// under scheduling policy p. edge is the optional dependency-edge cost
// (NoC hops, GPEU processing); nil means idealized.
func Run(arch cim.Config, dg *deps.Graph, m *mapping.Mapping, p schedule.Policy, edge schedule.EdgeCostFn) (*Result, error) {
	return RunOpt(arch, dg, m, p, Options{Edge: edge})
}

// RunOpt is Run with full Options (edge cost plus debug validation). It
// allocates a fresh State per call; callers simulating one compilation
// repeatedly should hold a State and call State.Run.
func RunOpt(arch cim.Config, dg *deps.Graph, m *mapping.Mapping, p schedule.Policy, opt Options) (*Result, error) {
	return NewState().Run(arch, dg, m, p, opt)
}

// State holds the simulator's reusable scratch: per-set counters,
// per-replica cursors, window state, the calendar event queue, and the
// per-workload caches (set volumes, maximum set duration). A State is
// reset — not reallocated — across runs, so re-simulating one
// compilation under different modes allocates only the returned
// Timeline (and nothing at all on the coarse path). A State is not safe
// for concurrent use; engines pool them.
type State struct {
	// Per-workload cache, keyed by dependency-graph identity: the OFM
	// volume of every flat set (buffer accounting) and the longest set
	// duration (the calendar queue's increment bound).
	volsFor   *deps.Graph
	vols      []int64
	maxCycles int64

	depsLeft []int32 // unmet dependency count per flat set
	readyAt  []int64 // max dependency completion (+edge cost) per flat set
	consLeft []int32 // outstanding consumer count per flat set (buffer accounting)
	pos      []int32 // completed-set cursor per global replica group
	busy     []bool  // per global replica group
	repAct   []int64 // busy cycles per global replica group

	// Admission window: layer li may start only once every layer up to
	// li-K is complete. gateOpen marks admitted layers; frontier is the
	// first incomplete layer (all layers below it are done).
	gateOpen  []bool
	setsLeft  []int32
	layerDone []bool

	queue eventq.Queue[int32]

	// Per-run fields.
	arch      cim.Config
	dg        *deps.Graph
	csr       *deps.CSR
	m         *mapping.Mapping
	p         schedule.Policy
	edge      schedule.EdgeCostFn
	disp      *schedule.Dispatch
	items     []schedule.Item // nil on the coarse path
	window    int
	frontier  int
	seq       int64
	done      int // completed sets
	liveElems int64
	peakLive  int64
}

// NewState returns an empty State ready for its first run.
func NewState() *State { return &State{} }

// Run simulates the workload and returns the full Result (timeline,
// per-PE activity, buffer pressure). The State's scratch is reused; the
// returned Result owns fresh memory and survives later runs.
func (st *State) Run(arch cim.Config, dg *deps.Graph, m *mapping.Mapping, p schedule.Policy, opt Options) (*Result, error) {
	if err := st.prepare(arch, dg, m, p, opt); err != nil {
		return nil, err
	}
	res := &Result{
		Timeline: schedule.NewTimeline(dg, p),
		PEActive: make([]int64, arch.NumPEs),
	}
	st.items = res.Items
	makespan, err := st.loop()
	if err != nil {
		return nil, err
	}
	res.Makespan = makespan
	// Distribute the per-group activity: every PE of a replica is active
	// exactly while the replica executes, so per-PE accounting is a
	// fan-out of repAct at finish time instead of a loop per event.
	var sum int64
	for li, g := range m.Groups {
		c := int64(g.PEsPerReplica())
		var layer int64
		row := res.ReplicaActive[li]
		base := st.disp.RepOff[li]
		for r := range row {
			a := st.repAct[base+int32(r)]
			row[r] = a
			layer += a
			for _, pe := range g.ReplicaPEs(r) {
				res.PEActive[pe] = a
			}
		}
		res.LayerActive[li] = layer
		sum += c * layer
	}
	if makespan > 0 && arch.NumPEs > 0 {
		res.Utilization = float64(sum) / (float64(arch.NumPEs) * float64(makespan))
	}
	res.PeakLiveElems = st.peakLive
	if opt.Debug {
		if err := check.Timeline(m, dg, p, res.Timeline, check.Options{EdgeCost: opt.Edge}); err != nil {
			return nil, fmt.Errorf("sim: debug validation: %w", err)
		}
	}
	return res, nil
}

// RunCoarse simulates the workload without materializing per-set
// timeline items: only the makespan, the Eq. 2 utilization, and the
// buffer peak are computed. On a warm State this path performs no
// allocations — the fast path for degraded serving and sweeps that do
// not render timelines. Options.Debug is rejected: the invariant
// checker needs the full timeline.
func (st *State) RunCoarse(arch cim.Config, dg *deps.Graph, m *mapping.Mapping, p schedule.Policy, opt Options) (Coarse, error) {
	if opt.Debug {
		return Coarse{}, fmt.Errorf("sim: coarse run cannot validate (no timeline); use Run")
	}
	if err := st.prepare(arch, dg, m, p, opt); err != nil {
		return Coarse{}, err
	}
	st.items = nil
	makespan, err := st.loop()
	if err != nil {
		return Coarse{}, err
	}
	var sum int64
	for li, g := range m.Groups {
		c := int64(g.PEsPerReplica())
		for gg := st.disp.RepOff[li]; gg < st.disp.RepOff[li+1]; gg++ {
			sum += c * st.repAct[gg]
		}
	}
	out := Coarse{Makespan: makespan, PeakLiveElems: st.peakLive}
	if makespan > 0 && arch.NumPEs > 0 {
		out.Utilization = float64(sum) / (float64(arch.NumPEs) * float64(makespan))
	}
	return out, nil
}

// prepare validates the inputs and resets the scratch for one run.
func (st *State) prepare(arch cim.Config, dg *deps.Graph, m *mapping.Mapping, p schedule.Policy, opt Options) error {
	if err := arch.Validate(); err != nil {
		return err
	}
	if p == nil {
		return fmt.Errorf("sim: nil policy")
	}
	if dg == nil || dg.CSR == nil {
		return fmt.Errorf("sim: dependency graph has no CSR (build it with deps.Build)")
	}
	if len(dg.Plan.Layers) != len(m.Groups) {
		return fmt.Errorf("sim: plan has %d layers, mapping %d groups", len(dg.Plan.Layers), len(m.Groups))
	}
	csr := dg.CSR
	nl := len(dg.Plan.Layers)
	ns := csr.NumSets()
	st.arch, st.dg, st.csr, st.m, st.p, st.edge = arch, dg, csr, m, p, opt.Edge
	st.disp = opt.Dispatch
	if st.disp == nil {
		st.disp = schedule.NewDispatch(dg, p)
	}
	if st.volsFor != dg {
		st.vols = grow(st.vols, ns)
		for li, ls := range dg.Plan.Layers {
			off := csr.LayerOff[li]
			for si := range ls.Sets {
				st.vols[off+int32(si)] = int64(ls.Sets[si].Box.Volume())
			}
		}
		st.maxCycles = 1
		for _, c := range csr.Cycles {
			if c > st.maxCycles {
				st.maxCycles = c
			}
		}
		st.volsFor = dg
	}
	totalReps := st.disp.NumReplicas()
	st.depsLeft = grow(st.depsLeft, ns)
	st.readyAt = grow(st.readyAt, ns)
	st.consLeft = grow(st.consLeft, ns)
	st.pos = grow(st.pos, totalReps)
	st.busy = grow(st.busy, totalReps)
	st.repAct = grow(st.repAct, totalReps)
	st.gateOpen = grow(st.gateOpen, nl)
	st.setsLeft = grow(st.setsLeft, nl)
	st.layerDone = grow(st.layerDone, nl)
	clear(st.readyAt)
	clear(st.pos)
	clear(st.busy)
	clear(st.repAct)
	clear(st.gateOpen)
	clear(st.layerDone)
	for li := range dg.Plan.Layers {
		st.setsLeft[li] = int32(len(dg.Plan.Layers[li].Sets))
	}
	for i := 0; i < ns; i++ {
		st.depsLeft[i] = csr.PredOff[i+1] - csr.PredOff[i]
		st.consLeft[i] = csr.SuccOff[i+1] - csr.SuccOff[i]
	}
	st.queue.Init(st.maxCycles, totalReps)
	st.window = p.Window()
	st.frontier = 0
	st.seq = 0
	st.done = 0
	st.liveElems = 0
	st.peakLive = 0
	return nil
}

// grow returns s resized to n, reusing its backing array when large
// enough (contents are unspecified; callers overwrite or clear).
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// loop runs the event loop to completion and returns the makespan.
func (st *State) loop() (int64, error) {
	// Open the initial window and handle (degenerate) empty layers.
	st.openGates(0)
	var now int64
	for {
		e, ok := st.queue.Pop()
		if !ok {
			break
		}
		now = e.Time
		st.complete(e.P, now)
	}
	if st.done != st.csr.NumSets() {
		return 0, st.deadlockErr()
	}
	return now, nil
}

// deadlockErr names the first set that never executed.
func (st *State) deadlockErr() error {
	for g := 0; g < st.disp.NumReplicas(); g++ {
		next := st.disp.OrderOff[g] + st.pos[g]
		if next < st.disp.OrderOff[g+1] {
			si := st.disp.Order[next]
			li := 0
			for int(st.disp.RepOff[li+1]) <= g {
				li++
			}
			return fmt.Errorf("sim: set L%d/S%d never executed (deadlock)", li, si)
		}
	}
	return fmt.Errorf("sim: %d of %d sets never executed (deadlock)", st.csr.NumSets()-st.done, st.csr.NumSets())
}

// openGates admits every layer the current frontier allows (layers
// below frontier+window) and tries to start their replicas at time now.
// Layers with no sets complete immediately, which may advance the
// frontier further.
func (st *State) openGates(now int64) {
	nl := len(st.gateOpen)
	for {
		limit := nl
		if st.window < nl-st.frontier {
			limit = st.frontier + st.window
		}
		progressed := false
		for li := 0; li < limit; li++ {
			if st.gateOpen[li] {
				continue
			}
			st.gateOpen[li] = true
			if st.setsLeft[li] == 0 {
				st.layerDone[li] = true
				progressed = true
				continue
			}
			for g := st.disp.RepOff[li]; g < st.disp.RepOff[li+1]; g++ {
				st.tryStart(li, g, now)
			}
		}
		for st.frontier < nl && st.layerDone[st.frontier] {
			st.frontier++
			progressed = true
		}
		if !progressed {
			return
		}
	}
}

// tryStart launches the head set of global replica group g (of layer
// li) if the layer is admitted, the group is idle, and the set's
// dependencies are met. now is the current sim time.
func (st *State) tryStart(li int, g int32, now int64) {
	if !st.gateOpen[li] || st.busy[g] {
		return
	}
	next := st.disp.OrderOff[g] + st.pos[g]
	if next >= st.disp.OrderOff[g+1] {
		return
	}
	si := st.disp.Order[next]
	id := st.csr.LayerOff[li] + si
	if st.depsLeft[id] > 0 {
		return
	}
	start := st.readyAt[id]
	if now > start {
		start = now
	}
	end := start + st.csr.Cycles[id]
	st.busy[g] = true
	if st.items != nil {
		st.items[id] = schedule.Item{Layer: li, Set: int(si), Replica: int(g - st.disp.RepOff[li]), Start: start, End: end}
	}
	st.seq++
	st.queue.Push(end, st.seq, id)
}

// complete processes a set-completion event: it frees the replica,
// releases consumers, advances the admission window, and starts newly
// runnable work.
func (st *State) complete(id int32, now int64) {
	csr := st.csr
	li := int(csr.SetLayer[id])
	g := st.disp.RepOf[id]
	st.repAct[g] += csr.Cycles[id]
	st.busy[g] = false
	st.pos[g]++

	// Buffer accounting: the produced elements stay live until every
	// consumer set has executed.
	vol := st.vols[id]
	st.liveElems += vol
	if st.liveElems > st.peakLive {
		st.peakLive = st.liveElems
	}
	if st.consLeft[id] == 0 {
		// No consumers (network output or unread layer): retire
		// immediately to DRAM.
		st.liveElems -= vol
	}

	for x := csr.SuccOff[id]; x < csr.SuccOff[id+1]; x++ {
		cid := csr.Succ[x]
		cl := int(csr.SetLayer[cid])
		t := now
		if st.edge != nil {
			t += st.edge(deps.SetRef{Layer: li, Set: int(id - csr.LayerOff[li]), Vol: int(csr.SuccVol[x])}, cl)
		}
		if t > st.readyAt[cid] {
			st.readyAt[cid] = t
		}
		st.depsLeft[cid]--
		st.tryStart(cl, st.disp.RepOf[cid], now)
	}
	st.retireInputsOf(id)

	st.setsLeft[li]--
	if st.setsLeft[li] == 0 {
		st.layerDone[li] = true
		if li == st.frontier {
			st.openGates(now)
		}
	}
	st.done++
	// The replica may have further runnable sets.
	st.tryStart(li, g, now)
}

// retireInputsOf releases the buffer claims this set held on its
// producers.
func (st *State) retireInputsOf(id int32) {
	for e := st.csr.PredOff[id]; e < st.csr.PredOff[id+1]; e++ {
		pid := st.csr.Pred[e]
		st.consLeft[pid]--
		if st.consLeft[pid] == 0 {
			st.liveElems -= st.vols[pid]
		}
	}
}
