// Package stream schedules a *stream* of inference requests over one
// simulated CIM fabric — the serving scenario of the ROADMAP north-star,
// where CLSA-CIM's single-inference timeline becomes the unit of work of
// a continuously loaded system. Weights stay resident, so back-to-back
// inferences of one model pipeline through the fabric: while inference
// j's late layers drain, inference j+1's early layers already execute on
// the replica PE groups that have gone idle. Steady-state throughput is
// therefore measured as completed inferences per unit time, not as
// 1/makespan of a single inference.
//
// The engine is a discrete-event simulator in the style of internal/sim,
// generalized across inferences ("jobs") and models:
//
//   - Every job instantiates the shared, immutable Stage III dispatch
//     plan (schedule.Dispatch) of its model and keeps only per-job
//     cursors, dependency counters, and window state. The per-set
//     counters of a retired job go back on a per-model free list for the
//     next admission, so per-set memory is bounded by the jobs in
//     flight, not by the stream length.
//   - Each replica PE group is a physical resource serving the jobs of
//     its model strictly FIFO in per-model issue order: a group starts
//     inference j+1's sets only after finishing its share of inference
//     j. This flow-shop discipline keeps per-model completions in issue
//     order (which the admission gate relies on) and is deadlock-free —
//     a blocked group only ever waits on a *busy* resource, and busy
//     resources always complete.
//   - Within a job, the policy's xK admission window applies unchanged;
//     across jobs of one model an admission gate bounds the number in
//     flight (Options.MaxInFlight).
//   - Models co-scheduled on a shared crossbar pool (overlapping PE
//     ranges) conflict wherever their replica groups share a physical
//     PE: a group may not start while a conflicting group is busy.
//
// The oracle for all of this is check.Stream, which revalidates every
// per-job timeline plus the cross-inference invariants from scratch;
// Options.Debug wires it in. Per-job timelines exist only for that
// oracle: a run without Debug reports lifecycles, the queue trace and
// PE activity and never materializes a timeline. Run honours its
// context: the event loop polls it every few thousand events and
// returns its error.
package stream

import (
	"context"
	"fmt"

	"clsacim/internal/check"
	"clsacim/internal/deps"
	"clsacim/internal/eventq"
	"clsacim/internal/mapping"
	"clsacim/internal/schedule"
)

// ModelSpec is one resident model class: its compiled workload, the
// scheduling policy of every inference of the class, the optional
// dependency-edge cost, and where its mapping's PE indices sit in the
// global fabric. Disjoint pools give each model a private PE range;
// overlapping ranges time-share the shared crossbars.
type ModelSpec struct {
	Name    string
	Graph   *deps.Graph
	Mapping *mapping.Mapping
	Policy  schedule.Policy
	Edge    schedule.EdgeCostFn
	PEBase  int
	// Dispatch optionally supplies a precomputed Stage III dispatch plan
	// for (Graph, Policy), as in sim.Options: it must come from
	// schedule.NewDispatch for the same graph and a policy with the same
	// Replica rule (every built-in policy shares the raster rule). Nil
	// builds a fresh plan for the run.
	Dispatch *schedule.Dispatch
}

// Workload is one stream scheduling problem.
type Workload struct {
	// FabricPEs is the global fabric size; every model's PE range must
	// fit inside it.
	FabricPEs int
	Models    []ModelSpec
	// Sequence names the model class of each job in issue order.
	Sequence []int
	// Arrivals holds the absolute arrival cycle of each job
	// (non-decreasing, same length as Sequence). Nil selects the
	// closed-loop arrival process instead: Concurrency jobs arrive at
	// cycle 0 and every completion immediately admits the next job.
	Arrivals []int64
	// Concurrency is the closed-loop population (ignored when Arrivals
	// is set).
	Concurrency int
}

// Options configures a stream run.
type Options struct {
	// MaxInFlight is the inter-inference admission gate: inference j of
	// a model (per-model issue order) is admitted only once inference
	// j-MaxInFlight of the same model has fully completed. 0 disables
	// the gate.
	MaxInFlight int
	// Debug builds every job's timeline, returns them in
	// Result.Timelines, and revalidates the full stream against
	// check.Stream before returning; a violation means an engine bug and
	// fails the run. Without Debug no timeline is built: the timelines
	// serve only the oracle.
	Debug bool
}

// JobStat is the lifecycle of one job in absolute stream cycles.
type JobStat struct {
	Model   int
	Arrival int64
	Start   int64 // first set execution
	End     int64 // last set completion
}

// QueueSample is one point of the queue-depth trace: Depth jobs were in
// the system (arrived, not yet completed) from Time onward.
type QueueSample struct {
	Time  int64
	Depth int
}

// Result is the outcome of one stream run.
type Result struct {
	// Jobs holds per-job lifecycle stats in issue order.
	Jobs []JobStat
	// Timelines holds each job's executed timeline in absolute stream
	// time (Makespan = the job's own last completion), issue order. It
	// is built only under Options.Debug and is nil otherwise.
	Timelines []*schedule.Timeline
	// MakespanCycles is the completion time of the whole stream.
	MakespanCycles int64
	// PEActive[p] is the busy cycles of global fabric PE p.
	PEActive []int64
	// Queue is the queue-depth trace, one sample per change.
	Queue []QueueSample
}

// payload is the calendar-queue payload: a job arrival (id < 0) or the
// completion of the job's flat set id. The queue itself (a bucketed
// calendar queue, internal/eventq) orders events by (time, seq) exactly
// as the previous inlined binary heap did — arrivals are enqueued with
// the lowest sequence numbers before any completion, so at equal times
// arrivals still precede completions and keep admission timing
// byte-identical.
type payload struct {
	job int32
	id  int32
}

// jobScratch is the per-set and per-layer state of a job in flight. A
// retired job hands it to its model's free list and the next admission
// of that model resets and reuses it.
type jobScratch struct {
	depsLeft  []int32 // unmet dependency count per flat set
	readyAt   []int64 // max dependency completion (+edge cost) per flat set
	gateOpen  []bool
	setsLeft  []int32
	layerDone []bool
}

// jobState is the mutable execution state of one admitted job. The
// scratch is recycled at completion; the timeline (Debug only) and the
// per-group cursors (needed by the FIFO pop rule) survive.
type jobState struct {
	jobScratch
	model int
	start int64 // earliest item start, -1 until first start

	tl  *schedule.Timeline // nil unless Options.Debug
	pos []int32            // completed-set cursor per model-local replica group

	window   int
	frontier int

	remaining int // sets left until the job completes
}

// fifoQueue is a per-group FIFO of admitted job indices.
type fifoQueue struct {
	q    []int32
	head int
}

type engine struct {
	w     Workload
	gate  int
	debug bool
	disp  []*schedule.Dispatch // per model
	csr   []*deps.CSR          // per model
	peOff []int                // grpBase: global group id prefix per model
	// indeg[mi] and layerSets[mi] are model mi's per-set dependency
	// counts and per-layer set counts: the reset values of a job's
	// scratch. free[mi] holds the scratch of retired jobs.
	indeg     [][]int32
	layerSets [][]int32
	free      [][]jobScratch
	// grpLayer[mi][lg] is the layer of model mi's local group lg.
	grpLayer [][]int32
	// conflicts[G] lists the groups of *other* models sharing a
	// physical PE with group G (shared crossbar pools).
	conflicts [][]int32
	busy      []bool
	fifo      []fifoQueue
	// grpAct[G] accumulates the busy cycles of global replica group G
	// across all jobs; the per-PE fan-out happens once at the end of the
	// run instead of once per completion event.
	grpAct []int64

	jobs     []*jobState
	arrived  []bool
	perModel [][]int32 // job indices per model, issue order
	// nextAdmit[mi] indexes perModel[mi]: the first job not yet admitted.
	nextAdmit []int
	// donePerModel[mi] counts completed jobs of model mi (completions
	// are provably in issue order under the FIFO discipline).
	donePerModel []int
	nextArrival  int // closed loop: next job index to spawn

	queue eventq.Queue[payload]
	seq   int64

	res   *Result
	depth int
}

// Run executes the workload and returns the stream result. The run is
// fully deterministic: identical inputs produce identical results. A
// cancelled or expired ctx stops the event loop within a few thousand
// events, and Run returns ctx.Err().
func Run(ctx context.Context, w Workload, opt Options) (*Result, error) {
	if err := validate(w, opt); err != nil {
		return nil, err
	}
	e := newEngine(w, opt)
	res, err := e.run(ctx)
	if err != nil {
		return nil, err
	}
	if opt.Debug {
		ms := make([]check.StreamModel, len(w.Models))
		for mi, s := range w.Models {
			ms[mi] = check.StreamModel{Graph: s.Graph, Mapping: s.Mapping,
				Policy: s.Policy, Edge: s.Edge, PEBase: s.PEBase}
		}
		infs := make([]check.StreamInference, len(res.Jobs))
		for j := range res.Jobs {
			infs[j] = check.StreamInference{Model: res.Jobs[j].Model,
				Arrival: res.Jobs[j].Arrival, Timeline: res.Timelines[j]}
		}
		if err := check.Stream(ms, infs, check.StreamOptions{MaxInFlight: opt.MaxInFlight}); err != nil {
			return nil, fmt.Errorf("stream: debug validation: %w", err)
		}
	}
	return res, nil
}

func validate(w Workload, opt Options) error {
	if w.FabricPEs <= 0 {
		return fmt.Errorf("stream: fabric has %d PEs", w.FabricPEs)
	}
	if len(w.Models) == 0 {
		return fmt.Errorf("stream: no models")
	}
	for mi, s := range w.Models {
		if s.Graph == nil || s.Graph.CSR == nil || s.Mapping == nil || s.Policy == nil {
			return fmt.Errorf("stream: model %d has a nil graph, CSR, mapping, or policy", mi)
		}
		if s.PEBase < 0 || s.PEBase+s.Mapping.F > w.FabricPEs {
			return fmt.Errorf("stream: model %d PE range [%d, %d) outside fabric of %d",
				mi, s.PEBase, s.PEBase+s.Mapping.F, w.FabricPEs)
		}
	}
	if len(w.Sequence) == 0 {
		return fmt.Errorf("stream: empty job sequence")
	}
	for j, mi := range w.Sequence {
		if mi < 0 || mi >= len(w.Models) {
			return fmt.Errorf("stream: job %d names model %d of %d", j, mi, len(w.Models))
		}
	}
	if w.Arrivals != nil {
		if len(w.Arrivals) != len(w.Sequence) {
			return fmt.Errorf("stream: %d arrivals for %d jobs", len(w.Arrivals), len(w.Sequence))
		}
		for j, a := range w.Arrivals {
			if a < 0 {
				return fmt.Errorf("stream: job %d has negative arrival %d", j, a)
			}
			if j > 0 && a < w.Arrivals[j-1] {
				return fmt.Errorf("stream: arrivals not sorted at job %d (%d < %d)", j, a, w.Arrivals[j-1])
			}
		}
	} else if w.Concurrency <= 0 {
		return fmt.Errorf("stream: closed loop needs Concurrency >= 1, have %d", w.Concurrency)
	}
	if opt.MaxInFlight < 0 {
		return fmt.Errorf("stream: negative admission gate %d", opt.MaxInFlight)
	}
	return nil
}

func newEngine(w Workload, opt Options) *engine {
	e := &engine{
		w:            w,
		gate:         opt.MaxInFlight,
		debug:        opt.Debug,
		disp:         make([]*schedule.Dispatch, len(w.Models)),
		csr:          make([]*deps.CSR, len(w.Models)),
		indeg:        make([][]int32, len(w.Models)),
		layerSets:    make([][]int32, len(w.Models)),
		free:         make([][]jobScratch, len(w.Models)),
		peOff:        make([]int, len(w.Models)+1),
		grpLayer:     make([][]int32, len(w.Models)),
		jobs:         make([]*jobState, len(w.Sequence)),
		arrived:      make([]bool, len(w.Sequence)),
		perModel:     make([][]int32, len(w.Models)),
		nextAdmit:    make([]int, len(w.Models)),
		donePerModel: make([]int, len(w.Models)),
		res: &Result{
			Jobs:     make([]JobStat, len(w.Sequence)),
			PEActive: make([]int64, w.FabricPEs),
		},
	}
	if opt.Debug {
		e.res.Timelines = make([]*schedule.Timeline, len(w.Sequence))
	}
	for mi, s := range w.Models {
		e.disp[mi] = s.Dispatch
		if e.disp[mi] == nil {
			e.disp[mi] = schedule.NewDispatch(s.Graph, s.Policy)
		}
		csr := s.Graph.CSR
		e.csr[mi] = csr
		e.indeg[mi] = make([]int32, csr.NumSets())
		for i := range e.indeg[mi] {
			e.indeg[mi][i] = csr.PredOff[i+1] - csr.PredOff[i]
		}
		e.layerSets[mi] = make([]int32, len(s.Graph.Plan.Layers))
		for li := range s.Graph.Plan.Layers {
			e.layerSets[mi][li] = int32(len(s.Graph.Plan.Layers[li].Sets))
		}
		e.peOff[mi+1] = e.peOff[mi] + e.disp[mi].NumReplicas()
		gl := make([]int32, e.disp[mi].NumReplicas())
		for li := 0; li < len(s.Graph.Plan.Layers); li++ {
			for g := e.disp[mi].RepOff[li]; g < e.disp[mi].RepOff[li+1]; g++ {
				gl[g] = int32(li)
			}
		}
		e.grpLayer[mi] = gl
	}
	total := e.peOff[len(w.Models)]
	e.busy = make([]bool, total)
	e.fifo = make([]fifoQueue, total)
	e.grpAct = make([]int64, total)
	e.conflicts = buildConflicts(w.Models, e.peOff, total)
	for j, mi := range w.Sequence {
		e.perModel[mi] = append(e.perModel[mi], int32(j))
	}
	span := int64(1)
	for _, csr := range e.csr {
		for _, c := range csr.Cycles {
			if c > span {
				span = c
			}
		}
	}
	e.queue.Init(span, total)
	return e
}

// buildConflicts maps every physical PE to the replica groups mapped
// onto it and records, per group, the distinct other groups it shares a
// PE with. Within one (non-virtualized) model the groups are disjoint,
// so conflicts only arise between models on a shared pool.
func buildConflicts(specs []ModelSpec, peOff []int, total int) [][]int32 {
	owners := map[int][]int32{}
	for mi, s := range specs {
		gid := int32(peOff[mi])
		for _, g := range s.Mapping.Groups {
			for r := 0; r < g.Dup; r++ {
				for _, pe := range g.ReplicaPEs(r) {
					owners[s.PEBase+pe] = append(owners[s.PEBase+pe], gid)
				}
				gid++
			}
		}
	}
	sets := make([]map[int32]bool, total)
	for _, os := range owners {
		if len(os) < 2 {
			continue
		}
		for _, a := range os {
			for _, b := range os {
				if a == b {
					continue
				}
				if sets[a] == nil {
					sets[a] = map[int32]bool{}
				}
				sets[a][b] = true
			}
		}
	}
	conflicts := make([][]int32, total)
	for g, set := range sets {
		for b := range set {
			conflicts[g] = append(conflicts[g], b)
		}
		// Deterministic retry order.
		for i := 1; i < len(conflicts[g]); i++ {
			for k := i; k > 0 && conflicts[g][k] < conflicts[g][k-1]; k-- {
				conflicts[g][k], conflicts[g][k-1] = conflicts[g][k-1], conflicts[g][k]
			}
		}
	}
	return conflicts
}

// ctxPollMask sets how often the event loop polls its context: once
// every ctxPollMask+1 events, so the common path pays nothing
// measurable for cancellation.
const ctxPollMask = 1<<12 - 1

func (e *engine) run(ctx context.Context) (*Result, error) {
	var now int64
	if e.w.Arrivals != nil {
		for j, t := range e.w.Arrivals {
			e.seq++
			e.queue.Push(t, e.seq, payload{job: int32(j), id: -1})
		}
	} else {
		n := e.w.Concurrency
		if n > len(e.w.Sequence) {
			n = len(e.w.Sequence)
		}
		for j := 0; j < n; j++ {
			e.arrive(int32(j), 0)
		}
		e.nextArrival = n
		e.admitAll(0)
	}
	for n := 0; ; n++ {
		if n&ctxPollMask == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		ev, ok := e.queue.Pop()
		if !ok {
			break
		}
		now = ev.Time
		if ev.P.id < 0 {
			e.arrive(ev.P.job, now)
		} else {
			e.complete(ev.P, now)
		}
		e.admitAll(now)
	}
	e.bookPEActivity()
	for j, jb := range e.jobs {
		if jb == nil {
			return nil, fmt.Errorf("stream: job %d (model %d) never admitted (deadlock)", j, e.w.Sequence[j])
		}
		if jb.remaining > 0 {
			return nil, fmt.Errorf("stream: job %d (model %d) incomplete, %d sets pending (deadlock)",
				j, jb.model, jb.remaining)
		}
	}
	e.res.MakespanCycles = now
	return e.res, nil
}

// arrive marks job j in the system at time t and samples the queue.
func (e *engine) arrive(j int32, t int64) {
	e.arrived[j] = true
	e.res.Jobs[j].Arrival = t
	e.depth++
	e.sampleQueue(t)
}

func (e *engine) sampleQueue(t int64) {
	q := e.res.Queue
	if n := len(q); n > 0 && q[n-1].Time == t {
		q[n-1].Depth = e.depth
	} else {
		e.res.Queue = append(q, QueueSample{Time: t, Depth: e.depth})
	}
}

// admitAll admits every job whose arrival has passed and whose model's
// admission gate allows another inference in flight. Admission order is
// per-model issue order.
func (e *engine) admitAll(now int64) {
	for mi := range e.perModel {
		for {
			k := e.nextAdmit[mi]
			if k >= len(e.perModel[mi]) {
				break
			}
			j := e.perModel[mi][k]
			if !e.arrived[j] {
				break
			}
			if e.gate > 0 && k >= e.gate+e.donePerModel[mi] {
				break
			}
			e.nextAdmit[mi]++
			e.admit(j, now)
		}
	}
}

// admit instantiates job j's execution state (recycling a retired job's
// scratch when the model has one), enqueues it on every replica group of
// its model, and starts whatever the window allows.
func (e *engine) admit(j int32, now int64) {
	mi := e.w.Sequence[j]
	s := e.w.Models[mi]
	jb := &jobState{
		model:     mi,
		start:     -1,
		pos:       make([]int32, e.disp[mi].NumReplicas()),
		window:    s.Policy.Window(),
		remaining: len(e.indeg[mi]),
	}
	if f := e.free[mi]; len(f) > 0 {
		jb.jobScratch = f[len(f)-1]
		e.free[mi] = f[:len(f)-1]
		clear(jb.readyAt)
		clear(jb.gateOpen)
		clear(jb.layerDone)
	} else {
		ns, nl := len(e.indeg[mi]), len(e.layerSets[mi])
		jb.jobScratch = jobScratch{
			depsLeft:  make([]int32, ns),
			readyAt:   make([]int64, ns),
			gateOpen:  make([]bool, nl),
			setsLeft:  make([]int32, nl),
			layerDone: make([]bool, nl),
		}
	}
	copy(jb.depsLeft, e.indeg[mi])
	copy(jb.setsLeft, e.layerSets[mi])
	if e.debug {
		jb.tl = schedule.NewTimeline(s.Graph, s.Policy)
		e.res.Timelines[j] = jb.tl
	}
	e.jobs[j] = jb
	base := e.peOff[mi]
	for g := 0; g < e.disp[mi].NumReplicas(); g++ {
		e.fifo[base+g].q = append(e.fifo[base+g].q, j)
	}
	e.openGates(j, now)
}

// openGates admits every layer of job j the window allows and tries to
// start their replica groups; empty layers complete immediately and may
// advance the frontier further (mirrors sim.openGates, per job).
func (e *engine) openGates(j int32, now int64) {
	jb := e.jobs[j]
	nl := len(jb.gateOpen)
	base := e.peOff[jb.model]
	d := e.disp[jb.model]
	for {
		limit := nl
		if jb.window < nl-jb.frontier {
			limit = jb.frontier + jb.window
		}
		progressed := false
		for li := 0; li < limit; li++ {
			if jb.gateOpen[li] {
				continue
			}
			jb.gateOpen[li] = true
			if jb.setsLeft[li] == 0 {
				jb.layerDone[li] = true
				progressed = true
				continue
			}
			for g := d.RepOff[li]; g < d.RepOff[li+1]; g++ {
				e.tryStart(base+int(g), now)
			}
		}
		for jb.frontier < nl && jb.layerDone[jb.frontier] {
			jb.frontier++
			progressed = true
		}
		if !progressed {
			return
		}
	}
}

// tryStart launches the head set of global replica group G if the
// group's FIFO head job has an admitted, dependency-ready set and no
// conflicting group is busy. Jobs that have exhausted their share of
// the group are popped on the way.
func (e *engine) tryStart(G int, now int64) {
	if e.busy[G] {
		return
	}
	f := &e.fifo[G]
	for {
		if f.head >= len(f.q) {
			return
		}
		j := f.q[f.head]
		jb := e.jobs[j]
		lg := int32(G - e.peOff[jb.model])
		d := e.disp[jb.model]
		next := d.OrderOff[lg] + jb.pos[lg]
		if next >= d.OrderOff[lg+1] {
			f.head++
			continue // job done with this group; serve the next one
		}
		li := int(e.grpLayer[jb.model][lg])
		if !jb.gateOpen[li] {
			return
		}
		si := int(d.Order[next])
		csr := e.csr[jb.model]
		id := csr.ID(li, si)
		if jb.depsLeft[id] > 0 {
			return
		}
		for _, c := range e.conflicts[G] {
			if e.busy[c] {
				return
			}
		}
		start := now
		if jb.readyAt[id] > start {
			start = jb.readyAt[id]
		}
		end := start + csr.Cycles[id]
		e.busy[G] = true
		if jb.tl != nil {
			rep := int(lg - d.RepOff[li])
			jb.tl.Items[id] = schedule.Item{Layer: li, Set: si, Replica: rep, Start: start, End: end}
		}
		if jb.start < 0 || start < jb.start {
			jb.start = start
		}
		e.seq++
		e.queue.Push(end, e.seq, payload{job: j, id: id})
		return
	}
}

// complete processes one set completion: it books the busy cycles,
// frees the group, releases in-job successors, advances the job's
// window, and — when the job's last set finishes — retires the job,
// releases its admission-gate slot, and (closed loop) spawns the next
// arrival.
//
// A successor's group is retried only when the retry can start
// something. After every event no idle group is startable: each change
// that can make one startable (a dependency count reaching 0, a gate
// opening, an admission, a group or its conflicting group being freed)
// is followed by tryStart on it. Within the successor loop only the
// successors' dependency counts, G (just freed) and the groups
// conflicting with G change state. A successor lies in a later layer, so
// its group is never G itself; unless G has conflicts, a retry whose set
// still waits on dependencies would be a no-op, and skipping it keeps
// every start, and every event sequence number, unchanged.
func (e *engine) complete(ev payload, now int64) {
	jb := e.jobs[ev.job]
	mi := jb.model
	edge := e.w.Models[mi].Edge
	csr := e.csr[mi]
	d := e.disp[mi]
	li := int(csr.SetLayer[ev.id])
	si := int(ev.id - csr.LayerOff[li])
	lg := d.RepOf[ev.id] // O(1) inverse of the policy's Replica rule
	G := e.peOff[mi] + int(lg)

	cycles := csr.Cycles[ev.id]
	e.grpAct[G] += cycles
	if jb.tl != nil {
		jb.tl.LayerActive[li] += cycles
		jb.tl.ReplicaActive[li][int(lg-d.RepOff[li])] += cycles
	}

	e.busy[G] = false
	jb.pos[lg]++

	shared := len(e.conflicts[G]) > 0
	for x := csr.SuccOff[ev.id]; x < csr.SuccOff[ev.id+1]; x++ {
		cid := csr.Succ[x]
		t := now
		if edge != nil {
			t += edge(deps.SetRef{Layer: li, Set: si, Vol: int(csr.SuccVol[x])}, int(csr.SetLayer[cid]))
		}
		if t > jb.readyAt[cid] {
			jb.readyAt[cid] = t
		}
		jb.depsLeft[cid]--
		if jb.depsLeft[cid] == 0 || shared {
			e.tryStart(e.peOff[mi]+int(d.RepOf[cid]), now)
		}
	}

	jb.setsLeft[li]--
	if jb.setsLeft[li] == 0 {
		jb.layerDone[li] = true
		if li == jb.frontier {
			e.openGates(ev.job, now)
		}
	}

	jb.remaining--
	if jb.remaining == 0 {
		e.retire(ev.job, now)
	}

	e.tryStart(G, now)
	for _, c := range e.conflicts[G] {
		e.tryStart(int(c), now)
	}
}

// bookPEActivity distributes the accumulated per-group busy cycles onto
// the global fabric PEs once at the end of the run — every PE of a
// replica is active exactly while the replica executes, so the fan-out
// commutes with per-event accumulation.
func (e *engine) bookPEActivity() {
	for mi, s := range e.w.Models {
		d := e.disp[mi]
		base := e.peOff[mi]
		for li := range s.Graph.Plan.Layers {
			for lg := d.RepOff[li]; lg < d.RepOff[li+1]; lg++ {
				a := e.grpAct[base+int(lg)]
				if a == 0 {
					continue
				}
				rep := int(lg - d.RepOff[li])
				for _, pe := range s.Mapping.Groups[li].ReplicaPEs(rep) {
					e.res.PEActive[s.PEBase+pe] += a
				}
			}
		}
	}
}

// retire finalizes a completed job: per-job makespan, lifecycle stats,
// queue sample, admission-gate release, and the closed-loop respawn.
// The scratch goes to the model's free list; the timeline and the
// per-group cursors (still consulted by the FIFO pop rule) are kept.
func (e *engine) retire(j int32, t int64) {
	jb := e.jobs[j]
	if jb.tl != nil {
		jb.tl.Makespan = t
	}
	e.res.Jobs[j].Model = jb.model
	e.res.Jobs[j].Start = jb.start
	e.res.Jobs[j].End = t
	e.depth--
	e.sampleQueue(t)
	e.donePerModel[jb.model]++
	e.free[jb.model] = append(e.free[jb.model], jb.jobScratch)
	jb.jobScratch = jobScratch{}
	if e.w.Arrivals == nil && e.nextArrival < len(e.w.Sequence) {
		e.arrive(int32(e.nextArrival), t)
		e.nextArrival++
	}
}
