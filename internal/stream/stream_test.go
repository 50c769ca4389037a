package stream_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"clsacim/internal/deps"
	"clsacim/internal/frontend"
	"clsacim/internal/im2col"
	"clsacim/internal/mapping"
	"clsacim/internal/models"
	"clsacim/internal/nn"
	"clsacim/internal/schedule"
	"clsacim/internal/sets"
	"clsacim/internal/stream"
)

type compiled struct {
	m  *mapping.Mapping
	dg *deps.Graph
}

// compile runs the shape-only compilation pipeline for one builtin
// model at coarse granularity.
func compile(t *testing.T, id models.ID, targetSets int) compiled {
	t.Helper()
	return compileGraph(t, models.MustBuild(id, models.Options{}), 0, targetSets)
}

// compileGraph compiles g onto PEmin+extra crossbars (dp duplication
// when extra > 0) at the given Stage I granularity.
func compileGraph(t *testing.T, g *nn.Graph, extra, targetSets int) compiled {
	t.Helper()
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
	return compiled{m: m, dg: dg}
}

func spec(c compiled, p schedule.Policy, base int) stream.ModelSpec {
	return stream.ModelSpec{Graph: c.dg, Mapping: c.m, Policy: p, PEBase: base}
}

func singleMakespan(t *testing.T, c compiled, p schedule.Policy) int64 {
	t.Helper()
	tl, err := schedule.Schedule(c.dg, p, schedule.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return tl.Makespan
}

func repeat(mi, n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = mi
	}
	return s
}

// A closed loop with concurrency 1 is back-to-back serial execution:
// each job's timeline must be the analytic single-inference schedule
// translated by the predecessor's completion, and the stream makespan
// exactly n single makespans. Debug mode runs check.Stream on the way.
func TestClosedLoopSerialMatchesSchedule(t *testing.T) {
	c := compile(t, models.TinyYOLOv4, 8)
	for _, p := range []schedule.Policy{schedule.LayerByLayer, schedule.Windowed(2), schedule.CrossLayer} {
		single, err := schedule.Schedule(c.dg, p, schedule.Options{})
		if err != nil {
			t.Fatal(err)
		}
		const n = 3
		res, err := stream.Run(context.Background(), stream.Workload{
			FabricPEs:   c.m.F,
			Models:      []stream.ModelSpec{spec(c, p, 0)},
			Sequence:    repeat(0, n),
			Concurrency: 1,
		}, stream.Options{Debug: true})
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		if want := int64(n) * single.Makespan; res.MakespanCycles != want {
			t.Fatalf("%s: serial stream makespan %d, want %d", p.Name(), res.MakespanCycles, want)
		}
		for j, tl := range res.Timelines {
			dt := int64(j) * single.Makespan
			for i, it := range tl.Items {
				ref := single.Items[i]
				if it.Start != ref.Start+dt || it.End != ref.End+dt || it.Replica != ref.Replica {
					t.Fatalf("%s: job %d item %d = %+v, want %+v shifted by %d", p.Name(), j, i, it, ref, dt)
				}
			}
			if res.Jobs[j].Arrival != dt || res.Jobs[j].End != dt+single.Makespan {
				t.Fatalf("%s: job %d lifecycle %+v", p.Name(), j, res.Jobs[j])
			}
		}
	}
}

// Pipelining is the point of the subsystem: with several inferences in
// flight under xinf, the stream must finish strictly faster than the
// same jobs run serially (throughput > 1/makespan).
func TestPipelinedBeatsSerial(t *testing.T) {
	c := compile(t, models.TinyYOLOv4, 8)
	single := singleMakespan(t, c, schedule.CrossLayer)
	const n = 6
	res, err := stream.Run(context.Background(), stream.Workload{
		FabricPEs:   c.m.F,
		Models:      []stream.ModelSpec{spec(c, schedule.CrossLayer, 0)},
		Sequence:    repeat(0, n),
		Concurrency: 4,
	}, stream.Options{Debug: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.MakespanCycles >= int64(n)*single {
		t.Fatalf("pipelined makespan %d not better than serial %d", res.MakespanCycles, int64(n)*single)
	}
}

// An admission gate of 1 forces one inference in flight per model, so
// the closed loop degenerates to serial execution no matter the
// concurrency.
func TestGateSerializes(t *testing.T) {
	c := compile(t, models.TinyYOLOv4, 8)
	single := singleMakespan(t, c, schedule.CrossLayer)
	const n = 4
	res, err := stream.Run(context.Background(), stream.Workload{
		FabricPEs:   c.m.F,
		Models:      []stream.ModelSpec{spec(c, schedule.CrossLayer, 0)},
		Sequence:    repeat(0, n),
		Concurrency: 4,
	}, stream.Options{MaxInFlight: 1, Debug: true})
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(n) * single; res.MakespanCycles != want {
		t.Fatalf("gated stream makespan %d, want serial %d", res.MakespanCycles, want)
	}
}

// Two models on disjoint pools run fully independently: the mixed
// stream's makespan equals the slower of the two private streams.
func TestDisjointPoolsAreIndependent(t *testing.T) {
	a := compile(t, models.TinyYOLOv4, 8)
	b := compile(t, models.TinyYOLOv3, 8)
	p := schedule.CrossLayer
	seq := []int{0, 1, 0, 1}
	arr := []int64{0, 0, 0, 0}
	res, err := stream.Run(context.Background(), stream.Workload{
		FabricPEs: a.m.F + b.m.F,
		Models:    []stream.ModelSpec{spec(a, p, 0), spec(b, p, a.m.F)},
		Sequence:  seq,
		Arrivals:  arr,
	}, stream.Options{Debug: true})
	if err != nil {
		t.Fatal(err)
	}
	want := 2 * singleMakespan(t, a, p)
	if w2 := 2 * singleMakespan(t, b, p); w2 > want {
		want = w2
	}
	if res.MakespanCycles > want {
		t.Fatalf("disjoint-pool makespan %d, want <= %d (independent streams)", res.MakespanCycles, want)
	}
}

// Two models time-sharing one crossbar pool must interleave without
// ever overlapping on a shared PE — the acceptance-criteria
// differential test: Debug mode revalidates every timeline through
// check.Stream, including cross-model exclusivity on the shared pool.
func TestSharedPoolTwoModelsValidated(t *testing.T) {
	a := compile(t, models.TinyYOLOv4, 8)
	b := compile(t, models.TinyYOLOv3, 8)
	p := schedule.CrossLayer
	fabric := a.m.F
	if b.m.F > fabric {
		fabric = b.m.F
	}
	res, err := stream.Run(context.Background(), stream.Workload{
		FabricPEs: fabric,
		Models:    []stream.ModelSpec{spec(a, p, 0), spec(b, p, 0)},
		Sequence:  []int{0, 1, 0, 1},
		Arrivals:  []int64{0, 0, 1000, 1000},
	}, stream.Options{Debug: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.MakespanCycles <= 0 {
		t.Fatal("empty shared-pool run")
	}
	floor := 2*singleMakespan(t, a, p) + 2*singleMakespan(t, b, p)
	if res.MakespanCycles > floor {
		t.Fatalf("shared-pool makespan %d worse than fully serial %d", res.MakespanCycles, floor)
	}
}

// Open-loop runs respect arrival times and record the queue trace.
func TestOpenLoopArrivals(t *testing.T) {
	c := compile(t, models.TinyYOLOv4, 8)
	arr, err := stream.PoissonArrivals(3, 5, 5000)
	if err != nil {
		t.Fatal(err)
	}
	res, err := stream.Run(context.Background(), stream.Workload{
		FabricPEs: c.m.F,
		Models:    []stream.ModelSpec{spec(c, schedule.CrossLayer, 0)},
		Sequence:  repeat(0, len(arr)),
		Arrivals:  arr,
	}, stream.Options{Debug: true})
	if err != nil {
		t.Fatal(err)
	}
	for j, js := range res.Jobs {
		if js.Arrival != arr[j] {
			t.Fatalf("job %d arrival %d, want %d", j, js.Arrival, arr[j])
		}
		if js.Start < js.Arrival || js.End < js.Start {
			t.Fatalf("job %d lifecycle out of order: %+v", j, js)
		}
	}
	if len(res.Queue) == 0 {
		t.Fatal("no queue trace")
	}
	depth := 0
	for i, qs := range res.Queue {
		if i > 0 && qs.Time < res.Queue[i-1].Time {
			t.Fatalf("queue trace out of order at %d", i)
		}
		if qs.Depth < 0 || qs.Depth > len(arr) {
			t.Fatalf("queue depth %d out of range", qs.Depth)
		}
		depth = qs.Depth
	}
	if depth != 0 {
		t.Fatalf("queue not drained: final depth %d", depth)
	}
}

func TestRunRejectsBadWorkloads(t *testing.T) {
	c := compile(t, models.TinyYOLOv4, 8)
	good := stream.Workload{
		FabricPEs:   c.m.F,
		Models:      []stream.ModelSpec{spec(c, schedule.CrossLayer, 0)},
		Sequence:    []int{0},
		Concurrency: 1,
	}
	cases := []struct {
		name string
		mut  func(w *stream.Workload, o *stream.Options)
		want string
	}{
		{"no models", func(w *stream.Workload, o *stream.Options) { w.Models = nil }, "no models"},
		{"small fabric", func(w *stream.Workload, o *stream.Options) { w.FabricPEs = 1 }, "outside fabric"},
		{"bad model index", func(w *stream.Workload, o *stream.Options) { w.Sequence = []int{2} }, "names model"},
		{"no jobs", func(w *stream.Workload, o *stream.Options) { w.Sequence = nil }, "empty job sequence"},
		{"no concurrency", func(w *stream.Workload, o *stream.Options) { w.Concurrency = 0 }, "Concurrency"},
		{"unsorted arrivals", func(w *stream.Workload, o *stream.Options) {
			w.Sequence = []int{0, 0}
			w.Arrivals = []int64{5, 1}
		}, "not sorted"},
		{"negative gate", func(w *stream.Workload, o *stream.Options) { o.MaxInFlight = -1 }, "negative admission gate"},
	}
	for _, tc := range cases {
		w, o := good, stream.Options{}
		tc.mut(&w, &o)
		_, err := stream.Run(context.Background(), w, o)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want %q", tc.name, err, tc.want)
		}
	}
}

// Timelines are built only for the oracle: a Debug-off run must report
// exactly what the Debug run reports (which check.Stream revalidates on
// the way) and build no timeline. Random CNNs cover single-model,
// disjoint and shared-pool two-model workloads under every admission
// gate, closed-loop and Poisson arrivals, with and without an edge cost.
func TestDebugOffMatchesDebugOn(t *testing.T) {
	edge := func(pred deps.SetRef, toLayer int) int64 {
		return int64(pred.Vol%7) + int64(toLayer-pred.Layer)
	}
	arr, err := stream.PoissonArrivals(5, 10, 2000)
	if err != nil {
		t.Fatal(err)
	}
	seeds := []int64{1, 2, 3, 4}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, seed := range seeds {
		// Canonicalize mutates the graph, so each granularity rebuilds it.
		targetSets := 4
		if seed%2 == 0 {
			targetSets = sets.FineGranularity
		}
		ga, err := models.RandomCNN(models.RandomOptions{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		gb, err := models.RandomCNN(models.RandomOptions{Seed: seed + 100})
		if err != nil {
			t.Fatal(err)
		}
		a, b := compileGraph(t, ga, int(seed%3), targetSets), compileGraph(t, gb, 2, targetSets)
		fabric := a.m.F
		if b.m.F > fabric {
			fabric = b.m.F
		}
		mix := []int{0, 1, 1, 0, 1, 0, 0, 1, 0, 1}
		pools := []struct {
			name   string
			fabric int
			specs  func(p schedule.Policy) []stream.ModelSpec
			seq    []int
		}{
			{"single", a.m.F, func(p schedule.Policy) []stream.ModelSpec {
				return []stream.ModelSpec{spec(a, p, 0)}
			}, repeat(0, len(mix))},
			{"disjoint", a.m.F + b.m.F, func(p schedule.Policy) []stream.ModelSpec {
				return []stream.ModelSpec{spec(a, p, 0), spec(b, p, a.m.F)}
			}, mix},
			{"shared", fabric, func(p schedule.Policy) []stream.ModelSpec {
				return []stream.ModelSpec{spec(a, p, 0), spec(b, p, 0)}
			}, mix},
		}
		for _, pool := range pools {
			for _, p := range []schedule.Policy{schedule.LayerByLayer, schedule.CrossLayer} {
				for _, ec := range []schedule.EdgeCostFn{nil, edge} {
					for _, arrivals := range [][]int64{nil, arr} {
						for _, gate := range []int{0, 1, 2} {
							specs := pool.specs(p)
							for i := range specs {
								specs[i].Edge = ec
							}
							w := stream.Workload{FabricPEs: pool.fabric, Models: specs,
								Sequence: pool.seq, Arrivals: arrivals, Concurrency: 3}
							name := fmt.Sprintf("seed=%d %s %s edge=%v poisson=%v gate=%d",
								seed, pool.name, p.Name(), ec != nil, arrivals != nil, gate)
							want, err := stream.Run(context.Background(), w, stream.Options{MaxInFlight: gate, Debug: true})
							if err != nil {
								t.Fatalf("%s: debug run: %v", name, err)
							}
							got, err := stream.Run(context.Background(), w, stream.Options{MaxInFlight: gate})
							if err != nil {
								t.Fatalf("%s: %v", name, err)
							}
							if got.Timelines != nil {
								t.Fatalf("%s: Debug-off run built %d timelines", name, len(got.Timelines))
							}
							if len(want.Timelines) != len(w.Sequence) {
								t.Fatalf("%s: Debug run returned %d timelines for %d jobs", name, len(want.Timelines), len(w.Sequence))
							}
							if got.MakespanCycles != want.MakespanCycles ||
								!reflect.DeepEqual(got.Jobs, want.Jobs) ||
								!reflect.DeepEqual(got.Queue, want.Queue) ||
								!reflect.DeepEqual(got.PEActive, want.PEActive) {
								t.Fatalf("%s: Debug-off result differs from the Debug run", name)
							}
						}
					}
				}
			}
		}
	}
}

// Without Debug the per-set state lives only as long as a job is in
// flight: a retired job's scratch is reused by the next admission and
// no per-set timeline is built, so serving 24 more inferences at
// concurrency 2 must cost well under 8 bytes per set per inference.
// (A timeline item alone is 40 bytes per set.)
func TestRunMemoryBoundedByJobsInFlight(t *testing.T) {
	c := compile(t, models.TinyYOLOv4, 64)
	run := func(n int) uint64 {
		w := stream.Workload{
			FabricPEs:   c.m.F,
			Models:      []stream.ModelSpec{spec(c, schedule.CrossLayer, 0)},
			Sequence:    repeat(0, n),
			Concurrency: 2,
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		if _, err := stream.Run(context.Background(), w, stream.Options{}); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	run(8) // warm up lazily built state outside the stream engine
	small, large := run(8), run(32)
	t.Logf("%d sets: 8 inferences %d B, 32 inferences %d B", c.dg.CSR.NumSets(), small, large)
	limit := uint64(24 * c.dg.CSR.NumSets() * 8)
	if large < small || large-small >= limit {
		t.Fatalf("32 inferences allocate %d B, 8 allocate %d B: %d B more, want < %d B (24 x %d sets x 8 B)",
			large, small, large-small, limit, c.dg.CSR.NumSets())
	}
}

// Run honours its context: a cancelled context stops the event loop and
// surfaces the context's error.
func TestRunHonoursContext(t *testing.T) {
	c := compile(t, models.TinyYOLOv4, 8)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := stream.Run(ctx, stream.Workload{
		FabricPEs:   c.m.F,
		Models:      []stream.ModelSpec{spec(c, schedule.CrossLayer, 0)},
		Sequence:    repeat(0, 4),
		Concurrency: 2,
	}, stream.Options{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned %v, want context.Canceled", err)
	}
}
