package clsacim

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// sweepRequests builds the canonical (x, wdup) sweep used by the cache
// tests and benchmarks: n points alternating mapping, all xinf.
func sweepRequests(model string, n int) []Request {
	reqs := make([]Request, 0, n)
	for i := 0; i < n; i++ {
		reqs = append(reqs, Request{
			Model:             model,
			Mode:              ModeCrossLayer,
			ExtraPEs:          i/2 + 1,
			WeightDuplication: i%2 == 1,
		})
	}
	return reqs
}

func TestEngineCompileCacheAccounting(t *testing.T) {
	eng := MustNew()
	ctx := context.Background()
	// 10 points: x in 1..5, each with and without duplication.
	reqs := sweepRequests("tinybranchnet", 10)
	for _, req := range reqs {
		if _, err := eng.Evaluate(ctx, req); err != nil {
			t.Fatalf("%+v: %v", req, err)
		}
	}
	s := eng.Stats()
	// Distinct compile keys: the shared baseline (x=0, no duplication)
	// plus 5 x-values with duplication. The 5 no-duplication x points
	// fold onto the baseline key (extra PEs sit idle, so the compiled
	// artifacts are identical; see normalizeCfg) and are served as
	// F-adjusted views.
	const wantKeys = 6
	if s.Compiles != wantKeys {
		t.Errorf("Compiles = %d, want %d (one per distinct key)", s.Compiles, wantKeys)
	}
	if s.CacheMisses != wantKeys {
		t.Errorf("CacheMisses = %d, want %d", s.CacheMisses, wantKeys)
	}
	if want := int64(2*len(reqs)) - wantKeys; s.CacheHits != want {
		t.Errorf("CacheHits = %d, want %d", s.CacheHits, want)
	}
	if s.Evaluations != int64(len(reqs)) {
		t.Errorf("Evaluations = %d, want %d", s.Evaluations, len(reqs))
	}
	if s.CachedEntries != wantKeys {
		t.Errorf("CachedEntries = %d, want %d", s.CachedEntries, wantKeys)
	}

	// Re-running the whole sweep must not compile anything new.
	for _, req := range reqs {
		if _, err := eng.Evaluate(ctx, req); err != nil {
			t.Fatal(err)
		}
	}
	if s2 := eng.Stats(); s2.Compiles != wantKeys {
		t.Errorf("repeat sweep compiled %d more times", s2.Compiles-wantKeys)
	}
}

func TestStatsPartialHits(t *testing.T) {
	eng := MustNew()
	ctx := context.Background()
	schedule := func(mode ScheduleMode) {
		t.Helper()
		if _, err := eng.Schedule(ctx, Request{Model: "tinybranchnet", Mode: mode}); err != nil {
			t.Fatal(err)
		}
	}
	schedule(ModeCrossLayer) // compiles fresh: neither hit nor partial
	if s := eng.Stats(); s.PartialHits != 0 || s.CacheHits != 0 {
		t.Fatalf("after miss: partial=%d hits=%d, want 0/0", s.PartialHits, s.CacheHits)
	}
	schedule(ModeCrossLayer) // full hit: compile and timeline cached
	if s := eng.Stats(); s.PartialHits != 0 || s.CacheHits != 1 {
		t.Fatalf("after full hit: partial=%d hits=%d, want 0/1", s.PartialHits, s.CacheHits)
	}
	schedule(ModeLayerByLayer) // partial: cached compile, uncached mode
	if s := eng.Stats(); s.PartialHits != 1 || s.CacheHits != 2 {
		t.Fatalf("after new mode: partial=%d hits=%d, want 1/2", s.PartialHits, s.CacheHits)
	}
	schedule(ModeLayerByLayer) // that mode is now cached too
	if s := eng.Stats(); s.PartialHits != 1 || s.CacheHits != 3 {
		t.Fatalf("after repeat: partial=%d hits=%d, want 1/3", s.PartialHits, s.CacheHits)
	}
	// An ExtraPEs view shares the base's timeline cache: both halves of
	// this evaluation are full hits and nothing recompiles.
	if _, err := eng.Evaluate(ctx, Request{Model: "tinybranchnet", Mode: ModeCrossLayer, ExtraPEs: 3}); err != nil {
		t.Fatal(err)
	}
	if s := eng.Stats(); s.PartialHits != 1 || s.CacheHits != 5 || s.Compiles != 1 {
		t.Fatalf("after view evaluation: partial=%d hits=%d compiles=%d, want 1/5/1",
			s.PartialHits, s.CacheHits, s.Compiles)
	}
}

func TestExtraPEsViewMatchesDirectCompile(t *testing.T) {
	// A no-duplication ExtraPEs request is served as an F-adjusted view
	// of the x = 0 compilation; every reported number must match a
	// direct one-shot compilation at F = PEmin + x.
	const x = 4
	eng := MustNew()
	rep, err := eng.Schedule(context.Background(),
		Request{Model: "tinybranchnet", Mode: ModeCrossLayer, ExtraPEs: x})
	if err != nil {
		t.Fatal(err)
	}
	m, err := LoadModel("tinybranchnet", ModelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	comp, err := Compile(m, Config{ExtraPEs: x})
	if err != nil {
		t.Fatal(err)
	}
	direct, err := comp.Schedule(ModeCrossLayer)
	if err != nil {
		t.Fatal(err)
	}
	if rep.F != direct.F || rep.F != rep.PEmin+x {
		t.Errorf("view F = %d, direct F = %d, want PEmin+%d = %d", rep.F, direct.F, x, rep.PEmin+x)
	}
	if rep.MakespanCycles != direct.MakespanCycles {
		t.Errorf("view makespan = %d, direct = %d", rep.MakespanCycles, direct.MakespanCycles)
	}
	if rep.Utilization != direct.Utilization {
		t.Errorf("view utilization = %v, direct = %v", rep.Utilization, direct.Utilization)
	}
	if rep.LatencyNanos != direct.LatencyNanos {
		t.Errorf("view latency = %v, direct = %v", rep.LatencyNanos, direct.LatencyNanos)
	}
	// The simulator sees the view's F too.
	vc, err := eng.Compile(context.Background(),
		Request{Model: "tinybranchnet", Mode: ModeCrossLayer, ExtraPEs: x})
	if err != nil {
		t.Fatal(err)
	}
	if vc.TotalPEs() != rep.PEmin+x {
		t.Errorf("view TotalPEs = %d, want %d", vc.TotalPEs(), rep.PEmin+x)
	}
	sr, err := vc.Simulate(ModeCrossLayer)
	if err != nil {
		t.Fatal(err)
	}
	if len(sr.PEActive) != rep.PEmin+x {
		t.Errorf("simulated PEActive length = %d, want F = %d", len(sr.PEActive), rep.PEmin+x)
	}
	if sr.Utilization != direct.Utilization {
		t.Errorf("simulated view utilization = %v, direct = %v", sr.Utilization, direct.Utilization)
	}
}

func TestEvaluateBatchStatsMatchSerial(t *testing.T) {
	// The sweep-structured batch must preserve the cache accounting of
	// the serial path exactly: one miss per distinct key, every further
	// reference a hit.
	reqs := sweepRequests("tinybranchnet", 8)
	serial := MustNew()
	for _, req := range reqs {
		if _, err := serial.Evaluate(context.Background(), req); err != nil {
			t.Fatal(err)
		}
	}
	batch := MustNew()
	results, err := batch.EvaluateBatch(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		if res.Err != nil {
			t.Fatalf("batch result %d: %v", i, res.Err)
		}
	}
	ss, bs := serial.Stats(), batch.Stats()
	if bs.Compiles != ss.Compiles || bs.CacheMisses != ss.CacheMisses ||
		bs.CacheHits != ss.CacheHits || bs.Evaluations != ss.Evaluations {
		t.Errorf("batch stats %+v, serial stats %+v", bs, ss)
	}
	if bs.CachedEntries != ss.CachedEntries {
		t.Errorf("batch cached %d entries, serial %d", bs.CachedEntries, ss.CachedEntries)
	}
}

func TestSimulateCoarseMatchesFull(t *testing.T) {
	eng := MustNew()
	comp, err := eng.Compile(context.Background(),
		Request{Model: "tinybranchnet", Mode: ModeCrossLayer, ExtraPEs: 2, WeightDuplication: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []ScheduleMode{ModeLayerByLayer, ModeWindow(2), ModeCrossLayer} {
		full, err := comp.Simulate(mode)
		if err != nil {
			t.Fatal(err)
		}
		coarse, err := comp.SimulateCoarse(mode)
		if err != nil {
			t.Fatal(err)
		}
		if coarse.MakespanCycles != full.MakespanCycles ||
			coarse.Utilization != full.Utilization ||
			coarse.PeakLiveElems != full.PeakLiveElems ||
			coarse.LatencyNanos != full.LatencyNanos {
			t.Errorf("%s: coarse %+v disagrees with full simulation (makespan %d, util %v, peak %d)",
				mode, coarse, full.MakespanCycles, full.Utilization, full.PeakLiveElems)
		}
	}
}

func TestSolverSweepSharesBaseline(t *testing.T) {
	// The baseline never runs a solver, so requests differing only in
	// Solver must share one baseline compilation.
	eng := MustNew()
	solvers := []string{"dp", "greedy", "minmax"}
	for _, s := range solvers {
		_, err := eng.Evaluate(context.Background(), Request{
			Model: "tinybranchnet", Mode: ModeCrossLayer,
			ExtraPEs: 3, WeightDuplication: true, Solver: s,
		})
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
	}
	want := int64(len(solvers) + 1) // one per solver + the shared baseline
	if s := eng.Stats(); s.Compiles != want {
		t.Errorf("Compiles = %d, want %d (baseline shared across solver names)", s.Compiles, want)
	}
}

func TestCompilePanicDoesNotPoisonCache(t *testing.T) {
	err := RegisterSolver("test-panics", func(layers []SolverLayer, totalPEs, minPEs int) ([]int, error) {
		panic("solver boom")
	})
	if err != nil {
		t.Fatal(err)
	}
	eng := MustNew()
	req := Request{Model: "tinyconvnet", ExtraPEs: 1, WeightDuplication: true, Solver: "test-panics"}
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer func() {
			if recover() == nil {
				t.Error("solver panic did not propagate")
			}
		}()
		_, _ = eng.Compile(context.Background(), req)
	}()
	<-done
	// Later requests for the poisoned key must fail fast, not hang on
	// the never-compiled entry.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_, err = eng.Compile(ctx, req)
	if err == nil {
		t.Fatal("compile after panic returned nil error")
	}
	if errors.Is(err, context.DeadlineExceeded) {
		t.Fatal("compile after panic hung until the deadline")
	}
	if !strings.Contains(err.Error(), "panicked") {
		t.Errorf("err = %v, want the synthesized panic error", err)
	}
}

func TestEngineMatchesLegacyEvaluate(t *testing.T) {
	eng := MustNew()
	for _, wdup := range []bool{false, true} {
		req := Request{Model: "tinybranchnet", Mode: ModeCrossLayer, ExtraPEs: 3, WeightDuplication: wdup}
		got, err := eng.Evaluate(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		m := load(t, "tinybranchnet")
		want, err := Evaluate(m, Config{ExtraPEs: 3, WeightDuplication: wdup}, ModeCrossLayer)
		if err != nil {
			t.Fatal(err)
		}
		if got.Result.MakespanCycles != want.Result.MakespanCycles ||
			got.Baseline.MakespanCycles != want.Baseline.MakespanCycles ||
			got.Speedup != want.Speedup {
			t.Errorf("wdup=%v: engine (%d, %d, %.4f) != legacy (%d, %d, %.4f)", wdup,
				got.Result.MakespanCycles, got.Baseline.MakespanCycles, got.Speedup,
				want.Result.MakespanCycles, want.Baseline.MakespanCycles, want.Speedup)
		}
	}
}

func TestEvaluateBatchConcurrent(t *testing.T) {
	eng := MustNew(WithWorkers(8))
	var reqs []Request
	for _, model := range []string{"tinyconvnet", "tinybranchnet"} {
		reqs = append(reqs, sweepRequests(model, 10)...)
	}
	results, err := eng.EvaluateBatch(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(reqs) {
		t.Fatalf("got %d results for %d requests", len(results), len(reqs))
	}
	for i, res := range results {
		if res.Err != nil {
			t.Fatalf("request %d: %v", i, res.Err)
		}
		if res.Request != reqs[i] {
			t.Errorf("result %d not positionally aligned", i)
		}
		if res.Evaluation == nil || res.Evaluation.Result.MakespanCycles <= 0 {
			t.Errorf("request %d: empty evaluation", i)
		}
	}
	// The batch outcome must be identical to the serial outcome.
	serial := MustNew()
	for i, req := range reqs {
		want, err := serial.Evaluate(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if got := results[i].Evaluation; got.Result.MakespanCycles != want.Result.MakespanCycles {
			t.Errorf("request %d: batch makespan %d != serial %d",
				i, got.Result.MakespanCycles, want.Result.MakespanCycles)
		}
	}
}

func TestEngineConcurrentSameKey(t *testing.T) {
	// Hammer one key from many goroutines: exactly one compile may
	// happen, and everyone must see the same *Compiled.
	eng := MustNew()
	req := Request{Model: "tinyconvnet", Mode: ModeCrossLayer, ExtraPEs: 2, WeightDuplication: true}
	const n = 16
	comps := make([]*Compiled, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			c, err := eng.Compile(context.Background(), req)
			if err != nil {
				t.Error(err)
				return
			}
			comps[i] = c
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if comps[i] != comps[0] {
			t.Fatal("concurrent compiles returned different instances")
		}
	}
	if s := eng.Stats(); s.Compiles != 1 {
		t.Errorf("Compiles = %d, want 1", s.Compiles)
	}
}

func TestEvaluateBatchCancelled(t *testing.T) {
	eng := MustNew()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	results, err := eng.EvaluateBatch(ctx, sweepRequests("tinyconvnet", 4))
	if err == nil {
		t.Fatal("cancelled batch returned nil error")
	}
	for i, res := range results {
		if !errors.Is(res.Err, context.Canceled) {
			t.Errorf("result %d: err = %v, want context.Canceled", i, res.Err)
		}
	}
}

func TestConfigJSONRoundTrip(t *testing.T) {
	if b, err := json.Marshal(Config{}); err != nil || string(b) != "{}" {
		t.Errorf("zero Config marshals to %s (%v), want {}", b, err)
	}
	in := Config{
		PERows: 128, PECols: 64,
		TMVMNanos:              700,
		ExtraPEs:               16,
		WeightDuplication:      true,
		Solver:                 "minmax",
		TargetSets:             26,
		WeightBits:             4,
		NoCCyclesPerHop:        1.5,
		GPEUCyclesPerKElem:     2,
		PEsPerTile:             8,
		WeightVirtualization:   true,
		WriteCyclesPerCrossbar: 1024,
		WriteParallelism:       2,
		EnergyPerMVMNanoJ:      0.25,
		EnergyPerWriteNanoJ:    100,
	}
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out Config
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Errorf("round trip changed the config:\n in  %+v\n out %+v", in, out)
	}
}

func TestRequestJSONRoundTrip(t *testing.T) {
	cfg := Config{PERows: 128, PECols: 128, NoCCyclesPerHop: 2}
	in := Request{
		Model:             "tinyyolov4",
		Mode:              ModeCrossLayer,
		ExtraPEs:          32,
		WeightDuplication: true,
		Solver:            "greedy",
		Config:            &cfg,
	}
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"mode":"xinf"`) {
		t.Errorf("mode not encoded as wire name: %s", b)
	}
	var out Request
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Errorf("round trip changed the request:\n in  %+v\n out %+v", in, out)
	}

	// A wire-format request (hand-written JSON) must evaluate.
	wire := `{"model": "tinyconvnet", "mode": "xinf", "extra_pes": 2, "weight_duplication": true}`
	var req Request
	if err := json.Unmarshal([]byte(wire), &req); err != nil {
		t.Fatal(err)
	}
	if err := req.Validate(); err != nil {
		t.Fatal(err)
	}
	ev, err := MustNew().Evaluate(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Result.Mode != ModeCrossLayer || ev.Speedup <= 0 {
		t.Errorf("wire request evaluated wrong: mode %v speedup %f", ev.Result.Mode, ev.Speedup)
	}
}

func TestScheduleModeJSON(t *testing.T) {
	var m ScheduleMode
	for _, tc := range []struct {
		in   string
		want ScheduleMode
	}{
		{`"xinf"`, ModeCrossLayer}, {`"lbl"`, ModeLayerByLayer},
		{`"layer-by-layer"`, ModeLayerByLayer}, {`"XINF"`, ModeCrossLayer},
		{`"x1"`, ModeWindow(1)}, {`"x4"`, ModeWindow(4)}, {`"X16"`, ModeWindow(16)},
		{`0`, ModeLayerByLayer}, {`1`, ModeCrossLayer},
	} {
		if err := json.Unmarshal([]byte(tc.in), &m); err != nil {
			t.Errorf("%s: %v", tc.in, err)
		} else if m != tc.want {
			t.Errorf("%s = %v, want %v", tc.in, m, tc.want)
		}
	}
	if err := json.Unmarshal([]byte(`"warp"`), &m); !errors.Is(err, ErrUnknownMode) {
		t.Errorf("unknown mode error = %v, want ErrUnknownMode", err)
	}
	if err := json.Unmarshal([]byte(`"x0"`), &m); !errors.Is(err, ErrUnknownMode) {
		t.Errorf("x0 error = %v, want ErrUnknownMode", err)
	}
	for _, mode := range []ScheduleMode{ModeLayerByLayer, ModeCrossLayer, ModeWindow(2), ModeWindow(9)} {
		b, err := json.Marshal(mode)
		if err != nil {
			t.Fatal(err)
		}
		var back ScheduleMode
		if err := json.Unmarshal(b, &back); err != nil || back != mode {
			t.Errorf("mode %v round trip = %v, %v", mode, back, err)
		}
	}
	if err := json.Unmarshal([]byte(`7`), &m); !errors.Is(err, ErrUnknownMode) {
		t.Errorf("unknown numeric mode error = %v, want ErrUnknownMode", err)
	}
}

func TestParseMode(t *testing.T) {
	for in, want := range map[string]ScheduleMode{
		"xinf": ModeCrossLayer, "lbl": ModeLayerByLayer,
		"cross-layer": ModeCrossLayer, "Layer-By-Layer": ModeLayerByLayer,
		"x1": ModeWindow(1), "x2": ModeWindow(2), "X8": ModeWindow(8),
	} {
		got, err := ParseMode(in)
		if err != nil || got != want {
			t.Errorf("ParseMode(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseMode("bogus"); !errors.Is(err, ErrUnknownMode) {
		t.Errorf("ParseMode(bogus) = %v, want ErrUnknownMode", err)
	}
}

func TestRegisterSolver(t *testing.T) {
	// A trivial custom solver: never duplicate anything. It must
	// produce exactly the "none" mapping through the full pipeline.
	allOnes := func(layers []SolverLayer, totalPEs, minPEs int) ([]int, error) {
		d := make([]int, len(layers))
		for i := range d {
			d[i] = 1
		}
		return d, nil
	}
	if err := RegisterSolver("test-all-ones", allOnes); err != nil {
		t.Fatal(err)
	}
	if err := RegisterSolver("test-all-ones", allOnes); !errors.Is(err, ErrDuplicateSolver) {
		t.Errorf("duplicate registration = %v, want ErrDuplicateSolver", err)
	}
	if err := RegisterSolver("dp", allOnes); !errors.Is(err, ErrDuplicateSolver) {
		t.Errorf("builtin shadowing = %v, want ErrDuplicateSolver", err)
	}
	found := false
	for _, name := range Solvers() {
		if name == "test-all-ones" {
			found = true
		}
	}
	if !found {
		t.Errorf("Solvers() = %v does not list the custom solver", Solvers())
	}

	eng := MustNew()
	custom, err := eng.Evaluate(context.Background(), Request{
		Model: "tinybranchnet", Mode: ModeCrossLayer,
		ExtraPEs: 4, WeightDuplication: true, Solver: "test-all-ones",
	})
	if err != nil {
		t.Fatal(err)
	}
	none, err := eng.Evaluate(context.Background(), Request{
		Model: "tinybranchnet", Mode: ModeCrossLayer,
		ExtraPEs: 4, WeightDuplication: true, Solver: "none",
	})
	if err != nil {
		t.Fatal(err)
	}
	if custom.Result.MakespanCycles != none.Result.MakespanCycles {
		t.Errorf("all-ones solver makespan %d != none solver %d",
			custom.Result.MakespanCycles, none.Result.MakespanCycles)
	}
}

func TestRegisterSolverRejectsOverspending(t *testing.T) {
	greedyAll := func(layers []SolverLayer, totalPEs, minPEs int) ([]int, error) {
		d := make([]int, len(layers))
		for i, l := range layers {
			d[i] = l.MaxDup // ignores the budget
		}
		return d, nil
	}
	if err := RegisterSolver("test-overspend", greedyAll); err != nil {
		t.Fatal(err)
	}
	_, err := MustNew().Evaluate(context.Background(), Request{
		Model: "tinybranchnet", Mode: ModeCrossLayer,
		ExtraPEs: 1, WeightDuplication: true, Solver: "test-overspend",
	})
	if err == nil || !strings.Contains(err.Error(), "test-overspend") {
		t.Errorf("overspending solver not rejected: %v", err)
	}
}

func TestUnknownSolverTyped(t *testing.T) {
	_, err := MustNew().Evaluate(context.Background(), Request{
		Model: "tinyconvnet", WeightDuplication: true, Solver: "bogus",
	})
	if !errors.Is(err, ErrUnknownSolver) {
		t.Fatalf("err = %v, want ErrUnknownSolver", err)
	}
	if !strings.Contains(err.Error(), "dp") {
		t.Errorf("error does not list available solvers: %v", err)
	}
	if _, err := New(WithSolver("bogus")); !errors.Is(err, ErrUnknownSolver) {
		t.Errorf("WithSolver(bogus) = %v, want ErrUnknownSolver", err)
	}
}

func TestUnknownModelTyped(t *testing.T) {
	_, err := LoadModel("nope", ModelOptions{})
	if !errors.Is(err, ErrUnknownModel) {
		t.Fatalf("LoadModel err = %v, want ErrUnknownModel", err)
	}
	if !strings.Contains(err.Error(), "tinyyolov4") {
		t.Errorf("error does not list available models: %v", err)
	}
	_, err = MustNew().Evaluate(context.Background(), Request{Model: "nope"})
	if !errors.Is(err, ErrUnknownModel) {
		t.Errorf("engine err = %v, want ErrUnknownModel", err)
	}
	if err := (Request{Model: "nope"}).Validate(); !errors.Is(err, ErrUnknownModel) {
		t.Errorf("Validate err = %v, want ErrUnknownModel", err)
	}
}

func TestRegisterModel(t *testing.T) {
	b, in := NewBuilder("test-registered-net", 16, 16, 3)
	x := b.Conv2D(in, 8, 3, 1, true)
	b.Output(b.ReLU(x))
	m, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if err := RegisterModel("test-registered-net", m); err != nil {
		t.Fatal(err)
	}
	if err := RegisterModel("test-registered-net", m); !errors.Is(err, ErrDuplicateModel) {
		t.Errorf("duplicate registration = %v, want ErrDuplicateModel", err)
	}
	if err := RegisterModel("tinyyolov4", m); !errors.Is(err, ErrDuplicateModel) {
		t.Errorf("builtin shadowing = %v, want ErrDuplicateModel", err)
	}
	found := false
	for _, name := range AllModels() {
		if name == "test-registered-net" {
			found = true
		}
	}
	if !found {
		t.Error("AllModels does not list the registered model")
	}
	ev, err := MustNew().Evaluate(context.Background(), Request{
		Model: "test-registered-net", Mode: ModeCrossLayer,
	})
	if err != nil {
		t.Fatal(err)
	}
	if ev.Result.Model != "test-registered-net" {
		t.Errorf("evaluated model %q", ev.Result.Model)
	}
}

func TestRequestValidate(t *testing.T) {
	if err := (Request{}).Validate(); err == nil {
		t.Error("empty request validated")
	}
	if err := (Request{Model: "tinyconvnet", ExtraPEs: -1}).Validate(); err == nil {
		t.Error("negative ExtraPEs validated")
	}
	if err := (Request{Model: "tinyconvnet", Solver: "bogus"}).Validate(); !errors.Is(err, ErrUnknownSolver) {
		t.Errorf("bad solver Validate = %v", err)
	}
	if err := (Request{Model: "tinyconvnet", Mode: ModeCrossLayer}).Validate(); err != nil {
		t.Errorf("good request rejected: %v", err)
	}
}

func TestEngineOptionErrors(t *testing.T) {
	for name, opt := range map[string]Option{
		"crossbar": WithCrossbar(0, 256),
		"tmvm":     WithTMVMNanos(-1),
		"noc":      WithNoC(-0.5),
		"gpeu":     WithGPEU(-1),
		"energy":   WithEnergy(-1, 0),
		"sets":     WithTargetSets(-1),
		"tile":     WithPEsPerTile(0),
		"workers":  WithWorkers(0),
		"virt":     WithVirtualization(-1, 0),
	} {
		if _, err := New(opt); err == nil {
			t.Errorf("option %s accepted an invalid value", name)
		}
	}
}

// sweepModel and sweepPoints define the benchmark workload: ≥10
// (x, wdup) points on the paper's case-study model.
const sweepModel = "tinyyolov4"
const sweepPoints = 10

// BenchmarkEngineSweep runs the sweep through one Engine per iteration:
// the compile cache builds each distinct (model, arch, mapping) key once
// and shares the layer-by-layer baseline across all points.
func BenchmarkEngineSweep(b *testing.B) {
	reqs := sweepRequests(sweepModel, sweepPoints)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eng := MustNew()
		for _, req := range reqs {
			if _, err := eng.Evaluate(context.Background(), req); err != nil {
				b.Fatal(err)
			}
		}
		// Distinct keys: the shared baseline (which also serves every
		// no-duplication x point as an F-view) plus the 5 wdup points.
		if s := eng.Stats(); s.Compiles != sweepPoints/2+1 {
			b.Fatalf("engine compiled %d times, want %d (one per distinct key)",
				s.Compiles, sweepPoints/2+1)
		}
	}
}

// BenchmarkOneShotSweep is the same sweep through the legacy one-shot
// Evaluate: every point recompiles both the baseline and itself.
func BenchmarkOneShotSweep(b *testing.B) {
	reqs := sweepRequests(sweepModel, sweepPoints)
	m, err := LoadModel(sweepModel, ModelOptions{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, req := range reqs {
			cfg := Config{ExtraPEs: req.ExtraPEs, WeightDuplication: req.WeightDuplication}
			if _, err := Evaluate(m, cfg, req.Mode); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkEvaluateBatch measures the concurrent batch path end to end.
func BenchmarkEvaluateBatch(b *testing.B) {
	reqs := sweepRequests(sweepModel, sweepPoints)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eng := MustNew()
		results, err := eng.EvaluateBatch(context.Background(), reqs)
		if err != nil {
			b.Fatal(err)
		}
		for _, res := range results {
			if res.Err != nil {
				b.Fatal(res.Err)
			}
		}
	}
}

// Ensure the BenchmarkOneShotSweep workload really is the equivalent
// sweep (same requests, same results) so the benchmark comparison is
// apples to apples.
func TestSweepWorkloadsAgree(t *testing.T) {
	reqs := sweepRequests("tinybranchnet", 4)
	eng := MustNew()
	m := load(t, "tinybranchnet")
	for _, req := range reqs {
		got, err := eng.Evaluate(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Evaluate(m, Config{ExtraPEs: req.ExtraPEs, WeightDuplication: req.WeightDuplication}, req.Mode)
		if err != nil {
			t.Fatal(err)
		}
		if got.Result.MakespanCycles != want.Result.MakespanCycles {
			t.Errorf("%+v: %d != %d", req, got.Result.MakespanCycles, want.Result.MakespanCycles)
		}
	}
}

func TestWithCacheLimitEvictsLRU(t *testing.T) {
	eng := MustNew(WithCacheLimit(2))
	ctx := context.Background()
	eval := func(x int) {
		t.Helper()
		_, err := eng.Evaluate(ctx, Request{
			Model: "tinyconvnet", Mode: ModeCrossLayer,
			ExtraPEs: x, WeightDuplication: true,
		})
		if err != nil {
			t.Fatalf("x=%d: %v", x, err)
		}
	}
	// Each Evaluate touches the shared baseline (keeping it hot) and one
	// variant key; with limit 2 the previous variant is evicted each
	// time while the baseline survives as most-recently-used.
	eval(1) // cache: {x1, baseline}
	eval(2) // x1 evicted
	eval(3) // x2 evicted
	eval(1) // x1 recompiles, x3 evicted

	s := eng.Stats()
	if s.CacheLimit != 2 {
		t.Errorf("CacheLimit = %d, want 2", s.CacheLimit)
	}
	if s.CachedEntries > 2 {
		t.Errorf("CachedEntries = %d exceeds limit 2", s.CachedEntries)
	}
	// Keys compiled: baseline, x1, x2, x3, x1 again after its eviction.
	if s.Compiles != 5 {
		t.Errorf("Compiles = %d, want 5 (x1 recompiled after eviction)", s.Compiles)
	}
	if s.Evictions != 3 {
		t.Errorf("Evictions = %d, want 3", s.Evictions)
	}
	// 4 evaluations x 2 lookups each; 5 missed, the rest (including
	// every baseline reuse) hit.
	if s.CacheMisses != 5 || s.CacheHits != 3 {
		t.Errorf("misses/hits = %d/%d, want 5/3 (baseline must never be evicted mid-sweep)",
			s.CacheMisses, s.CacheHits)
	}
}

func TestCacheLimitKeepsInflightEntries(t *testing.T) {
	// An in-flight compilation must never be evicted: waiters hold its
	// single-flight slot, and dropping it would recompile the same key
	// concurrently. Block a compile inside a custom solver and churn
	// the bounded cache underneath it.
	started := make(chan struct{})
	release := make(chan struct{})
	var startedOnce sync.Once
	var solverRuns atomic.Int64
	// The solver registry is process-global and rejects duplicates, so
	// the name must be fresh under -count=N.
	solverName := fmt.Sprintf("test-blocks-%d", time.Now().UnixNano())
	err := RegisterSolver(solverName, func(layers []SolverLayer, totalPEs, minPEs int) ([]int, error) {
		solverRuns.Add(1)
		startedOnce.Do(func() { close(started) })
		<-release
		d := make([]int, len(layers))
		for i := range d {
			d[i] = 1
		}
		return d, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	eng := MustNew(WithCacheLimit(2))
	ctx := context.Background()
	blocked := Request{
		Model: "tinyconvnet", Mode: ModeCrossLayer,
		ExtraPEs: 1, WeightDuplication: true, Solver: solverName,
	}
	errA := make(chan error, 1)
	go func() {
		_, err := eng.Evaluate(ctx, blocked)
		errA <- err
	}()
	<-started
	// A second identical request must join the in-flight slot as a
	// waiter (two cache hits: the baseline and the blocked key). Wait
	// until its lookups registered before churning the cache.
	errB := make(chan error, 1)
	go func() {
		_, err := eng.Evaluate(ctx, blocked)
		errB <- err
	}()
	deadline := time.Now().Add(10 * time.Second)
	for eng.Stats().CacheHits < 2 {
		if time.Now().After(deadline) {
			t.Fatal("second request never reached the cache")
		}
		time.Sleep(time.Millisecond)
	}
	// While the blocked key compiles and B waits on it, push several
	// other keys through the bounded cache; each insert runs the
	// eviction scan. The in-flight entry must survive all of it.
	for x := 2; x <= 4; x++ {
		if _, err := eng.Evaluate(ctx, Request{
			Model: "tinyconvnet", Mode: ModeCrossLayer,
			ExtraPEs: x, WeightDuplication: true,
		}); err != nil {
			t.Fatalf("x=%d during blocked compile: %v", x, err)
		}
	}
	close(release)
	if err := <-errA; err != nil {
		t.Fatalf("blocked evaluation failed: %v", err)
	}
	if err := <-errB; err != nil {
		t.Fatalf("waiting evaluation failed: %v", err)
	}
	// Had the churn evicted the in-flight entry, the second request
	// would have started a second compilation of the same key.
	if runs := solverRuns.Load(); runs != 1 {
		t.Errorf("solver ran %d times, want 1 (in-flight entry evicted from bounded cache)", runs)
	}
	if s := eng.Stats(); s.CachedEntries > 2 {
		t.Errorf("CachedEntries = %d, want <= limit 2", s.CachedEntries)
	}
}

func TestRequestTimeoutMillis(t *testing.T) {
	eng := MustNew()
	// Pin the compile duration well past the deadline with a sleeping
	// solver, so the deadline check after compilation fires
	// deterministically (racing a real cold compile against a short
	// timer is flaky under load).
	solverName := fmt.Sprintf("test-sleeps-%d", time.Now().UnixNano())
	if err := RegisterSolver(solverName, func(layers []SolverLayer, totalPEs, minPEs int) ([]int, error) {
		time.Sleep(250 * time.Millisecond)
		d := make([]int, len(layers))
		for i := range d {
			d[i] = 1
		}
		return d, nil
	}); err != nil {
		t.Fatal(err)
	}
	_, err := eng.Evaluate(context.Background(), Request{
		Model: "tinyconvnet", ExtraPEs: 1, WeightDuplication: true,
		Solver: solverName, TimeoutMillis: 1,
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	// The request's own deadline must not loosen an earlier caller
	// deadline.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = eng.Evaluate(ctx, Request{Model: "tinyconvnet", TimeoutMillis: 60_000})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Engine.Compile honors the same contract: a cold compile that ran
	// past the deadline reports the expiry to the bounded caller (the
	// compilation itself still lands in the cache).
	_, err = eng.Compile(context.Background(), Request{
		Model: "tinyconvnet", ExtraPEs: 2, WeightDuplication: true,
		Solver: solverName, TimeoutMillis: 1,
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Compile err = %v, want context.DeadlineExceeded", err)
	}
	// Negative timeouts are rejected by validation.
	if err := (Request{Model: "tinyconvnet", TimeoutMillis: -1}).Validate(); err == nil {
		t.Fatal("negative TimeoutMillis passed Validate")
	}
	// A generous timeout lets the request complete normally.
	if _, err := eng.Evaluate(context.Background(), Request{Model: "tinyconvnet", TimeoutMillis: 600_000}); err != nil {
		t.Fatalf("generous timeout failed: %v", err)
	}
	// An absurd timeout clamps instead of overflowing time.Duration
	// into an instantly-expired deadline.
	if _, err := eng.Evaluate(context.Background(), Request{Model: "tinyconvnet", TimeoutMillis: math.MaxInt64 / 2}); err != nil {
		t.Fatalf("huge timeout failed: %v", err)
	}
}

// TestEvaluateBatchMixedDeadlines: a short-timeout request in a batch
// must not poison co-batched requests sharing its compile key. The
// shared compile runs under the batch context; the short deadline fails
// only that request's own result slot.
func TestEvaluateBatchMixedDeadlines(t *testing.T) {
	eng := MustNew()
	// Pin the shared compile well past the short deadline with a
	// sleeping solver so the timeout fires deterministically.
	solverName := fmt.Sprintf("test-batch-sleeps-%d", time.Now().UnixNano())
	if err := RegisterSolver(solverName, func(layers []SolverLayer, totalPEs, minPEs int) ([]int, error) {
		time.Sleep(250 * time.Millisecond)
		d := make([]int, len(layers))
		for i := range d {
			d[i] = 1
		}
		return d, nil
	}); err != nil {
		t.Fatal(err)
	}
	// Request 0 (the compile job's probe under the old attribution) has
	// a 1 ms deadline; requests 1 and 2 share its compile key with no
	// deadline and a generous one.
	mk := func(timeoutMillis int64) Request {
		return Request{
			Model: "tinyconvnet", Mode: ModeCrossLayer, ExtraPEs: 1,
			WeightDuplication: true, Solver: solverName,
			TimeoutMillis: timeoutMillis,
		}
	}
	out, err := eng.EvaluateBatch(context.Background(), []Request{mk(1), mk(0), mk(60_000)})
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(out[0].Err, context.DeadlineExceeded) {
		t.Errorf("short-deadline request: err = %v, want context.DeadlineExceeded", out[0].Err)
	}
	for i := 1; i < 3; i++ {
		if out[i].Err != nil {
			t.Errorf("request %d poisoned by co-batched deadline: %v", i, out[i].Err)
		} else if out[i].Evaluation == nil {
			t.Errorf("request %d has neither evaluation nor error", i)
		}
	}
	// The compilation itself completed and is cached: re-running the
	// deadline-free request compiles nothing new.
	before := eng.Stats().Compiles
	if _, err := eng.Evaluate(context.Background(), mk(0)); err != nil {
		t.Fatal(err)
	}
	if after := eng.Stats().Compiles; after != before {
		t.Errorf("re-run recompiled: %d -> %d", before, after)
	}
}

// The compile-cache key is written field by field, so it must cover
// every Config field: changing any one of them alone must change the
// key. A field added to Config but not to cacheKey fails here.
func TestCacheKeyCoversConfig(t *testing.T) {
	base, err := cacheKey("m", Config{})
	if err != nil {
		t.Fatal(err)
	}
	typ := reflect.TypeOf(Config{})
	for i := 0; i < typ.NumField(); i++ {
		var cfg Config
		f := reflect.ValueOf(&cfg).Elem().Field(i)
		switch f.Kind() {
		case reflect.Bool:
			f.SetBool(true)
		case reflect.Int, reflect.Int64:
			f.SetInt(3)
		case reflect.Uint64:
			f.SetUint(3)
		case reflect.Float64:
			f.SetFloat(0.5)
		case reflect.String:
			f.SetString("x")
		default:
			t.Fatalf("Config.%s has unhandled kind %v", typ.Field(i).Name, f.Kind())
		}
		key, err := cacheKey("m", cfg)
		if err != nil {
			t.Fatal(err)
		}
		if key == base {
			t.Errorf("cache key ignores Config.%s", typ.Field(i).Name)
		}
	}
	// Quoting keeps string fields from running into each other.
	a, _ := cacheKey("m", Config{Solver: `a",`, SolverMode: "b"})
	b, _ := cacheKey("m", Config{Solver: "a", SolverMode: `",b`})
	if a == b {
		t.Error("string fields collide in the cache key")
	}
	if _, err := cacheKey("m", Config{TMVMNanos: math.NaN()}); err == nil {
		t.Error("NaN config encoded into a cache key")
	}
}
