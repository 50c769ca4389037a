package clsacim

import (
	"context"
	"encoding/json"
	"reflect"
	"runtime"
	"testing"

	"clsacim/internal/mapping"
)

// searchEngine builds a fresh engine with coarse Stage I granularity so
// every search evaluation stays cheap.
func searchEngine(t *testing.T, opts ...Option) *Engine {
	t.Helper()
	return MustNew(append([]Option{WithTargetSets(26)}, opts...)...)
}

// Determinism: the same (seed, budget) must yield byte-identical
// duplication vectors and makespans regardless of GOMAXPROCS — the
// search is a single-threaded walk over a deterministic cost model, so
// worker-pool parallelism elsewhere must not leak into it.
func TestSearchSolverDeterministicAcrossGOMAXPROCS(t *testing.T) {
	req := Request{
		Model: "tinyyolov4", Mode: ModeCrossLayer, ExtraPEs: 24,
		WeightDuplication: true, Solver: "search",
		SolverSeed: 7, SolverBudget: 24,
	}
	run := func(procs int) ([]int, int64) {
		t.Helper()
		prev := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(prev)
		// A fresh engine per run: the compile cache must not serve the
		// second run the first run's result.
		ev, err := searchEngine(t).Evaluate(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		return ev.Result.Duplication, ev.Result.MakespanCycles
	}
	d1, m1 := run(1)
	d4, m4 := run(4)
	if !reflect.DeepEqual(d1, d4) {
		t.Errorf("duplication differs across GOMAXPROCS: %v vs %v", d1, d4)
	}
	if m1 != m4 {
		t.Errorf("makespan differs across GOMAXPROCS: %d vs %d", m1, m4)
	}
}

// Property: with the dp start seeded into its evaluation budget, search
// never schedules worse than dp — for any model and any mode.
func TestSearchNeverWorseThanDPSchedule(t *testing.T) {
	e := searchEngine(t)
	ctx := context.Background()
	for _, model := range []string{"tinyconvnet", "tinybranchnet", "tinyyolov4"} {
		for _, mode := range []ScheduleMode{ModeLayerByLayer, ModeWindow(4), ModeCrossLayer} {
			base := Request{
				Model: model, Mode: mode, ExtraPEs: 16,
				WeightDuplication: true, SolverSeed: 1,
			}
			dpReq := base
			dpReq.Solver = "dp"
			dp, err := e.Evaluate(ctx, dpReq)
			if err != nil {
				t.Fatalf("%s/%s dp: %v", model, mode.Name(), err)
			}
			sReq := base
			sReq.Solver = "search"
			s, err := e.Evaluate(ctx, sReq)
			if err != nil {
				t.Fatalf("%s/%s search: %v", model, mode.Name(), err)
			}
			if s.Result.MakespanCycles > dp.Result.MakespanCycles {
				t.Errorf("%s/%s: search makespan %d worse than dp %d",
					model, mode.Name(), s.Result.MakespanCycles, dp.Result.MakespanCycles)
			}
		}
	}
}

// Cache keying: scored-solver knobs must only split cache entries when
// a scored solver actually runs, and the scoring mode must follow the
// request's scheduling mode.
func TestSearchSolverCacheKeys(t *testing.T) {
	e := searchEngine(t)
	ctx := context.Background()
	// A stray seed/budget on a plain solver shares the plain entry.
	for _, req := range []Request{
		{Model: "tinyconvnet", Mode: ModeCrossLayer, ExtraPEs: 4, WeightDuplication: true, Solver: "dp"},
		{Model: "tinyconvnet", Mode: ModeCrossLayer, ExtraPEs: 4, WeightDuplication: true, Solver: "dp", SolverSeed: 99, SolverBudget: 7},
	} {
		if _, err := e.Evaluate(ctx, req); err != nil {
			t.Fatal(err)
		}
	}
	// 2 keys: the shared baseline and one dp variant.
	if s := e.Stats(); s.Compiles != 2 {
		t.Errorf("dp with stray scored knobs split the cache: %d compiles, want 2", s.Compiles)
	}
	// Search under two modes optimizes two different objectives: two
	// distinct variant compilations.
	for _, mode := range []ScheduleMode{ModeCrossLayer, ModeLayerByLayer} {
		if _, err := e.Evaluate(ctx, Request{
			Model: "tinyconvnet", Mode: mode, ExtraPEs: 4,
			WeightDuplication: true, Solver: "search", SolverBudget: 8,
		}); err != nil {
			t.Fatal(err)
		}
	}
	if s := e.Stats(); s.Compiles != 4 {
		t.Errorf("search mode split: %d compiles, want 4", s.Compiles)
	}
	// Repeating the search requests hits the cache.
	if _, err := e.Evaluate(ctx, Request{
		Model: "tinyconvnet", Mode: ModeCrossLayer, ExtraPEs: 4,
		WeightDuplication: true, Solver: "search", SolverBudget: 8,
	}); err != nil {
		t.Fatal(err)
	}
	if s := e.Stats(); s.Compiles != 4 {
		t.Errorf("repeat search recompiled: %d compiles, want 4", s.Compiles)
	}
}

// The builtin search reads budget 0 as mapping.DefaultSearchBudget, so
// a request spelling out the default must share the compile of one
// that leaves it unset.
func TestSearchDefaultBudgetSharesCompile(t *testing.T) {
	e := searchEngine(t)
	ctx := context.Background()
	for _, budget := range []int{0, mapping.DefaultSearchBudget} {
		if _, err := e.Compile(ctx, Request{
			Model: "tinyconvnet", Mode: ModeCrossLayer, ExtraPEs: 4,
			WeightDuplication: true, Solver: "search", SolverBudget: budget,
		}); err != nil {
			t.Fatal(err)
		}
	}
	if s := e.Stats(); s.Compiles != 1 {
		t.Errorf("budget 0 and the default budget %d compiled %d times, want 1",
			mapping.DefaultSearchBudget, s.Compiles)
	}
}

func TestSearchSolverValidationAndOptions(t *testing.T) {
	if err := (Request{Model: "tinyconvnet", Solver: "search"}).Validate(); err != nil {
		t.Errorf("search solver rejected by Validate: %v", err)
	}
	if err := (Request{Model: "tinyconvnet", Solver: "no-such-solver"}).Validate(); err == nil {
		t.Error("unknown solver passed Validate")
	}
	if err := (Request{Model: "tinyconvnet", SolverBudget: -1}).Validate(); err == nil {
		t.Error("negative SolverBudget passed Validate")
	}
	if _, err := New(WithSolver("search"), WithSolverBudget(16), WithSolverSeed(3)); err != nil {
		t.Errorf("scored solver engine options rejected: %v", err)
	}
	if _, err := New(WithSolverBudget(-1)); err == nil {
		t.Error("negative WithSolverBudget accepted")
	}
	// The registry surface lists the scored solver next to the builtins.
	found := false
	for _, name := range Solvers() {
		if name == "search" {
			found = true
		}
	}
	if !found {
		t.Errorf("Solvers() = %v missing search", Solvers())
	}
}

func TestSearchKnobsJSONRoundTrip(t *testing.T) {
	in := Request{
		Model: "tinyyolov4", Mode: ModeCrossLayer, ExtraPEs: 8,
		WeightDuplication: true, Solver: "search",
		SolverBudget: 32, SolverSeed: 11,
	}
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out Request
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Errorf("round trip: %+v != %+v", out, in)
	}
	cfgIn := Config{WeightDuplication: true, Solver: "search", SolverBudget: 9, SolverSeed: 4, SolverMode: "x4"}
	b, err = json.Marshal(cfgIn)
	if err != nil {
		t.Fatal(err)
	}
	var cfgOut Config
	if err := json.Unmarshal(b, &cfgOut); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cfgIn, cfgOut) {
		t.Errorf("config round trip: %+v != %+v", cfgOut, cfgIn)
	}
	// Zero scored knobs stay off the wire.
	b, _ = json.Marshal(Request{Model: "m"})
	if s := string(b); s != `{"model":"m","mode":"lbl"}` {
		t.Errorf("zero request marshals to %s", s)
	}
}
