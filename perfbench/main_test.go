package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// benchmarkJSON is the metric list of the repository's BENCHMARK.json.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

// runCLI runs one short benchmark run and decodes its last line.
func runCLI(t *testing.T, workload, trace string) result {
	t.Helper()
	var out bytes.Buffer
	code := cli([]string{"--workload", workload, "--seed", "3", "--seconds", "1",
		"--trace", trace, "--root", "..", "--spans", t.TempDir() + "/spans.jsonl"}, &out)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if code != 0 {
		t.Fatalf("%s --trace %s exited %d:\n%s", workload, trace, code, out.String())
	}
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v\n%s", err, out.String())
	}
	return res
}

func checkMetrics(t *testing.T, res result, want []struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}) {
	t.Helper()
	if len(res.Metrics) != len(want) {
		t.Errorf("%d metrics, BENCHMARK.json lists %d", len(res.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		if !ok {
			t.Errorf("metric %s missing", m.Name)
			continue
		}
		if got.Unit != m.Unit {
			t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
		}
	}
}

// layersRun lists, per workload, the per-layer metrics of the layers the
// workload runs (README.md, "Per-layer metrics"): each must read above
// 0 in a traced run. Every other per-layer metric, except the tracing
// overhead, must read 0.
var layersRun = map[string][]string{
	"sweep": {
		"frontend.canonicalize_ms", "mapping.analyze_ms", "mapping.solve_ms", "mapping.apply_ms",
		"sets.determine_ms", "sets.calls", "sets.sets",
		"deps.build_ms", "deps.calls", "deps.edges", "deps.alloc_mb",
		"schedule.schedule_ms", "schedule.items", "engine.schedule_ms", "check.timeline_ms",
		"engine.compile_ms", "engine.compiles", "engine.cache_hit_ratio",
	},
	"search": {
		"frontend.canonicalize_ms", "mapping.analyze_ms", "mapping.solve_ms", "mapping.apply_ms",
		"mapping.candidates", "sim.run_coarse_ms", "sim.calls",
		"sets.determine_ms", "sets.calls", "sets.sets",
		"deps.build_ms", "deps.calls", "deps.edges", "deps.alloc_mb",
		"schedule.schedule_ms", "schedule.items", "engine.schedule_ms", "check.timeline_ms",
		"engine.compile_ms", "engine.compiles",
	},
	"serve": {
		"serve.handler_ms", "serve.transport_ms", "serve.resp_kb",
		"importer.import_ms", "engine.cache_hit_ratio",
	},
	"stream": {
		"stream.evaluate_ms", "stream.sim_inferences_per_s", "engine.cache_hit_ratio",
	},
}

// TestShortRuns runs every workload briefly, untraced and traced: every
// metric BENCHMARK.json names is reported with its unit, every op's
// outputs equal the committed references, and the traced run measures
// exactly the layers the workload runs.
func TestShortRuns(t *testing.T) {
	bj := readBenchmarkJSON(t)
	if len(bj.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(bj.Workloads), len(specs))
	}
	for _, wl := range bj.Workloads {
		t.Run(wl.Name, func(t *testing.T) {
			res := runCLI(t, wl.Name, "0")
			checkMetrics(t, res, bj.EndToEnd)
			if !res.Correct || res.Failed != 0 || res.Metrics["ok_ratio"].Value != 1 {
				t.Errorf("untraced run: correct=%v failed=%d ok_ratio=%v", res.Correct, res.Failed, res.Metrics["ok_ratio"].Value)
			}
			for name, m := range res.Metrics {
				if m.Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", name, m.Value)
				}
			}
			traced := runCLI(t, wl.Name, "1")
			checkMetrics(t, traced, bj.PerLayer)
			if !traced.Correct || traced.Failed != 0 {
				t.Errorf("traced run: correct=%v failed=%d", traced.Correct, traced.Failed)
			}
			run := make(map[string]bool)
			for _, name := range layersRun[wl.Name] {
				run[name] = true
			}
			for _, m := range bj.PerLayer {
				v := traced.Metrics[m.Name].Value
				switch {
				case m.Name == "trace.overhead_pct":
				case run[m.Name] && v <= 0:
					t.Errorf("per-layer %s = %v on %s, a layer it runs; want > 0", m.Name, v, wl.Name)
				case !run[m.Name] && v != 0:
					t.Errorf("per-layer %s = %v on %s, a layer it does not run; want 0", m.Name, v, wl.Name)
				}
			}
		})
	}
}

// TestGeomeanIsExact: the makespan geomean comes from the fixed key set,
// so two set-ups agree bit for bit.
func TestGeomeanIsExact(t *testing.T) {
	ctx := context.Background()
	var prev float64
	for i := 0; i < 2; i++ {
		w, err := setupSearch(ctx, &env{root: ".."})
		if err != nil {
			t.Fatal(err)
		}
		if gm := w.geomean(); i > 0 && gm != prev {
			t.Errorf("geomean %v, then %v", prev, gm)
		} else {
			prev = gm
		}
	}
}

// TestSweepReplayEqualsEngine replays sweep ops through the stage entry
// points; each replayed makespan must equal the engine's, and a wrong
// oracle must be reported.
func TestSweepReplayEqualsEngine(t *testing.T) {
	ctx := context.Background()
	w, err := setupSweep(ctx, &env{root: ".."})
	if err != nil {
		t.Fatal(err)
	}
	s := w.(*sweep)
	for k := range s.ops {
		if _, err := s.run(ctx, k, k, newTracer()); err != nil {
			t.Errorf("op %d (%s): %v", k, s.ops[k].model, err)
		}
	}
	s.ops[0].engine[len(s.ops[0].engine)-1]++
	if _, err := s.run(ctx, 0, 0, newTracer()); err == nil {
		t.Error("replay accepted a makespan that differs from the engine's")
	}
}

// TestSearchReplayEqualsEngine is the same for every search row.
func TestSearchReplayEqualsEngine(t *testing.T) {
	ctx := context.Background()
	w, err := setupSearch(ctx, &env{root: ".."})
	if err != nil {
		t.Fatal(err)
	}
	s := w.(*search)
	tr := newTracer()
	for k := range s.ops {
		if _, err := s.run(ctx, k, k, tr); err != nil {
			t.Errorf("op %d (%s %s): %v", k, s.ops[k].row.Model, s.ops[k].row.Sched, err)
		}
	}
	if c := tr.layerTimes()["sim.RunCoarse"].calls; c == 0 {
		t.Error("search replay scored no candidate")
	}
	s.ops[0].engine++
	if _, err := s.run(ctx, 0, 0, newTracer()); err == nil {
		t.Error("replay accepted a makespan that differs from the engine's")
	}
}

// TestQuartilesMatchPython pins the quartile method to Python's
// statistics.quantiles(data, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
	// == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}
