package schedule

import (
	"testing"

	"clsacim/internal/deps"
	"clsacim/internal/models"
	"clsacim/internal/sets"
)

// TestMakespanPass: the makespan-only pass reports exactly the makespan
// of the full scheduler under every policy, with and without edge
// costs, reusing one Scratch across workloads of different sizes. A
// debug request is rejected (there is no timeline to validate).
func TestMakespanPass(t *testing.T) {
	edge := func(pred deps.SetRef, toLayer int) int64 { return int64(pred.Vol%7 + toLayer%3) }
	var sc Scratch
	for _, targetSets := range []int{26, sets.FineGranularity, 8} {
		_, _, dg := compileDeps(t, models.TinyYOLOv4, 128, 16, targetSets)
		for _, p := range []Policy{LayerByLayer, Windowed(3), CrossLayer} {
			for _, ec := range []EdgeCostFn{nil, edge} {
				opt := Options{EdgeCost: ec}
				tl, err := Schedule(dg, p, opt)
				if err != nil {
					t.Fatal(err)
				}
				got, err := sc.Makespan(dg, p, opt)
				if err != nil {
					t.Fatal(err)
				}
				if got != tl.Makespan {
					t.Errorf("sets %d %s edge=%v: makespan pass %d, Schedule %d",
						targetSets, p.Name(), ec != nil, got, tl.Makespan)
				}
			}
		}
		if _, err := sc.Makespan(dg, CrossLayer, Options{Debug: true}); err == nil {
			t.Error("makespan pass accepted Options.Debug")
		}
	}
}

// TestMakespanAllocs pins the cost model's allocation profile: once
// its Scratch is warm, the makespan pass allocates nothing, under any
// policy and with an edge-cost hook.
func TestMakespanAllocs(t *testing.T) {
	_, _, dg := compileDeps(t, models.TinyYOLOv4, 416, 32, sets.FineGranularity)
	edge := func(pred deps.SetRef, toLayer int) int64 { return int64(pred.Vol & 3) }
	var sc Scratch
	for _, p := range []Policy{LayerByLayer, Windowed(4), CrossLayer} {
		for _, ec := range []EdgeCostFn{nil, edge} {
			opt := Options{EdgeCost: ec}
			if _, err := sc.Makespan(dg, p, opt); err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(10, func() {
				if _, err := sc.Makespan(dg, p, opt); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("%s edge=%v: warm makespan pass allocates %v objects per run, want 0",
					p.Name(), ec != nil, allocs)
			}
		}
	}
}
