// Solver search: let the duplication solver optimize the schedule
// instead of the paper's proxy. The dp solver is exact on Optimization
// Problem 1's objective sum(t_i/d_i) — serial latency — but under
// cross-layer scheduling the makespan is set by critical-path and
// replica-contention structure that objective cannot see. The "search"
// solver closes the gap: a seeded simulated-annealing walk over
// duplication vectors in which every candidate is scored by the
// makespan Stages I-IV achieve under the request's scheduling mode.
// Stage I-II are memoized across candidates and the score comes from a
// makespan-only scheduler pass; the event simulator remains the oracle
// that makespan is tested against. The dp solution seeds the walk, so
// search is never worse than dp on the metric that is actually
// reported.
//
// Run with: go run ./examples/solver_search
package main

import (
	"context"
	"fmt"
	"log"

	clsacim "clsacim"
)

func main() {
	// Coarse Stage I granularity keeps each of the ~48 candidate
	// evaluations cheap; it is the granularity the solver ablation and
	// the serving path use.
	eng, err := clsacim.New(clsacim.WithTargetSets(26))
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()

	base := clsacim.Request{
		Model:             "tinyyolov4",
		ExtraPEs:          32,
		WeightDuplication: true,
	}

	fmt.Println("TinyYOLOv4, wdup+32, 26 sets/layer: dp proxy vs scored search")
	fmt.Printf("%-6s %-8s %12s %9s %8s  %s\n",
		"mode", "solver", "makespan", "speedup", "vs dp", "duplication")
	for _, mode := range []clsacim.ScheduleMode{
		clsacim.ModeLayerByLayer, clsacim.ModeWindow(4), clsacim.ModeCrossLayer,
	} {
		var dp int64
		for _, solver := range []string{"dp", "search"} {
			req := base
			req.Mode = mode
			req.Solver = solver
			if solver == "search" {
				// Both knobs are optional: budget 0 means the default 48
				// evaluations, and any fixed seed makes the walk a pure
				// function of the request — byte-identical results at any
				// GOMAXPROCS.
				req.SolverBudget = 48
				req.SolverSeed = 1
			}
			ev, err := eng.Evaluate(ctx, req)
			if err != nil {
				log.Fatal(err)
			}
			if solver == "dp" {
				dp = ev.Result.MakespanCycles
			}
			fmt.Printf("%-6s %-8s %12d %8.2fx %7.3fx  %v\n",
				mode.Name(), solver, ev.Result.MakespanCycles, ev.Speedup,
				float64(dp)/float64(ev.Result.MakespanCycles),
				ev.Result.Duplication)
		}
	}

	// The search optimizes against the mode it will be scheduled under:
	// the same model at the same mapping point compiles once per scoring
	// objective, and plain solvers ignore (and share cache entries
	// across) the scored knobs.
	s := eng.Stats()
	fmt.Printf("\nengine: %d compiles, %d cache hits (%d partial)\n",
		s.Compiles, s.CacheHits, s.PartialHits)
}
