package bench

import (
	"fmt"
	"io"

	clsacim "clsacim"
)

// SolverPoint is one measurement of the duplication-solver ablation:
// one (model, scheduling mode, solver) cell of the sweep.
type SolverPoint struct {
	Model  string `json:"model"`
	Sched  string `json:"sched"` // canonical mode name: "lbl", "x<K>", "xinf"
	Solver string `json:"solver"`
	// Makespan is the scheduled makespan under Sched.
	Makespan int64 `json:"makespan_cycles"`
	// Speedup is relative to the model's layer-by-layer x=0 baseline.
	Speedup float64 `json:"speedup"`
	Ut      float64 `json:"utilization"`
	// GainVsDP is dp's makespan over this solver's makespan for the same
	// (model, mode): above 1 means the solver schedules better than the
	// paper's exact proxy optimum.
	GainVsDP float64 `json:"gain_vs_dp"`
}

// SolverAblationSeed pins the search solver's RNG in the ablation so
// BENCH_solver.json is reproducible run to run.
const SolverAblationSeed = 1

// RunSolverAblation compares duplication solvers across models and
// scheduling modes under wdup+x: the paper's exact dp (the proxy
// optimum of sum(t_i/d_i)), the objective-blind uniform spread, the
// bottleneck-aware minmax extension, and the schedule-aware search
// solver scored by the Stage IV scheduler's makespan over memoized
// Stage I-II. The search runs with its
// default budget and a fixed seed; dp is measured first in every
// (model, mode) cell so GainVsDP is defined for all rows. A nil models
// slice sweeps the case-study model plus the Table II zoo.
func (h *Harness) RunSolverAblation(models []string, x int) ([]SolverPoint, error) {
	if models == nil {
		models = append([]string{"tinyyolov4"}, Benchmarks...)
	}
	modes := []clsacim.ScheduleMode{clsacim.ModeLayerByLayer, clsacim.ModeWindow(4), clsacim.ModeCrossLayer}
	solvers := []string{"dp", "uniform", "minmax", "search"}
	var out []SolverPoint
	for _, model := range models {
		base, err := h.Baseline(model)
		if err != nil {
			return nil, err
		}
		for _, mode := range modes {
			var dpMakespan int64
			for _, solver := range solvers {
				cfg := h.Base
				cfg.ExtraPEs = x
				cfg.WeightDuplication = true
				cfg.Solver = solver
				if solver == "search" {
					cfg.SolverSeed = SolverAblationSeed
					cfg.SolverMode = mode.Name()
				}
				comp, err := h.compile(model, cfg)
				if err != nil {
					return nil, fmt.Errorf("%s/%s/%s: %w", model, mode.Name(), solver, err)
				}
				rep, err := comp.Schedule(mode)
				if err != nil {
					return nil, fmt.Errorf("%s/%s/%s: %w", model, mode.Name(), solver, err)
				}
				if solver == "dp" {
					dpMakespan = rep.MakespanCycles
				}
				p := SolverPoint{
					Model: model, Sched: mode.Name(), Solver: solver,
					Makespan: rep.MakespanCycles,
					Speedup:  float64(base.MakespanCycles) / float64(rep.MakespanCycles),
					Ut:       rep.Utilization,
				}
				if dpMakespan > 0 {
					p.GainVsDP = float64(dpMakespan) / float64(rep.MakespanCycles)
				}
				out = append(out, p)
			}
		}
	}
	return out, nil
}

// PrintSolverPoints writes the solver-ablation table.
func PrintSolverPoints(w io.Writer, x int, points []SolverPoint) error {
	fmt.Fprintf(w, "Duplication-solver ablation (wdup+%d; search: default budget, seed %d)\n", x, SolverAblationSeed)
	tw := table(w)
	fmt.Fprintln(tw, "Model\tSched\tSolver\tMakespan\tSpeedup\tUtilization\tvs dp")
	for _, p := range points {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%d\t%.2fx\t%.2f%%\t%.3fx\n",
			p.Model, p.Sched, p.Solver, p.Makespan, p.Speedup, p.Ut*100, p.GainVsDP)
	}
	return tw.Flush()
}
