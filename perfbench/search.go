package main

import (
	"context"
	"fmt"
	"time"

	"clsacim"
)

// searchOp is one (model, mode) row of the solver ablation's "search"
// solver.
type searchOp struct {
	row    solverRow
	req    clsacim.Request
	engine int64 // the engine's makespan in the set-up pass
}

// search is design-space search with the scored "search" solver: one
// op compiles one row's search key (and its cheap baseline) on a fresh
// Engine at 26 sets, so its ~48 candidates each pay Stage I, Stage II
// and a coarse simulation.
type search struct {
	ops    []*searchOp
	gm     float64
	totals engineTotals
}

// solverRequest is the request internal/bench.RunSolverAblation
// compiles for a solver row.
func solverRequest(model, sched, solver string) (clsacim.Request, error) {
	mode, err := clsacim.ParseMode(sched)
	if err != nil {
		return clsacim.Request{}, err
	}
	cfg := clsacim.Config{TargetSets: coarseSets, ExtraPEs: solverX, WeightDuplication: true, Solver: solver}
	if solver == "search" {
		cfg.SolverSeed = searchSeed
		cfg.SolverMode = sched
	}
	return clsacim.Request{Model: model, Mode: mode, Config: &cfg}, nil
}

func setupSearch(ctx context.Context, e *env) (workload, error) {
	rows, err := readSolver(e.root)
	if err != nil {
		return nil, err
	}
	s := &search{}
	for _, row := range rows {
		if row.Solver != "search" {
			continue
		}
		req, err := solverRequest(row.Model, row.Sched, row.Solver)
		if err != nil {
			return nil, err
		}
		s.ops = append(s.ops, &searchOp{row: row, req: req})
	}
	if len(s.ops) == 0 {
		return nil, fmt.Errorf("BENCH_solver.json has no search rows")
	}
	var all []int64
	for k, op := range s.ops {
		ev, _, err := s.evaluate(ctx, k)
		if err == nil {
			err = s.verify(k, ev)
		}
		if err != nil {
			return nil, fmt.Errorf("set-up pass: %w", err)
		}
		op.engine = ev.Result.MakespanCycles
		all = append(all, op.engine)
	}
	s.gm = geomean(all)
	return s, nil
}

func (s *search) cycle() int                 { return len(s.ops) }
func (s *search) callers() int               { return 1 }
func (s *search) geomean() float64           { return s.gm }
func (s *search) close() error               { return nil }
func (s *search) engineStats() clsacim.Stats { return s.totals.get() }

func (s *search) evaluate(ctx context.Context, k int) (*clsacim.Evaluation, time.Duration, error) {
	eng, err := clsacim.New(clsacim.WithValidation())
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	ev, err := eng.Evaluate(ctx, s.ops[k].req)
	lat := time.Since(t0)
	s.totals.add(eng.Stats())
	return ev, lat, err
}

func (s *search) verify(k int, ev *clsacim.Evaluation) error {
	row := s.ops[k].row
	var m mismatch
	m.int("makespan", ev.Result.MakespanCycles, row.Makespan)
	m.float("speedup", ev.Speedup, row.Speedup)
	m.float("utilization", ev.Result.Utilization, row.Utilization)
	return m.err(fmt.Sprintf("%s %s search", row.Model, row.Sched))
}

func (s *search) run(ctx context.Context, k, opID int, tr *tracer) (time.Duration, error) {
	if tr != nil {
		return s.replay(k, opID, tr)
	}
	ev, lat, err := s.evaluate(ctx, k)
	if err != nil {
		return 0, err
	}
	return lat, s.verify(k, ev)
}

// replay runs op k through the stage entry points: the baseline and
// search compilations, then the baseline and result schedules.
func (s *search) replay(k, opID int, tr *tracer) (time.Duration, error) {
	op := s.ops[k]
	root := tr.begin("replay.op", opID, -1)
	r := replayer{tr: tr, op: opID}
	var b, v int64
	base, err := r.compile(root, baselineKey(op.row.Model, coarseSets))
	var vari *replayComp
	if err == nil {
		vari, err = r.compile(root, replayKey{model: op.row.Model, x: solverX, solver: "search",
			solverMode: op.row.Sched, targetSets: coarseSets})
	}
	if err == nil {
		b, err = r.schedule(root, base, "lbl")
	}
	if err == nil {
		v, err = r.schedule(root, vari, op.row.Sched)
	}
	tr.end(root)
	if err != nil {
		return 0, err
	}
	if v != op.engine || float64(b)/float64(v) != op.row.Speedup {
		return 0, fmt.Errorf("replayed %s %s search makespan %d (speedup %v), engine %d (reference speedup %v)",
			op.row.Model, op.row.Sched, v, float64(b)/float64(v), op.engine, op.row.Speedup)
	}
	return tr.dur(root), nil
}
