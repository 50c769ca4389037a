package main

import (
	"context"
	"fmt"
	"time"

	"clsacim"
)

// sweepOp is one model's Fig. 7 grid.
type sweepOp struct {
	model string
	reqs  []clsacim.Request
	refs  []fig7Point
	// engine holds the makespans the engine produced for reqs in the
	// set-up pass: the oracle the traced replay must equal.
	engine []int64
}

// sweep is the paper's Fig. 7 reproduction at fine granularity: one op
// evaluates one model's whole grid through Engine.EvaluateBatch on a
// fresh Engine, so every op is cold.
type sweep struct {
	ops    []*sweepOp
	gm     float64
	totals engineTotals
}

func setupSweep(ctx context.Context, e *env) (workload, error) {
	pts, err := readFig7(e.root)
	if err != nil {
		return nil, err
	}
	s := &sweep{}
	byModel := make(map[string]*sweepOp)
	for _, p := range pts {
		x, wdup, err := parseMapping(p.Mapping)
		if err != nil {
			return nil, err
		}
		mode, err := clsacim.ParseMode(p.Sched)
		if err != nil {
			return nil, err
		}
		op := byModel[p.Model]
		if op == nil {
			op = &sweepOp{model: p.Model}
			byModel[p.Model] = op
			s.ops = append(s.ops, op)
		}
		// The same request internal/bench.Harness.Run sends.
		cfg := clsacim.Config{ExtraPEs: x, WeightDuplication: wdup}
		op.reqs = append(op.reqs, clsacim.Request{Model: p.Model, Mode: mode, Config: &cfg})
		op.refs = append(op.refs, p)
	}
	// Set-up pass: every op once, untimed and verified. It warms the
	// process, yields the geomean over the fixed key set and records the
	// engine's makespans for the replay check.
	var all []int64
	for k, op := range s.ops {
		evs, _, err := s.evaluate(ctx, k)
		if err == nil {
			err = s.verify(k, evs)
		}
		if err != nil {
			return nil, fmt.Errorf("set-up pass: %w", err)
		}
		op.engine = op.engine[:0]
		for _, ev := range evs {
			op.engine = append(op.engine, ev.Result.MakespanCycles)
			all = append(all, ev.Result.MakespanCycles)
		}
	}
	s.gm = geomean(all)
	return s, nil
}

func (s *sweep) cycle() int                 { return len(s.ops) }
func (s *sweep) callers() int               { return 1 }
func (s *sweep) geomean() float64           { return s.gm }
func (s *sweep) close() error               { return nil }
func (s *sweep) engineStats() clsacim.Stats { return s.totals.get() }

// evaluate runs op k on a fresh engine with the independent timeline
// checker on.
func (s *sweep) evaluate(ctx context.Context, k int) ([]*clsacim.Evaluation, time.Duration, error) {
	op := s.ops[k]
	eng, err := clsacim.New(clsacim.WithValidation())
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	res, err := eng.EvaluateBatch(ctx, op.reqs)
	lat := time.Since(t0)
	s.totals.add(eng.Stats())
	if err != nil {
		return nil, 0, err
	}
	evs := make([]*clsacim.Evaluation, len(res))
	for i, r := range res {
		if r.Err != nil {
			return nil, 0, fmt.Errorf("%s %s: %w", op.model, op.refs[i].Mapping, r.Err)
		}
		evs[i] = r.Evaluation
	}
	return evs, lat, nil
}

func (s *sweep) verify(k int, evs []*clsacim.Evaluation) error {
	op := s.ops[k]
	for i, ev := range evs {
		ref := op.refs[i]
		var m mismatch
		m.int("makespan", ev.Result.MakespanCycles, ref.Makespan)
		m.float("speedup", ev.Speedup, ref.Speedup)
		m.float("utilization", ev.Result.Utilization, ref.Utilization)
		m.float("ut_gain", ev.UtilizationGain, ref.UtGain)
		if err := m.err(fmt.Sprintf("%s %s %s", op.model, ref.Mapping, ref.Sched)); err != nil {
			return err
		}
	}
	return nil
}

func (s *sweep) run(ctx context.Context, k, opID int, tr *tracer) (time.Duration, error) {
	if tr != nil {
		return s.replay(k, opID, tr)
	}
	evs, lat, err := s.evaluate(ctx, k)
	if err != nil {
		return 0, err
	}
	return lat, s.verify(k, evs)
}

// replay runs op k through the stage entry points: each distinct
// compile key once, in the order EvaluateBatch deduplicates them
// (baseline, then variant, per request), then each request's baseline
// and variant schedules.
func (s *sweep) replay(k, opID int, tr *tracer) (time.Duration, error) {
	op := s.ops[k]
	root := tr.begin("replay.op", opID, -1)
	r := replayer{tr: tr, op: opID}
	type pair struct{ base, vari replayKey }
	keys := make([]pair, len(op.refs))
	comps := make(map[replayKey]*replayComp)
	var err error
	for i, ref := range op.refs {
		base := baselineKey(op.model, 0)
		vari := base
		if ref.Mapping != "-" {
			vari = replayKey{model: op.model, x: ref.X, solver: "dp"}
		}
		keys[i] = pair{base, vari}
		for _, key := range []replayKey{base, vari} {
			if comps[key] == nil && err == nil {
				comps[key], err = r.compile(root, key)
			}
		}
	}
	makespans := make([]int64, len(op.refs))
	for i, ref := range op.refs {
		var b, v int64
		if err == nil {
			b, err = r.schedule(root, comps[keys[i].base], "lbl")
		}
		if err == nil {
			v, err = r.schedule(root, comps[keys[i].vari], ref.Sched)
		}
		makespans[i] = v
		if err == nil && float64(b)/float64(v) != ref.Speedup {
			err = fmt.Errorf("replayed %s %s %s speedup %v, reference %v", op.model, ref.Mapping, ref.Sched, float64(b)/float64(v), ref.Speedup)
		}
	}
	tr.end(root)
	if err != nil {
		return 0, err
	}
	for i, m := range makespans {
		if m != op.engine[i] {
			return 0, fmt.Errorf("replayed %s %s %s makespan %d, engine %d", op.model, op.refs[i].Mapping, op.refs[i].Sched, m, op.engine[i])
		}
	}
	return tr.dur(root), nil
}
