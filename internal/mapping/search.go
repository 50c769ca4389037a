package mapping

import (
	"fmt"
	"math"
)

// This file implements the search-based duplication solver ("search"):
// seeded simulated annealing over per-layer duplication vectors, scored
// by the makespan the scheduler actually achieves instead of the
// idealized sum(t_i/d_i) proxy of Optimization Problem 1. The score
// comes from a caller-supplied ScoreFunc that prices each candidate
// with the real Stage I-IV pipeline — the compile pipeline provides
// it, closing over the graph, the Stage I granularity, and the
// scheduling mode under optimization. Its Stage I-II are memoized per
// compile (a move re-derives only the layers whose set count changes
// and the dependency blocks touching them), and the score is the
// makespan of a Stage IV pass that materializes no timeline; the event
// simulator remains the oracle that makespan is tested against.

// ScoreFunc scores one candidate duplication vector d (plan-layer
// order, every d_i >= 1, sum(c_i*d_i) <= F enforced by the caller of
// the solver) and returns the makespan in cycles the schedule achieves
// with it. Lower is better. Implementations must be deterministic: the
// search's reproducibility guarantee (same seed + budget => same
// Solution.D) holds only if equal vectors always score equally.
type ScoreFunc func(d []int) (int64, error)

// ScoredOptions carries the search knobs of a scored solver.
type ScoredOptions struct {
	// Seed drives the deterministic move RNG. The same (seed, budget,
	// plan, F) always yields the same Solution.D.
	Seed uint64
	// Budget bounds the number of ScoreFunc evaluations — deliberately
	// expressed in evaluations, not wall clock, so results are
	// reproducible across machines. Non-positive means
	// DefaultSearchBudget. Re-scoring an already-seen vector is
	// memoized and does not consume budget.
	Budget int
}

// ScoredFunc is the signature of a schedule-aware duplication solver:
// unlike Func it receives a ScoreFunc to evaluate candidates with the
// real scheduling pipeline. Implementations must keep
// sum(c_i * d_i) <= F and every 1 <= d_i <= MaxDup_i.
type ScoredFunc func(plan *Plan, F int, score ScoreFunc, opt ScoredOptions) (Solution, error)

// DefaultSearchBudget is the evaluation budget used when
// ScoredOptions.Budget is unset. The compile pipeline prices an
// evaluation incrementally — memoized Stage I-II plus a makespan-only
// scheduler pass, a fraction of a millisecond for tinyyolov4 at 26 sets
// — so the default keeps a cold "search" compile within a few times a
// plain compile: small enough for interactive serving, large enough to
// improve on the dp seed on most models.
const DefaultSearchBudget = 48

// searchRNG is a splitmix64 generator: tiny, fast, and fully
// deterministic for a fixed seed.
type searchRNG uint64

func (r *searchRNG) next() uint64 {
	*r += 0x9e3779b97f4a7c15
	z := uint64(*r)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a uniform int in [0, n).
func (r *searchRNG) intn(n int) int {
	return int(r.next() % uint64(n))
}

// float returns a uniform float64 in [0, 1).
func (r *searchRNG) float() float64 {
	return float64(r.next()>>11) / (1 << 53)
}

// SolveSearch is the "search" solver: simulated annealing / local
// search over duplication vectors, scored by the caller's ScoreFunc.
//
// The walk starts from the best of the closed-form solutions (dp,
// greedy, minmax, uniform, and all-ones — each seeded into the
// evaluation budget, dp first), then explores three move kinds:
// incrementing a layer's duplication, decrementing it, and transferring
// one duplicate between layers. Every move respects 1 <= d_i <=
// MaxDup_i and sum(c_i*d_i) <= F, so every evaluated candidate is
// feasible. Worse candidates are accepted with an annealing probability
// that decays as the budget is spent; the best vector ever scored is
// returned, which guarantees the result is never worse (by ScoreFunc)
// than the dp seed as long as at least one evaluation is budgeted.
func SolveSearch(plan *Plan, F int, score ScoreFunc, opt ScoredOptions) (Solution, error) {
	n := len(plan.Layers)
	if plan.MinPEs > F {
		return Solution{}, fmt.Errorf("mapping: need %d PEs, architecture has %d", plan.MinPEs, F)
	}
	if score == nil {
		return Solution{}, fmt.Errorf("mapping: search solver needs a score function")
	}
	budget := opt.Budget
	if budget <= 0 {
		budget = DefaultSearchBudget
	}

	evals := 0
	memo := make(map[string]int64)
	// eval scores d, memoizing by vector so revisits are free. The
	// second return is false once the budget is exhausted.
	eval := func(d []int) (int64, bool, error) {
		key := vecKey(d)
		if s, ok := memo[key]; ok {
			return s, true, nil
		}
		if evals >= budget {
			return 0, false, nil
		}
		evals++
		s, err := score(d)
		if err != nil {
			return 0, false, fmt.Errorf("mapping: scoring candidate: %w", err)
		}
		memo[key] = s
		return s, true, nil
	}

	// Seed the walk with the closed-form solutions. dp goes first: with
	// any budget at all, the returned best is at least as good as the
	// exact proxy optimum.
	starts := [][]int{
		solveDP(plan, F).D,
		solveGreedy(plan, F).D,
		solveMinMax(plan, F).D,
		solveUniform(plan, F).D,
		onesVec(n),
	}
	var best []int
	var bestScore int64
	for _, d := range starts {
		s, ok, err := eval(d)
		if err != nil {
			return Solution{}, err
		}
		if !ok {
			break
		}
		if best == nil || s < bestScore {
			best = append(best[:0], d...)
			bestScore = s
		}
	}
	if best == nil {
		// Budget 0 cannot happen (defaulted above); defensive.
		return finish(plan, solveDP(plan, F).D), nil
	}

	rng := searchRNG(opt.Seed)
	cur := append([]int(nil), best...)
	curScore := bestScore
	used := 0
	for i, info := range plan.Layers {
		used += info.Cost * cur[i]
	}
	// t0 scales the annealing temperature to the problem: early on, a
	// candidate ~3% worse than the current score is accepted with
	// probability 1/e.
	t0 := float64(bestScore) * 0.03
	if t0 < 1 {
		t0 = 1
	}
	// Memoized revisits are free, so bound the total loop iterations to
	// guarantee termination even when the feasible neighborhood is
	// exhausted.
	for steps := 0; evals < budget && steps < 64*budget; steps++ {
		next, nextUsed := neighbor(plan, F, cur, used, &rng)
		if next == nil {
			break // no feasible move exists at all
		}
		s, ok, err := eval(next)
		if err != nil {
			return Solution{}, err
		}
		if !ok {
			break
		}
		frac := float64(evals) / float64(budget)
		temp := t0 * (1 - frac)
		accept := s <= curScore
		if !accept && temp > 0 {
			accept = rng.float() < math.Exp(-float64(s-curScore)/temp)
		}
		if accept {
			cur, used, curScore = next, nextUsed, s
			if s < bestScore {
				best = append(best[:0], next...)
				bestScore = s
			}
		}
	}
	return finish(plan, append([]int(nil), best...)), nil
}

// neighbor proposes one feasible mutation of d: increment a layer's
// duplication, decrement one, or transfer a duplicate between two
// layers. It retries random draws a bounded number of times and returns
// nil when nothing feasible was found (e.g. every layer pinned at its
// MaxDup or the budget exactly exhausted with no slack anywhere).
func neighbor(plan *Plan, F int, d []int, used int, rng *searchRNG) ([]int, int) {
	n := len(d)
	for attempt := 0; attempt < 64; attempt++ {
		kind := rng.intn(3)
		i := rng.intn(n)
		li := plan.Layers[i]
		switch kind {
		case 0: // increment d[i]
			if d[i] < MaxDup(li) && used+li.Cost <= F {
				out := append([]int(nil), d...)
				out[i]++
				return out, used + li.Cost
			}
		case 1: // decrement d[i]
			if d[i] > 1 {
				out := append([]int(nil), d...)
				out[i]--
				return out, used - li.Cost
			}
		default: // transfer one duplicate i -> j
			j := rng.intn(n)
			lj := plan.Layers[j]
			if i != j && d[i] > 1 && d[j] < MaxDup(lj) && used-li.Cost+lj.Cost <= F {
				out := append([]int(nil), d...)
				out[i]--
				out[j]++
				return out, used - li.Cost + lj.Cost
			}
		}
	}
	return nil, 0
}

// vecKey encodes a duplication vector as a compact map key.
func vecKey(d []int) string {
	b := make([]byte, 0, 4*len(d))
	for _, v := range d {
		for v >= 0x80 {
			b = append(b, byte(v)|0x80)
			v >>= 7
		}
		b = append(b, byte(v))
	}
	return string(b)
}

func onesVec(n int) []int {
	d := make([]int, n)
	for i := range d {
		d[i] = 1
	}
	return d
}
