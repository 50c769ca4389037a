package clsacim

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"clsacim/internal/check"
	"clsacim/internal/mapping"
	"clsacim/internal/metrics"
)

// Engine is the concurrency-safe entry point of the package: it holds
// an architecture description (set through Options), a keyed compile
// cache, and a bounded worker pool for batch evaluation.
//
// Compilation — frontend canonicalization, im2col analysis, duplication
// solving, Stage I-II — dominates the cost of an evaluation, and sweeps
// (many mapping points, one model) as well as services (many requests,
// few distinct configurations) repeat it needlessly with the one-shot
// Compile/Evaluate API. The Engine compiles each distinct
// (model, architecture, mapping) key exactly once and shares the
// immutable *Compiled across all subsequent requests; Stats exposes the
// hit accounting. All methods are safe for concurrent use.
//
// Two properties make the cache safe under sustained multi-tenant
// traffic (e.g. behind the serve package's HTTP daemon):
//
//   - Single-flight compilation: concurrent requests for the same key
//     share one compilation — the first requester compiles, everyone
//     else waits on it (honoring their context), so a burst of
//     identical requests costs one compile, not N.
//   - Bounded memory: WithCacheLimit caps the number of retained
//     compilations; beyond the cap, the least-recently-used finished
//     entry is evicted (Stats.Evictions counts them). In-flight
//     compilations are never evicted, so the bound can be exceeded
//     transiently while more than CacheLimit distinct keys compile at
//     once.
type Engine struct {
	base       Config
	workers    int
	validate   bool
	degraded   bool // WithDegradation: every request may degrade
	cacheLimit int  // 0 = unbounded

	mu    sync.Mutex
	cache map[string]*compileEntry
	lru   *list.List // *compileEntry values; front = most recently used

	compiles      atomic.Int64
	hits          atomic.Int64
	partialHits   atomic.Int64
	misses        atomic.Int64
	evictions     atomic.Int64
	evaluations   atomic.Int64
	degradedEvals atomic.Int64
	streamEvals   atomic.Int64
	streamInfs    atomic.Int64
}

// compileEntry is a cache slot with single-flight semantics: the first
// requester compiles, everyone else waits on ready.
type compileEntry struct {
	key   string
	ready chan struct{}
	c     *Compiled
	err   error

	// done is set just before ready is closed; the eviction scan reads
	// it under Engine.mu to skip in-flight entries without blocking.
	done bool
	// elem is the entry's LRU position, nil once evicted. Guarded by
	// Engine.mu.
	elem *list.Element
}

// New builds an Engine from functional options. The zero option set
// reproduces the paper's case-study architecture (256x256 crossbars,
// tMVM = 1400 ns, idealized data movement).
func New(opts ...Option) (*Engine, error) {
	e := &Engine{
		workers: runtime.GOMAXPROCS(0),
		cache:   make(map[string]*compileEntry),
		lru:     list.New(),
	}
	for _, opt := range opts {
		if err := opt(e); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// MustNew is New panicking on error, for initialization of harnesses
// and tests where the options are static.
func MustNew(opts ...Option) *Engine {
	e, err := New(opts...)
	if err != nil {
		panic(err)
	}
	return e
}

// Stats is a snapshot of the Engine's cache and work accounting.
type Stats struct {
	// Compiles counts full pipeline compilations actually executed —
	// one per distinct (model, architecture, mapping) key requested.
	Compiles int64
	// CacheHits counts compile requests served from the cache
	// (including requests that waited on an in-flight compilation).
	CacheHits int64
	// PartialHits counts the cache hits that still ran Stage III/IV
	// because the requested scheduling mode had no cached timeline yet —
	// the incremental re-simulation path (compile reused, event loop
	// re-run). CacheHits - PartialHits are full hits serving both the
	// compilation and the timeline from cache.
	PartialHits int64
	// CacheMisses counts compile requests that had to compile.
	CacheMisses int64
	// Evictions counts cached compilations dropped by the LRU bound
	// (see WithCacheLimit). Always 0 on an unbounded engine.
	Evictions int64
	// Evaluations counts completed Evaluate calls, including degraded
	// ones; DegradedEvaluations counts the subset served by the coarse
	// fast path because the request's deadline was too tight for the
	// full pipeline (see Request.AllowDegraded).
	Evaluations         int64
	DegradedEvaluations int64
	// StreamEvaluations counts completed EvaluateStream calls, and
	// StreamInferences the total inferences they served.
	StreamEvaluations int64
	StreamInferences  int64
	// CachedEntries is the current number of cached compilations.
	CachedEntries int
	// CacheLimit is the configured bound on CachedEntries (0 =
	// unbounded).
	CacheLimit int
}

// Stats returns a consistent-enough snapshot of the Engine counters.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	entries := len(e.cache)
	e.mu.Unlock()
	return Stats{
		Compiles:            e.compiles.Load(),
		CacheHits:           e.hits.Load(),
		PartialHits:         e.partialHits.Load(),
		CacheMisses:         e.misses.Load(),
		Evictions:           e.evictions.Load(),
		Evaluations:         e.evaluations.Load(),
		DegradedEvaluations: e.degradedEvals.Load(),
		StreamEvaluations:   e.streamEvals.Load(),
		StreamInferences:    e.streamInfs.Load(),
		CachedEntries:       entries,
		CacheLimit:          e.cacheLimit,
	}
}

// effective resolves the Config a request compiles under: the request's
// full Config override if present (else the Engine defaults), with the
// request's non-zero mapping fields overlaid.
func (e *Engine) effective(req Request) Config {
	cfg := e.base
	if req.Config != nil {
		cfg = *req.Config
	}
	if req.ExtraPEs != 0 {
		cfg.ExtraPEs = req.ExtraPEs
	}
	if req.TotalPEs != 0 {
		cfg.TotalPEs = req.TotalPEs
	}
	if req.WeightDuplication {
		cfg.WeightDuplication = true
	}
	if req.Solver != "" {
		cfg.Solver = req.Solver
	}
	if req.SolverBudget != 0 {
		cfg.SolverBudget = req.SolverBudget
	}
	if req.SolverSeed != 0 {
		cfg.SolverSeed = req.SolverSeed
	}
	// A scored solver optimizes the makespan of a concrete scheduling
	// mode; absent an explicit choice, optimize for the mode the request
	// will actually be scheduled under.
	if cfg.WeightDuplication && cfg.SolverMode == "" && mapping.IsScored(cfg.Solver) {
		cfg.SolverMode = req.Mode.Name()
	}
	return cfg
}

// normalizeCfg canonicalizes a Config for cache keying and returns the
// ExtraPEs the caller must re-apply as a derived view (withExtraPEs).
// Configs are defaulted first so that e.g. Config{} and
// Config{PERows: 256, PECols: 256} share an entry, and
// compile-irrelevant fields are normalized away:
//
//   - Without weight duplication the solver never runs, so all solver
//     names map to the same no-duplication compilation — a solver
//     comparison sweep shares one baseline.
//   - Without weight duplication (and without TotalPEs), extra PEs sit
//     idle: every Stage I-III artifact and every timeline is identical
//     for any ExtraPEs >= 0, so the whole x sweep folds onto the x = 0
//     compilation and is served through F-adjusted views. NoC routing
//     disables this fold — the mesh shape (and with it every hop
//     distance on dependency edges) derives from the PE count.
func normalizeCfg(cfg Config) (Config, int) {
	cfg = cfg.withDefaults()
	// Scored-solver knobs influence compilation only when a scored
	// solver actually runs; otherwise they are cleared so e.g. a dp
	// request with a stray seed shares the plain dp entry. When they do
	// apply, the scoring mode is canonicalized to its wire name (default
	// "xinf") so aliases share an entry.
	if cfg.WeightDuplication && mapping.IsScored(cfg.Solver) {
		// The builtin search reads budget 0 as its default, so the
		// explicit default shares that entry. A registered scored solver
		// may read 0 differently and keeps its own key.
		if cfg.Solver == "search" && cfg.SolverBudget == mapping.DefaultSearchBudget {
			cfg.SolverBudget = 0
		}
		if cfg.SolverMode == "" {
			cfg.SolverMode = ModeCrossLayer.wireName()
		} else if m, err := ParseMode(cfg.SolverMode); err == nil {
			cfg.SolverMode = m.wireName()
		}
	} else {
		cfg.SolverBudget, cfg.SolverSeed, cfg.SolverMode = 0, 0, ""
	}
	if !cfg.WeightDuplication {
		cfg.Solver = "none"
		if cfg.TotalPEs == 0 && cfg.ExtraPEs > 0 && cfg.NoCCyclesPerHop <= 0 {
			x := cfg.ExtraPEs
			cfg.ExtraPEs = 0
			return cfg, x
		}
	}
	return cfg, 0
}

// cacheKey is the compile-cache key of model under a normalized config:
// the model name and every Config field, grouped by type, strings
// quoted. It is appended by hand rather than marshalled through
// encoding/json: it sits on every request's path, and the hand-written
// form needs no reflection. Non-finite floats are rejected, as the
// JSON encoding did.
func cacheKey(model string, norm Config) (string, error) {
	b := make([]byte, 0, 160)
	b = append(b, model...)
	b = append(b, 0)
	for _, v := range [...]int64{int64(norm.PERows), int64(norm.PECols)} {
		b = strconv.AppendInt(append(b, ','), v, 10)
	}
	for _, f := range [...]float64{norm.TMVMNanos, norm.NoCCyclesPerHop, norm.GPEUCyclesPerKElem,
		norm.EnergyPerMVMNanoJ, norm.EnergyPerWriteNanoJ} {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return "", fmt.Errorf("clsacim: encoding cache key: unsupported value %v", f)
		}
		b = strconv.AppendFloat(append(b, ','), f, 'g', -1, 64)
	}
	for _, v := range [...]int64{int64(norm.ExtraPEs), int64(norm.TotalPEs), int64(norm.SolverBudget),
		int64(norm.TargetSets), int64(norm.WeightBits), int64(norm.PEsPerTile),
		norm.WriteCyclesPerCrossbar, int64(norm.WriteParallelism)} {
		b = strconv.AppendInt(append(b, ','), v, 10)
	}
	b = strconv.AppendUint(append(b, ','), norm.SolverSeed, 10)
	b = strconv.AppendBool(append(b, ','), norm.WeightDuplication)
	b = strconv.AppendBool(append(b, ','), norm.WeightVirtualization)
	b = strconv.AppendQuote(append(b, ','), norm.Solver)
	b = strconv.AppendQuote(append(b, ','), norm.SolverMode)
	return string(b), nil
}

// compile returns the cached compilation of (m, cfg), compiling at most
// once per key (single-flight).
func (e *Engine) compile(ctx context.Context, m *Model, cfg Config) (*Compiled, error) {
	c, _, err := e.compileCounted(ctx, m, cfg)
	return c, err
}

// compileCounted is compile exposing whether the request was served
// from the cache (hit = true includes waiting on an in-flight
// compilation) — the input of the partial-hit accounting. Waiters honor
// ctx; the compilation itself runs to completion once started so late
// arrivals can still use it. With a cache limit set, finishing a
// compilation may evict the least-recently-used finished entries beyond
// the bound.
//
// Keys are normalized (normalizeCfg): a no-duplication ExtraPEs request
// compiles the x = 0 base once and returns a derived F-view of it.
func (e *Engine) compileCounted(ctx context.Context, m *Model, cfg Config) (*Compiled, bool, error) {
	if err := ctx.Err(); err != nil {
		return nil, false, err
	}
	norm, extra := normalizeCfg(cfg)
	key, err := cacheKey(m.Name, norm)
	if err != nil {
		return nil, false, err
	}
	view := func(c *Compiled) *Compiled {
		if extra > 0 && c != nil {
			return c.withExtraPEs(extra)
		}
		return c
	}
	e.mu.Lock()
	ent, ok := e.cache[key]
	if ok {
		e.hits.Add(1)
		if ent.elem != nil {
			e.lru.MoveToFront(ent.elem)
		}
		e.mu.Unlock()
		select {
		case <-ent.ready:
		case <-ctx.Done():
			return nil, true, ctx.Err()
		}
		return view(ent.c), true, ent.err
	}
	e.misses.Add(1)
	ent = &compileEntry{key: key, ready: make(chan struct{})}
	ent.elem = e.lru.PushFront(ent)
	e.cache[key] = ent
	e.evictLocked()
	e.mu.Unlock()

	e.compiles.Add(1)
	// Close ready even if Compile panics (e.g. inside a custom solver):
	// a never-closed entry would block every later request for this key
	// forever once a recover() higher up keeps the process alive.
	defer func() {
		if ent.err == nil && ent.c == nil {
			ent.err = fmt.Errorf("clsacim: compiling %q panicked", m.Name)
		}
		e.mu.Lock()
		ent.done = true
		// The in-flight guard may have held the cache over its bound
		// while this key compiled; re-run the scan now that the entry
		// is evictable.
		e.evictLocked()
		e.mu.Unlock()
		close(ent.ready)
	}()
	ent.c, ent.err = Compile(m, norm)
	return view(ent.c), false, ent.err
}

// evictLocked drops least-recently-used finished entries until the
// cache respects the configured bound. In-flight compilations are
// skipped: evicting one would detach its waiters from the single-flight
// slot and recompile the same key concurrently. Callers hold e.mu.
func (e *Engine) evictLocked() {
	if e.cacheLimit <= 0 {
		return
	}
	for el := e.lru.Back(); el != nil && len(e.cache) > e.cacheLimit; {
		ent := el.Value.(*compileEntry)
		prev := el.Prev()
		if ent.done {
			delete(e.cache, ent.key)
			e.lru.Remove(el)
			ent.elem = nil
			e.evictions.Add(1)
		}
		el = prev
	}
}

// requestCtx derives the context a request runs under: ctx bounded by
// the request's own deadline when TimeoutMillis is set. Values too
// large to represent as a time.Duration are clamped to the maximum
// rather than overflowing into an already-expired deadline. The
// returned cancel func must always be called.
func requestCtx(ctx context.Context, req Request) (context.Context, context.CancelFunc) {
	if req.TimeoutMillis > 0 {
		ms := req.TimeoutMillis
		if ms > math.MaxInt64/int64(time.Millisecond) {
			ms = math.MaxInt64 / int64(time.Millisecond)
		}
		return context.WithTimeout(ctx, time.Duration(ms)*time.Millisecond)
	}
	return ctx, func() {}
}

// deadlineErr reports whether ctx is done or its deadline has already
// passed. The wall-clock comparison matters: context timers fire
// asynchronously and can lag a blown deadline by milliseconds, and the
// degraded-mode decision ("is there time left for the full pipeline?")
// must not depend on timer delivery.
func deadlineErr(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if dl, ok := ctx.Deadline(); ok && !time.Now().Before(dl) {
		return context.DeadlineExceeded
	}
	return nil
}

// compileRequest resolves the request's model and compiles it (cached)
// under the request's effective configuration and deadline. hit reports
// whether the compilation came from the cache. The returned context
// carries the deadline for the caller's later steps; cancel must always
// be called.
func (e *Engine) compileRequest(ctx context.Context, req Request) (*Compiled, bool, context.Context, context.CancelFunc, error) {
	m, err := lookupModel(req.Model)
	if err != nil {
		return nil, false, ctx, func() {}, err
	}
	ctx, cancel := requestCtx(ctx, req)
	c, hit, err := e.compileCounted(ctx, m, e.effective(req))
	return c, hit, ctx, cancel, err
}

// Compile resolves the request's model and returns its (cached)
// compilation under the request's effective configuration.
func (e *Engine) Compile(ctx context.Context, req Request) (*Compiled, error) {
	c, _, ctx, cancel, err := e.compileRequest(ctx, req)
	defer cancel()
	if err != nil {
		return nil, err
	}
	// A compilation that ran past the request deadline still lands in
	// the cache for later requests, but this caller asked for a bound
	// and must see the expiry — same contract as Schedule/Evaluate.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return c, nil
}

// notePartial records a compile-cache hit that still has to run Stage
// III/IV because the requested canonical mode has no cached timeline
// yet. Callers invoke it (on hit) before scheduling; the check races
// benignly with concurrent builders of the same timeline — a request
// that loses that race did wait on scheduling work, which is exactly
// what the counter measures.
func (e *Engine) notePartial(comp *Compiled, mode ScheduleMode) {
	if !comp.hasTimeline(mode) {
		e.partialHits.Add(1)
	}
}

// Schedule compiles (cached) and schedules the request, returning the
// paper's per-configuration report.
func (e *Engine) Schedule(ctx context.Context, req Request) (*Report, error) {
	comp, hit, ctx, cancel, err := e.compileRequest(ctx, req)
	defer cancel()
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if hit {
		e.notePartial(comp, req.Mode)
	}
	rep, err := comp.Schedule(req.Mode)
	if err != nil {
		return nil, err
	}
	if err := e.checkReport(rep); err != nil {
		return nil, err
	}
	return rep, nil
}

// checkReport runs the engine-independent invariant checker on a
// scheduled report when WithValidation is on. Timelines are immutable
// once cached on the Compiled, so each (compilation, canonical mode)
// pair is validated at most once even across batch sweeps that rescore
// the same baseline per point.
func (e *Engine) checkReport(rep *Report) error {
	if !e.validate {
		return nil
	}
	if rep.sched == nil {
		// Degraded reports carry no timeline; the coarse event loop is
		// covered by the simulator's own equivalence tests.
		return nil
	}
	comp := rep.comp
	key := comp.normalizeMode(rep.Mode).wireName()
	comp.sched.mu.Lock()
	done := comp.sched.checked[key]
	comp.sched.mu.Unlock()
	if done {
		return nil
	}
	tl := rep.sched
	opt := comp.schedOptions(rep.Mode)
	if err := check.Timeline(comp.mapped, comp.depGraph, tl.Policy, tl, check.Options{EdgeCost: opt.EdgeCost}); err != nil {
		return fmt.Errorf("clsacim: %q %s timeline failed validation: %w", rep.Model, rep.Mode, err)
	}
	comp.sched.mu.Lock()
	comp.sched.checked[key] = true
	comp.sched.mu.Unlock()
	return nil
}

// Evaluate compiles and schedules the request and measures it against
// the paper's reference (layer-by-layer, no duplication, F = PEmin).
// Both compilations go through the Engine cache, so a sweep over
// mapping points compiles the shared baseline once.
func (e *Engine) Evaluate(ctx context.Context, req Request) (*Evaluation, error) {
	m, err := lookupModel(req.Model)
	if err != nil {
		return nil, err
	}
	return e.evaluate(ctx, m, req)
}

// EvaluateModel is Evaluate for a *Model held directly (e.g. built with
// Builder but not registered). The compile cache is keyed by the
// model's Name, so distinct models sharing an Engine must carry
// distinct names.
func (e *Engine) EvaluateModel(ctx context.Context, m *Model, req Request) (*Evaluation, error) {
	if m == nil {
		return nil, fmt.Errorf("clsacim: nil model")
	}
	return e.evaluate(ctx, m, req)
}

// baselineCfg derives the paper's reference configuration from an
// effective request config: layer-by-layer on F = PEmin without
// duplication.
func baselineCfg(cfg Config) Config {
	cfg.ExtraPEs = 0
	cfg.TotalPEs = 0
	cfg.WeightDuplication = false
	return cfg
}

func (e *Engine) evaluate(ctx context.Context, m *Model, req Request) (*Evaluation, error) {
	degradable := e.degradable(req)
	rctx, cancel := requestCtx(ctx, req)
	defer cancel()
	// A degradable request compiles under the caller's context alone:
	// its own deadline (TimeoutMillis) must not abort the compilation
	// it intends to salvage a coarse result from. The caller's own
	// deadline or cancellation stays hard either way.
	cctx := rctx
	if degradable {
		cctx = ctx
	}
	cfg := e.effective(req)
	baseComp, baseHit, err := e.compileCounted(cctx, m, baselineCfg(cfg))
	if err != nil {
		return nil, err
	}
	comp, hit, err := e.compileCounted(cctx, m, cfg)
	if err != nil {
		return nil, err
	}
	if err := deadlineErr(rctx); err != nil {
		// The deadline was too tight for the full pipeline; the coarse
		// fast path can still produce exact scalar metrics from the
		// finished compilations.
		if degradable && errors.Is(err, context.DeadlineExceeded) {
			return e.evaluateDegraded(baseComp, comp, req.Mode)
		}
		return nil, err
	}
	if baseHit {
		e.notePartial(baseComp, ModeLayerByLayer)
	}
	baseline, err := baseComp.Schedule(ModeLayerByLayer)
	if err != nil {
		return nil, err
	}
	if err := e.checkReport(baseline); err != nil {
		return nil, err
	}
	if hit {
		e.notePartial(comp, req.Mode)
	}
	result, err := comp.Schedule(req.Mode)
	if err != nil {
		return nil, err
	}
	if err := e.checkReport(result); err != nil {
		return nil, err
	}
	e.evaluations.Add(1)
	return newEvaluation(baseline, result, comp), nil
}

// degradable reports whether a request may fall back to the coarse
// fast path on deadline expiry: its own opt-in or the engine-wide
// WithDegradation.
func (e *Engine) degradable(req Request) bool {
	return req.AllowDegraded || e.degraded
}

// evaluateDegraded serves an evaluation through the coarse simulator:
// exact scalar metrics (makespan, latency, utilization, speedup) with
// no materialized timeline. Both reports and the Evaluation are marked
// Degraded. Virtualized compilations cannot degrade — the coarse loop
// does not model crossbar reprogramming — and fail with the deadline
// instead.
func (e *Engine) evaluateDegraded(baseComp, comp *Compiled, mode ScheduleMode) (*Evaluation, error) {
	if baseComp.virtual != nil || comp.virtual != nil {
		return nil, context.DeadlineExceeded
	}
	baseline, err := baseComp.ScheduleCoarse(ModeLayerByLayer)
	if err != nil {
		return nil, err
	}
	result, err := comp.ScheduleCoarse(mode)
	if err != nil {
		return nil, err
	}
	e.evaluations.Add(1)
	e.degradedEvals.Add(1)
	ev := newEvaluation(baseline, result, comp)
	ev.Degraded = true
	return ev, nil
}

// runPool runs fn(0..n-1) on the Engine's bounded worker pool.
func (e *Engine) runPool(n int, fn func(int)) {
	workers := e.workers
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range idx {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
}

// EvaluateBatch evaluates requests concurrently on a worker pool
// bounded by WithWorkers (default GOMAXPROCS). Results are positionally
// aligned with reqs; per-request failures land in BatchResult.Err
// rather than aborting the batch. The returned error is non-nil only
// when ctx was cancelled, in which case unprocessed requests carry the
// context error.
//
// The batch is sweep-structured: requests are first grouped by their
// compile keys (model, architecture, mapping, granularity — baseline
// and variant alike), each distinct key compiles exactly once on the
// worker pool, and only then does the per-request scheduling work fan
// out. A sweep of N points over K distinct configurations probes the
// compile cache K times instead of 2N; cache accounting stays exactly
// as if the requests had run serially (each deduplicated reference
// counts as the hit it would have been).
func (e *Engine) EvaluateBatch(ctx context.Context, reqs []Request) ([]BatchResult, error) {
	out := make([]BatchResult, len(reqs))
	if len(reqs) == 0 {
		return out, nil
	}
	// Phase 1: resolve models, normalize configs, deduplicate compile
	// jobs. A job's probe (its first referencing request) carries the
	// hit/miss accounting, but the compile itself runs under the batch
	// context: per-request deadlines apply only to that request's own
	// result slot, so one short-timeout request can never poison
	// co-batched requests sharing its compile key.
	type compileJob struct {
		m    *Model
		cfg  Config // normalized (ExtraPEs folded out)
		comp *Compiled
		hit  bool
		err  error
	}
	type reqPlan struct {
		err        error
		base, vari *compileJob
		baseFirst  bool // this request's probe compiles the baseline key
		variFirst  bool
		variX      int // ExtraPEs to re-apply as an F-view
	}
	jobs := make(map[string]*compileJob)
	var order []*compileJob
	plan := make([]reqPlan, len(reqs))
	// Per-request deadline clocks start now, before the compile fan-out,
	// so a request's TimeoutMillis covers its share of waiting on shared
	// compilations (as it would when calling Evaluate directly).
	rctxs := make([]context.Context, len(reqs))
	for i, req := range reqs {
		var cancel context.CancelFunc
		rctxs[i], cancel = requestCtx(ctx, req)
		defer cancel()
		m, err := lookupModel(req.Model)
		if err != nil {
			plan[i].err = err
			continue
		}
		cfg := e.effective(req)
		for slot, c := range [2]Config{baselineCfg(cfg), cfg} {
			norm, extra := normalizeCfg(c)
			key, err := cacheKey(m.Name, norm)
			if err != nil {
				plan[i].err = err
				break
			}
			j, ok := jobs[key]
			if !ok {
				j = &compileJob{m: m, cfg: norm}
				jobs[key] = j
				order = append(order, j)
			}
			if slot == 0 {
				plan[i].base, plan[i].baseFirst = j, !ok
			} else {
				plan[i].vari, plan[i].variFirst, plan[i].variX = j, !ok, extra
			}
		}
	}
	// Phase 2: compile each distinct key once, fanned over the pool,
	// under the batch context — a key may serve many requests with
	// different deadlines, so no individual deadline may abort it.
	e.runPool(len(order), func(k int) {
		j := order[k]
		j.comp, j.hit, j.err = e.compileCounted(ctx, j.m, j.cfg)
	})
	// Phase 3: per-request scheduling, fanned over the pool.
	e.runPool(len(reqs), func(i int) {
		out[i].Request = reqs[i]
		p := plan[i]
		if p.err != nil {
			out[i].Err = p.err
			return
		}
		// Every reference beyond a key's compiling probe is a cache hit.
		if !p.baseFirst {
			e.hits.Add(1)
		}
		if !p.variFirst {
			e.hits.Add(1)
		}
		if err := ctx.Err(); err != nil {
			out[i].Err = err
			return
		}
		if p.base.err != nil {
			out[i].Err = p.base.err
			return
		}
		if p.vari.err != nil {
			out[i].Err = p.vari.err
			return
		}
		baseComp := p.base.comp
		comp := p.vari.comp
		if p.variX > 0 {
			comp = comp.withExtraPEs(p.variX)
		}
		if err := deadlineErr(rctxs[i]); err != nil {
			// The shared compilations exist (phase 2 runs under the
			// batch context), so a degradable request whose own deadline
			// expired can still be served coarsely.
			if e.degradable(reqs[i]) && errors.Is(err, context.DeadlineExceeded) {
				out[i].Evaluation, out[i].Err = e.evaluateDegraded(baseComp, comp, reqs[i].Mode)
				return
			}
			out[i].Err = err
			return
		}
		if p.base.hit || !p.baseFirst {
			e.notePartial(baseComp, ModeLayerByLayer)
		}
		if p.vari.hit || !p.variFirst {
			e.notePartial(comp, reqs[i].Mode)
		}
		baseline, err := baseComp.Schedule(ModeLayerByLayer)
		if err != nil {
			out[i].Err = err
			return
		}
		if err := e.checkReport(baseline); err != nil {
			out[i].Err = err
			return
		}
		result, err := comp.Schedule(reqs[i].Mode)
		if err != nil {
			out[i].Err = err
			return
		}
		if err := e.checkReport(result); err != nil {
			out[i].Err = err
			return
		}
		e.evaluations.Add(1)
		out[i].Evaluation = newEvaluation(baseline, result, comp)
	})
	return out, ctx.Err()
}

// newEvaluation assembles the comparison metrics shared by Evaluate and
// Engine.Evaluate.
func newEvaluation(baseline, result *Report, comp *Compiled) *Evaluation {
	x := comp.TotalPEs() - comp.PEmin()
	return &Evaluation{
		Baseline:        baseline,
		Result:          result,
		Speedup:         metrics.Speedup(baseline.MakespanCycles, result.MakespanCycles),
		UtilizationGain: result.Utilization / baseline.Utilization,
		Eq3Speedup:      metrics.Eq3Speedup(result.Utilization, baseline.Utilization, comp.PEmin(), x),
	}
}
