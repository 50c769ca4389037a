package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"clsacim"
)

// workload is one benchmark workload after set-up: a fixed cycle of
// distinct ops, each verified against the committed references.
type workload interface {
	// cycle is the number of distinct ops. The timed phase issues them
	// in seeded permutations of whole cycles, so every run executes the
	// same op mix whatever the seed.
	cycle() int
	// callers is the number of closed-loop callers issuing ops.
	callers() int
	// run performs op k of the cycle and returns its latency. The
	// latency covers the op alone; the reference comparison runs after
	// the clock stops. A nil tracer runs the op untraced; a non-nil one
	// records spans around every call into a layer.
	run(ctx context.Context, k, opID int, tr *tracer) (time.Duration, error)
	// geomean is the geometric mean of the simulated makespans over the
	// workload's fixed reference key set, each key once, as produced by
	// the set-up pass.
	geomean() float64
	// engineStats sums Engine.Stats over the engines the workload used.
	engineStats() clsacim.Stats
	close() error
}

// engineTotals sums Engine.Stats over the engines a workload used.
type engineTotals struct {
	mu sync.Mutex
	s  clsacim.Stats
}

func (t *engineTotals) add(s clsacim.Stats) {
	t.mu.Lock()
	t.s.Compiles += s.Compiles
	t.s.CacheHits += s.CacheHits
	t.s.CacheMisses += s.CacheMisses
	t.s.Evictions += s.Evictions
	t.mu.Unlock()
}

// statsDelta is b − a over the counters engineTotals keeps.
func statsDelta(a, b clsacim.Stats) clsacim.Stats {
	return clsacim.Stats{
		Compiles:    b.Compiles - a.Compiles,
		CacheHits:   b.CacheHits - a.CacheHits,
		CacheMisses: b.CacheMisses - a.CacheMisses,
		Evictions:   b.Evictions - a.Evictions,
	}
}

func (t *engineTotals) get() clsacim.Stats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.s
}

// orderGen hands out op indices: a concatenation of seeded
// permutations of the cycle. After the deadline it finishes the current
// cycle and then stops, so every phase covers whole cycles.
type orderGen struct {
	mu       sync.Mutex
	rng      *rand.Rand
	n        int
	perm     []int
	next     int
	stopAt   int
	deadline time.Time
}

func newOrderGen(seed int64, n int, deadline time.Time) *orderGen {
	return &orderGen{rng: rand.New(rand.NewSource(seed)), n: n, stopAt: -1, deadline: deadline}
}

// claim returns the next op's sequence number and cycle index, or
// ok = false once the phase is over.
func (g *orderGen) claim() (seq, k int, ok bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.stopAt < 0 && g.next > 0 && !time.Now().Before(g.deadline) {
		g.stopAt = (g.next + g.n - 1) / g.n * g.n
	}
	if g.stopAt >= 0 && g.next >= g.stopAt {
		return 0, 0, false
	}
	if g.next%g.n == 0 {
		g.perm = g.rng.Perm(g.n)
	}
	seq = g.next
	g.next++
	return seq, g.perm[seq%g.n], true
}

// opRecord is one op of a timed phase.
type opRecord struct {
	seq, k int           // sequence number in the phase, cycle index
	start  time.Duration // since the phase started
	lat    time.Duration
	ok     bool
}

// phaseResult is what one timed phase measured.
type phaseResult struct {
	attempted, ok int
	n             int        // ops per cycle
	ops           []opRecord // in the order they finished
	wall          time.Duration
	allocBytes    uint64
}

func (p phaseResult) opsPerSec() float64 { return float64(p.ok) / p.wall.Seconds() }

// add accumulates another phase's counts and time (not its ops).
func (p *phaseResult) add(q phaseResult) {
	p.attempted += q.attempted
	p.ok += q.ok
	p.wall += q.wall
	p.allocBytes += q.allocBytes
}

// latencies returns the latencies of the verified ops, sorted.
func (p phaseResult) latencies() []time.Duration {
	var lat []time.Duration
	for _, o := range p.ops {
		if o.ok {
			lat = append(lat, o.lat)
		}
	}
	sortDurations(lat)
	return lat
}

// cycleRates returns the verified ops per second of each whole cycle of
// the phase. A cycle lasts from the start of its first op to the start
// of the next cycle's first op (the end of the phase for the last one),
// so the durations add up to the phase's wall time. Their median is
// ops_per_s: a burst of host contention shorter than half the run slows
// a minority of cycles and leaves the median where it was.
func (p phaseResult) cycleRates() []float64 {
	if p.n == 0 || len(p.ops) == 0 {
		return nil
	}
	cycles := (len(p.ops) + p.n - 1) / p.n
	starts := make([]time.Duration, cycles+1)
	ok := make([]int, cycles)
	for _, o := range p.ops {
		c := o.seq / p.n
		if o.seq%p.n == 0 {
			starts[c] = o.start
		}
		if o.ok {
			ok[c]++
		}
	}
	starts[cycles] = p.wall
	rates := make([]float64, cycles)
	for c := range rates {
		rates[c] = float64(ok[c]) / (starts[c+1] - starts[c]).Seconds()
	}
	return rates
}

// keyMedianMs is the median over the cycle's ops of each op's median
// latency across cycles, in ms. Every op of the cycle counts once, and
// each one's own median ignores the cycles a burst of host contention
// slowed.
func (p phaseResult) keyMedianMs() float64 {
	byKey := make(map[int][]float64)
	for _, o := range p.ops {
		if o.ok {
			byKey[o.k] = append(byKey[o.k], ms(o.lat))
		}
	}
	meds := make([]float64, 0, len(byKey))
	for _, v := range byKey {
		meds = append(meds, median(v))
	}
	return median(meds)
}

// maxReportedErrors caps the per-op failures echoed to stderr.
const maxReportedErrors = 5

// runPhase runs ops of w for about d (whole cycles) with w.callers()
// closed-loop callers and returns the measurements. firstOp numbers the
// ops for span records.
func runPhase(ctx context.Context, w workload, seed int64, d time.Duration, firstOp int, tr *tracer) phaseResult {
	settleHeap()
	alloc0 := heapAllocBytes()
	start := time.Now()
	gen := newOrderGen(seed, w.cycle(), start.Add(d))
	var (
		mu     sync.Mutex
		res    = phaseResult{n: w.cycle()}
		errs   int
		wg     sync.WaitGroup
		caller = func() {
			defer wg.Done()
			for {
				seq, k, ok := gen.claim()
				if !ok {
					return
				}
				t0 := time.Since(start)
				lat, err := w.run(ctx, k, firstOp+seq, tr)
				mu.Lock()
				res.attempted++
				res.ops = append(res.ops, opRecord{seq: seq, k: k, start: t0, lat: lat, ok: err == nil})
				if err == nil {
					res.ok++
				} else if errs++; errs <= maxReportedErrors {
					fmt.Fprintf(os.Stderr, "perfbench: op %d (cycle index %d) failed: %v\n", firstOp+seq, k, err)
				}
				mu.Unlock()
			}
		}
	)
	n := w.callers()
	wg.Add(n)
	for i := 0; i < n; i++ {
		go caller()
	}
	wg.Wait()
	res.wall = time.Since(start)
	res.allocBytes = heapAllocBytes() - alloc0
	return res
}

// settleHeap runs the collector to completion twice, so garbage from
// set-up neither inflates nor is charged to the timed phase.
func settleHeap() {
	runtime.GC()
	runtime.GC()
}

func readUint64(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		panic("perfbench: runtime metric " + name + " unavailable")
	}
	return s[0].Value.Uint64()
}

// heapAllocBytes is the cumulative heap allocation of the process.
func heapAllocBytes() uint64 { return readUint64("/gc/heap/allocs:bytes") }

// liveHeapBytes is the live heap after a forced collection.
func liveHeapBytes() uint64 {
	settleHeap()
	return readUint64("/memory/classes/heap/objects:bytes")
}

// percentile is the nearest-rank p-quantile of sorted samples and the
// number of samples above its rank.
func percentile(sorted []time.Duration, p float64) (time.Duration, int) {
	if len(sorted) == 0 {
		return 0, 0
	}
	rank := int(math.Ceil(p * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1], len(sorted) - rank
}

func sortDurations(d []time.Duration) {
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// geomean is the geometric mean of positive values, accumulated in
// sorted order so the result does not depend on how the caller
// collected them.
func geomean(vals []int64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]int64(nil), vals...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	var sum float64
	for _, v := range s {
		sum += math.Log(float64(v))
	}
	return math.Exp(sum / float64(len(s)))
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
