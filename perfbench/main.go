// Command perfbench is the repository benchmark. It runs one workload
// against the clsacim pipeline for a fixed time, checks every op's
// outputs against the committed BENCH_*.json payloads, and prints the
// end-to-end metrics (or, with --trace 1, the per-layer metrics of a
// traced run) as the last line of standard output, in JSON.
//
//	perfbench --workload sweep --seed 1 --seconds 20 --trace 0
//	perfbench --workload search --seed 1 --seconds 20 --trace 1
//	perfbench --workload serve --seed 1 --seconds 20 --repeat 5
//
// Run it from the repository root (or pass --root). See README.md in
// this directory for the workloads, the metrics and the layer table.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// env is what a workload's set-up sees.
type env struct {
	root string
	tr   *tracer // nil when untraced
}

// spec is one workload.
type spec struct {
	name  string
	setup func(context.Context, *env) (workload, error)
	// tail is the latency percentile reported as lat_tail_ms, fixed
	// per workload so that at least ten samples lie beyond it at the
	// benchmark's run length (p99 on serve, as the request-serving
	// tail).
	tail float64
}

var specs = []spec{
	{"sweep", setupSweep, 0.90},
	{"search", setupSearch, 0.90},
	{"serve", setupServe, 0.99},
	{"stream", setupStream, 0.80},
}

func findSpec(name string) (spec, error) {
	var names []string
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
		names = append(names, s.name)
	}
	return spec{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	root     string
	spans    string
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(cli(os.Args[1:], os.Stdout)) }

func cli(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var o options
	var trace, repeat int
	fs.StringVar(&o.workload, "workload", "sweep", "workload: sweep, search, serve, stream")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed (op order and traffic order)")
	fs.IntVar(&o.seconds, "seconds", 20, "length of the timed phase in seconds (whole op cycles)")
	fs.IntVar(&trace, "trace", 0, "1 = traced run reporting the per-layer metrics")
	fs.StringVar(&o.root, "root", ".", "repository root holding the BENCH_*.json references")
	fs.StringVar(&o.spans, "spans", "", "span dump of a traced run (default .bench_build/perfbench-spans-<workload>-<seed>.jsonl under the root)")
	fs.IntVar(&repeat, "repeat", 0, "run the benchmark this many times with seeds seed, seed+1, ... and print each metric's median, quartiles and spread")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintf(os.Stderr, "perfbench: --trace must be 0 or 1, have %d\n", trace)
		return 2
	}
	o.trace = trace == 1
	if o.seconds < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive")
		return 2
	}
	if o.spans == "" {
		o.spans = filepath.Join(o.root, ".bench_build", fmt.Sprintf("perfbench-spans-%s-%d.jsonl", o.workload, o.seed))
	}
	if repeat > 0 {
		return repeatRuns(o, repeat, stdout)
	}
	sp, err := findSpec(o.workload)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	procs := runtime.NumCPU()
	if procs > 2 {
		procs = 2
	}
	runtime.GOMAXPROCS(procs)
	fmt.Fprintf(stdout, "perfbench: workload=%s seed=%d seconds=%d trace=%d gomaxprocs=%d nproc=%d\n",
		o.workload, o.seed, o.seconds, trace, procs, runtime.NumCPU())
	res, err := measure(context.Background(), sp, o, stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// tracePairs is the number of untraced/traced phase pairs of a traced
// run.
const tracePairs = 4

// setupRepetitions is how many times a run sets its workload up;
// setup_s is the median, which keeps one slow set-up (a cold page
// cache, a collector cycle) from moving it.
const setupRepetitions = 5

// measure sets the workload up setupRepetitions times, keeps the last
// set-up, and runs the timed phase: untraced for the end-to-end metrics,
// or alternating untraced and traced phases for the per-layer metrics.
func measure(ctx context.Context, sp spec, o options, stdout io.Writer) (result, error) {
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	var w workload
	var setups []float64
	for i := 0; i < setupRepetitions; i++ {
		if w != nil {
			if err := w.close(); err != nil {
				return result{}, err
			}
		}
		settleHeap()
		t0 := time.Now()
		var err error
		w, err = sp.setup(ctx, &env{root: o.root, tr: tr})
		if err != nil {
			return result{}, fmt.Errorf("%s set-up: %w", sp.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer w.close()
	fmt.Fprintf(stdout, "set-up: %d repetitions, seconds %v, cycle of %d ops, %d callers\n",
		len(setups), setups, w.cycle(), w.callers())

	d := time.Duration(o.seconds) * time.Second
	if !o.trace {
		st0 := w.engineStats()
		ph := runPhase(ctx, w, o.seed, d, 0, nil)
		st := statsDelta(st0, w.engineStats())
		live := liveHeapBytes()
		runtime.KeepAlive(w)
		cycles := float64(len(ph.cycleRates()))
		fmt.Fprintf(stdout, "engine: %.2f compiles, %.2f cache hits, %.2f evictions per cycle over %.0f cycles\n",
			float64(st.Compiles)/cycles, float64(st.CacheHits)/cycles, float64(st.Evictions)/cycles, cycles)
		return endToEnd(sp, ph, median(setups), live, w.geomean(), stdout), nil
	}

	// Untraced and traced phases alternate, so a drift in machine speed
	// during the run does not masquerade as tracing overhead.
	var a, b phaseResult
	var totals engineTotals
	for i := 0; i < tracePairs; i++ {
		st0 := w.engineStats()
		a.add(runPhase(ctx, w, o.seed, d/(2*tracePairs), a.attempted+b.attempted, nil))
		totals.add(statsDelta(st0, w.engineStats()))
		b.add(runPhase(ctx, w, o.seed, d/(2*tracePairs), a.attempted+b.attempted, tr))
	}
	if b.ok == 0 || a.ok == 0 {
		return result{}, errors.New("traced run completed no verified op")
	}
	st := totals.get()
	ops := float64(a.attempted)
	tr.add("engine.compiles", float64(st.Compiles)/ops)
	tr.add("engine.evictions", float64(st.Evictions)/ops)
	if n := st.CacheHits + st.CacheMisses; n > 0 {
		tr.add("engine.cache_hit_ratio", float64(st.CacheHits)/float64(n))
	}
	overhead := (a.opsPerSec()/b.opsPerSec() - 1) * 100
	tr.add("trace.overhead_pct", overhead)
	if err := tr.writeSpans(o.spans); err != nil {
		return result{}, fmt.Errorf("writing spans: %w", err)
	}
	rep := tr.layerReport(b.ok)
	printLayerTable(stdout, sp.name, b.ok, rep)
	fmt.Fprintf(stdout, "tracing overhead: untraced %.3f ops/s, traced %.3f ops/s (%+.1f%%); spans in %s\n",
		a.opsPerSec(), b.opsPerSec(), overhead, o.spans)
	failed := a.attempted - a.ok + b.attempted - b.ok
	return result{
		Correct:   failed == 0,
		Attempted: a.attempted + b.attempted,
		Failed:    failed,
		Metrics:   rep,
	}, nil
}

// endToEnd assembles the end-to-end metrics of an untraced run.
func endToEnd(sp spec, ph phaseResult, setup float64, live uint64, gm float64, stdout io.Writer) result {
	lat := ph.latencies()
	tail, beyond := percentile(lat, sp.tail)
	rates := ph.cycleRates()
	q1, rate, q3 := quartiles(rates)
	fmt.Fprintf(stdout, "timed phase: %d ops in %.3f s, %d verified; %d cycles of %d ops, cycle rate quartiles %.4g %.4g %.4g ops/s\n",
		ph.attempted, ph.wall.Seconds(), ph.ok, len(rates), ph.n, q1, rate, q3)
	fmt.Fprintf(stdout, "lat_tail_ms is p%g over %d samples, %d beyond it\n", sp.tail*100, len(lat), beyond)
	if beyond < 10 {
		fmt.Fprintf(stdout, "warning: fewer than 10 samples beyond p%g; run longer for a supported tail\n", sp.tail*100)
	}
	attempted := ph.attempted
	if attempted == 0 {
		attempted = 1
	}
	m := map[string]metric{
		"setup_s":                 {setup, "s"},
		"ops_per_s":               {rate, "1/s"},
		"lat_p50_ms":              {ph.keyMedianMs(), "ms"},
		"lat_tail_ms":             {ms(tail), "ms"},
		"ok_ratio":                {float64(ph.ok) / float64(attempted), "ratio"},
		"alloc_mb_per_op":         {float64(ph.allocBytes) / float64(attempted) / (1 << 20), "MB"},
		"retained_mb":             {float64(live) / (1 << 20), "MB"},
		"makespan_geomean_cycles": {gm, "cycles"},
	}
	for _, name := range endToEndOrder {
		fmt.Fprintf(stdout, "  %-24s %16.4f %s\n", name, m[name].Value, m[name].Unit)
	}
	return result{
		Correct:   ph.ok == ph.attempted && ph.attempted > 0,
		Attempted: attempted,
		Failed:    ph.attempted - ph.ok,
		Metrics:   m,
	}
}

// endToEndOrder lists the end-to-end metrics as BENCHMARK.json does.
var endToEndOrder = []string{
	"setup_s", "ops_per_s", "lat_p50_ms", "lat_tail_ms", "ok_ratio",
	"alloc_mb_per_op", "retained_mb", "makespan_geomean_cycles",
}
