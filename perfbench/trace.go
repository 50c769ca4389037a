package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from outside the
// program around the layer's public entry point.
type span struct {
	Name   string `json:"name"`
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"` // -1 for a root span
	Op     int    `json:"op"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
}

// tracer keeps spans and per-layer counters in memory; they are written
// out once the run ends. All methods are safe for concurrent use, and a
// nil *tracer records nothing, so one code path serves traced and
// untraced runs.
type tracer struct {
	t0     time.Time
	mu     sync.Mutex
	spans  []span
	counts map[string]float64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), counts: make(map[string]float64)}
}

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(name string, op int, parent int32) int32 {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Op: op, Start: now, End: -1})
	t.mu.Unlock()
	return id
}

// end closes span id.
func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// add accumulates a per-layer counter.
func (t *tracer) add(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counts[name] += v
	t.mu.Unlock()
}

// dur returns the duration of a closed span.
func (t *tracer) dur(id int32) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.spans[id]
	return time.Duration(s.End - s.Start)
}

// layerTimes aggregates closed spans by name: inclusive time, self time
// (duration minus the part covered by child spans) and call count.
type layerTime struct {
	incl, self time.Duration
	calls      int
}

func (t *tracer) layerTimes() map[string]layerTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 && s.End >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string]layerTime)
	for i, s := range t.spans {
		if s.End < 0 {
			continue
		}
		lt := out[s.Name]
		d := s.End - s.Start
		lt.incl += time.Duration(d)
		lt.self += time.Duration(d - child[i])
		lt.calls++
		out[s.Name] = lt
	}
	return out
}

// writeSpans dumps every span as one JSON object per line.
func (t *tracer) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// layerMetric names a per-layer metric of the traced run.
type layerMetric struct {
	name, unit string
	// value derives the metric from the span aggregates, counters and
	// the traced op count. Layers that do not run on a workload read 0.
	value func(lt map[string]layerTime, c map[string]float64, ops float64) float64
}

// selfMS is a layer's self time per op.
func selfMS(span string) func(map[string]layerTime, map[string]float64, float64) float64 {
	return func(lt map[string]layerTime, _ map[string]float64, ops float64) float64 {
		return ms(lt[span].self) / ops
	}
}

// inclMS is a span's inclusive time per op.
func inclMS(span string) func(map[string]layerTime, map[string]float64, float64) float64 {
	return func(lt map[string]layerTime, _ map[string]float64, ops float64) float64 {
		return ms(lt[span].incl) / ops
	}
}

// callsPerOp is a span's call count per op.
func callsPerOp(span string) func(map[string]layerTime, map[string]float64, float64) float64 {
	return func(lt map[string]layerTime, _ map[string]float64, ops float64) float64 {
		return float64(lt[span].calls) / ops
	}
}

// countPerOp is a counter per op, scaled.
func countPerOp(counter string, scale float64) func(map[string]layerTime, map[string]float64, float64) float64 {
	return func(_ map[string]layerTime, c map[string]float64, ops float64) float64 {
		return c[counter] * scale / ops
	}
}

// counter is a counter taken as is.
func counter(name string) func(map[string]layerTime, map[string]float64, float64) float64 {
	return func(_ map[string]layerTime, c map[string]float64, _ float64) float64 { return c[name] }
}

// layerMetrics are the per-layer metrics of the traced run, in the
// order BENCHMARK.json lists them. Times are per op of the workload
// unless the name says otherwise.
var layerMetrics = []layerMetric{
	{"deps.build_ms", "ms/op", selfMS("deps.Build")},
	{"deps.calls", "count/op", callsPerOp("deps.Build")},
	{"deps.edges", "count/op", countPerOp("deps.edges", 1)},
	{"deps.alloc_mb", "MB/op", countPerOp("deps.alloc_bytes", 1.0/(1<<20))},
	{"sets.determine_ms", "ms/op", selfMS("sets.Determine")},
	{"sets.calls", "count/op", callsPerOp("sets.Determine")},
	{"sets.sets", "count/op", countPerOp("sets.sets", 1)},
	{"mapping.solve_ms", "ms/op", selfMS("mapping.Solve")},
	{"mapping.candidates", "count/op", countPerOp("mapping.candidates", 1)},
	{"mapping.apply_ms", "ms/op", selfMS("mapping.Apply")},
	{"mapping.analyze_ms", "ms/op", selfMS("mapping.Analyze")},
	{"frontend.canonicalize_ms", "ms/op", selfMS("frontend.Canonicalize")},
	{"sim.run_coarse_ms", "ms/op", selfMS("sim.RunCoarse")},
	{"sim.calls", "count/op", callsPerOp("sim.RunCoarse")},
	{"schedule.schedule_ms", "ms/op", selfMS("schedule.Schedule")},
	{"schedule.items", "count/op", countPerOp("schedule.items", 1)},
	{"engine.schedule_ms", "ms/op", inclMS("engine.schedule")},
	{"check.timeline_ms", "ms/op", selfMS("check.Timeline")},
	{"engine.compile_ms", "ms/op", inclMS("engine.compile")},
	{"engine.compiles", "count/op", counter("engine.compiles")},
	{"engine.cache_hit_ratio", "ratio", counter("engine.cache_hit_ratio")},
	{"engine.evictions", "count/op", counter("engine.evictions")},
	{"serve.handler_ms", "ms/op", inclMS("serve.handler")},
	{"serve.transport_ms", "ms/op", func(lt map[string]layerTime, _ map[string]float64, ops float64) float64 {
		return (ms(lt["client.call"].incl) - ms(lt["serve.handler"].incl)) / ops
	}},
	{"serve.resp_kb", "KB/op", countPerOp("serve.resp_bytes", 1.0/1024)},
	{"serve.failed", "count/op", countPerOp("serve.failed", 1)},
	{"importer.import_ms", "ms/call", func(lt map[string]layerTime, _ map[string]float64, _ float64) float64 {
		if n := lt["importer.Import"].calls; n > 0 {
			return ms(lt["importer.Import"].incl) / float64(n)
		}
		return 0
	}},
	{"stream.evaluate_ms", "ms/op", inclMS("stream.EvaluateStream")},
	{"stream.sim_inferences_per_s", "1/s", func(lt map[string]layerTime, c map[string]float64, _ float64) float64 {
		if d := lt["stream.EvaluateStream"].incl; d > 0 {
			return c["stream.inferences"] / d.Seconds()
		}
		return 0
	}},
	{"trace.overhead_pct", "%", counter("trace.overhead_pct")},
}

// layerReport evaluates every per-layer metric over ops traced ops.
func (t *tracer) layerReport(ops int) map[string]metric {
	lt := t.layerTimes()
	t.mu.Lock()
	c := make(map[string]float64, len(t.counts))
	for k, v := range t.counts {
		c[k] = v
	}
	t.mu.Unlock()
	out := make(map[string]metric, len(layerMetrics))
	n := float64(ops)
	if n < 1 {
		n = 1
	}
	for _, m := range layerMetrics {
		out[m.name] = metric{Value: m.value(lt, c, n), Unit: m.unit}
	}
	return out
}

// printLayerTable writes the per-layer table of one traced run.
func printLayerTable(w io.Writer, workload string, ops int, rep map[string]metric) {
	fmt.Fprintf(w, "per-layer (%s, traced, %d ops; 0 = layer not run on this workload):\n", workload, ops)
	for _, m := range layerMetrics {
		v := rep[m.name]
		fmt.Fprintf(w, "  %-28s %14.4f %s\n", m.name, v.Value, v.Unit)
	}
}
