package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	clsacim "clsacim"
)

// TestWriteDocFile: docs land as BENCH_<experiment>.json, carry the
// schema, and round-trip through encoding/json.
func TestWriteDocFile(t *testing.T) {
	dir := t.TempDir()
	doc := Doc{
		Experiment: "fig6c",
		ElapsedMS:  12,
		Points: []Point{{
			Model: "tinyyolov4", Mapping: "wdup+16", X: 16, Sched: "xinf",
			Speedup: 4.93, Utilization: 0.42, Makespan: 123456, UtGain: 5.1,
		}},
	}
	if err := WriteDocFile(dir, doc); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "BENCH_fig6c.json"))
	if err != nil {
		t.Fatal(err)
	}
	var back Doc
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Schema != Schema {
		t.Errorf("schema = %q, want %q (stamped by WriteDoc)", back.Schema, Schema)
	}
	if len(back.Points) != 1 || back.Points[0].Makespan != 123456 || back.Points[0].Sched != "xinf" {
		t.Errorf("points did not round-trip: %+v", back.Points)
	}
	if back.TableI != nil || back.Ablations != nil {
		t.Errorf("empty sections serialized: %+v", back)
	}
}

// TestWriteDocFileRequiresName: a doc without an experiment name cannot
// produce a file name and must fail.
func TestWriteDocFileRequiresName(t *testing.T) {
	if err := WriteDocFile(t.TempDir(), Doc{}); err == nil {
		t.Fatal("nameless doc accepted")
	}
}

// TestRunAllAblations: the aggregate runner covers every study exactly
// as the printed report does.
func TestRunAllAblations(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full ablation sweep; run without -short")
	}
	points, err := coarse().RunAllAblations()
	if err != nil {
		t.Fatal(err)
	}
	studies := map[string]bool{}
	for _, p := range points {
		studies[p.Study] = true
	}
	for _, want := range []string{"granularity", "solver", "noc", "crossbar", "gpeu", "virtualization", "window"} {
		if !studies[want] {
			t.Errorf("study %q missing from RunAllAblations (have %v)", want, studies)
		}
	}
}

// TestStatsDelta: counters are differenced, cache levels stay absolute.
func TestStatsDelta(t *testing.T) {
	for _, tc := range []struct {
		name          string
		before, after clsacim.Stats
		want          clsacim.Stats
	}{
		{
			name:  "first experiment",
			after: clsacim.Stats{Compiles: 2, CacheHits: 1, CacheMisses: 2, Evaluations: 1, CachedEntries: 2},
			want:  clsacim.Stats{Compiles: 2, CacheHits: 1, CacheMisses: 2, Evaluations: 1, CachedEntries: 2},
		},
		{
			name: "later experiment on a warm engine",
			before: clsacim.Stats{Compiles: 8, CacheHits: 5, PartialHits: 2, CacheMisses: 8, Evictions: 1,
				Evaluations: 4, DegradedEvaluations: 1, StreamEvaluations: 3, StreamInferences: 90,
				CachedEntries: 7, CacheLimit: 16},
			after: clsacim.Stats{Compiles: 10, CacheHits: 9, PartialHits: 3, CacheMisses: 10, Evictions: 1,
				Evaluations: 6, DegradedEvaluations: 1, StreamEvaluations: 5, StreamInferences: 150,
				CachedEntries: 9, CacheLimit: 16},
			want: clsacim.Stats{Compiles: 2, CacheHits: 4, PartialHits: 1, CacheMisses: 2,
				Evaluations: 2, StreamEvaluations: 2, StreamInferences: 60,
				CachedEntries: 9, CacheLimit: 16},
		},
		{
			name:   "idle experiment",
			before: clsacim.Stats{Compiles: 3, Evaluations: 3, CachedEntries: 3},
			after:  clsacim.Stats{Compiles: 3, Evaluations: 3, CachedEntries: 3},
			want:   clsacim.Stats{CachedEntries: 3},
		},
	} {
		if got := StatsDelta(tc.before, tc.after); got != tc.want {
			t.Errorf("%s: StatsDelta = %+v, want %+v", tc.name, got, tc.want)
		}
	}
}
