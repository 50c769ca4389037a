package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// The reference documents are the committed BENCH_*.json payloads at
// the repository root, written by cmd/paperbench. They are read at run
// time, never copied into the benchmark, so a change that alters a
// simulated result fails the reference check until the payloads are
// regenerated.

// Settings under which cmd/paperbench produced the committed solver
// payload (README.md: wdup+32, 26 sets); the document does not record
// them.
const (
	coarseSets = 26 // -sets 26
	solverX    = 32 // RunSolverAblation(nil, 32): wdup+32
	// searchSeed is internal/bench.SolverAblationSeed.
	searchSeed = 1
	// poissonSeed is the arrival seed internal/bench.RunStream uses for
	// its open-loop scenario.
	poissonSeed = 42
)

// fig7Point is one point of BENCH_fig7.json (fine granularity).
type fig7Point struct {
	Model       string  `json:"model"`
	Mapping     string  `json:"mapping"`
	X           int     `json:"x"`
	Sched       string  `json:"sched"`
	Speedup     float64 `json:"speedup"`
	Utilization float64 `json:"utilization"`
	Makespan    int64   `json:"makespan_cycles"`
	UtGain      float64 `json:"ut_gain"`
}

// solverRow is one (model, mode, solver) row of BENCH_solver.json.
type solverRow struct {
	Model       string  `json:"model"`
	Sched       string  `json:"sched"`
	Solver      string  `json:"solver"`
	Makespan    int64   `json:"makespan_cycles"`
	Speedup     float64 `json:"speedup"`
	Utilization float64 `json:"utilization"`
}

// streamRow is one scenario of BENCH_stream.json.
type streamRow struct {
	Scenario    string   `json:"scenario"`
	Models      []string `json:"models"`
	Mapping     string   `json:"mapping"`
	Mode        string   `json:"mode"`
	Arrival     string   `json:"arrival"`
	Concurrency int      `json:"concurrency"`
	SharedPool  bool     `json:"shared_pool"`
	Inferences  int      `json:"inferences"`
	Makespan    int64    `json:"makespan_cycles"`
	Throughput  float64  `json:"throughput_per_sec"`
	P50Nanos    float64  `json:"p50_nanos"`
	P99Nanos    float64  `json:"p99_nanos"`
	PEUtil      float64  `json:"pe_utilization"`
}

// readDoc decodes the payload array named key of BENCH_<experiment>.json
// under root into dst, checking the document is the experiment it
// claims to be.
func readDoc(root, experiment, key string, dst any) error {
	path := filepath.Join(root, "BENCH_"+experiment+".json")
	b, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("reading reference: %w", err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(b, &doc); err != nil {
		return fmt.Errorf("decoding %s: %w", path, err)
	}
	var exp string
	if err := json.Unmarshal(doc["experiment"], &exp); err != nil || exp != experiment {
		return fmt.Errorf("%s: experiment is %q, want %q", path, exp, experiment)
	}
	raw, ok := doc[key]
	if !ok {
		return fmt.Errorf("%s: no %q payload", path, key)
	}
	if err := json.Unmarshal(raw, dst); err != nil {
		return fmt.Errorf("decoding %s payload: %w", path, err)
	}
	return nil
}

func readFig7(root string) ([]fig7Point, error) {
	var pts []fig7Point
	if err := readDoc(root, "fig7", "points", &pts); err != nil {
		return nil, err
	}
	if len(pts) == 0 {
		return nil, fmt.Errorf("BENCH_fig7.json has no points")
	}
	return pts, nil
}

func readSolver(root string) ([]solverRow, error) {
	var rows []solverRow
	if err := readDoc(root, "solver", "solver", &rows); err != nil {
		return nil, err
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("BENCH_solver.json has no rows")
	}
	return rows, nil
}

func readStream(root string) ([]streamRow, error) {
	var rows []streamRow
	if err := readDoc(root, "stream", "stream", &rows); err != nil {
		return nil, err
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("BENCH_stream.json has no scenarios")
	}
	return rows, nil
}

// parseMapping decodes a payload mapping label: "-" (no duplication)
// or "wdup+<x>".
func parseMapping(s string) (x int, wdup bool, err error) {
	if s == "-" {
		return 0, false, nil
	}
	v, ok := strings.CutPrefix(s, "wdup+")
	if !ok {
		return 0, false, fmt.Errorf("unknown mapping label %q", s)
	}
	x, err = strconv.Atoi(v)
	if err != nil {
		return 0, false, fmt.Errorf("mapping label %q: %w", s, err)
	}
	return x, true, nil
}

// mismatch reports the first field that differs from its reference.
type mismatch []string

func (m *mismatch) int(name string, got, want int64) {
	if got != want {
		*m = append(*m, fmt.Sprintf("%s = %d, reference %d", name, got, want))
	}
}

// float compares exactly: the payloads hold shortest round-trip
// encodings of the very float64 values the pipeline computes.
func (m *mismatch) float(name string, got, want float64) {
	if got != want {
		*m = append(*m, fmt.Sprintf("%s = %v, reference %v", name, got, want))
	}
}

func (m mismatch) err(what string) error {
	if len(m) == 0 {
		return nil
	}
	return fmt.Errorf("%s differs from the reference: %s", what, strings.Join(m, "; "))
}
