package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// repeatRuns runs the benchmark n times in child processes, one after
// the other, with seeds o.seed, o.seed+1, ..., and prints each metric's
// median, quartiles and spread (quartile distance over the median), the
// statistic the benchmark's bounds are checked against.
func repeatRuns(o options, n int, stdout io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	trace := "0"
	if o.trace {
		trace = "1"
	}
	vals := make(map[string][]float64)
	units := make(map[string]string)
	for i := 0; i < n; i++ {
		seed := o.seed + int64(i)
		cmd := exec.Command(exe, "--workload", o.workload, "--seed", strconv.FormatInt(seed, 10),
			"--seconds", strconv.Itoa(o.seconds), "--trace", trace, "--root", o.root)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: run with seed %d: %v\n", seed, err)
			return 1
		}
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: run with seed %d: decoding result: %v\n", seed, err)
			return 1
		}
		if !res.Correct {
			fmt.Fprintf(os.Stderr, "perfbench: run with seed %d was not correct\n", seed)
			return 1
		}
		var b bytes.Buffer
		for name, m := range res.Metrics {
			vals[name] = append(vals[name], m.Value)
			units[name] = m.Unit
		}
		fmt.Fprintf(&b, "seed %d:", seed)
		for _, name := range endToEndOrder {
			if m, ok := res.Metrics[name]; ok {
				fmt.Fprintf(&b, " %s=%.6g", name, m.Value)
			}
		}
		fmt.Fprintln(stdout, b.String())
	}
	names := make([]string, 0, len(vals))
	for name := range vals {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(stdout, "%s over %d runs (seeds %d..%d):\n", o.workload, n, o.seed, o.seed+int64(n)-1)
	fmt.Fprintf(stdout, "  %-28s %14s %14s %14s %8s  unit\n", "metric", "median", "q1", "q3", "spread")
	for _, name := range names {
		v := vals[name]
		q1, med, q3 := quartiles(v)
		spread := 0.0
		if med != 0 {
			spread = (q3 - q1) / med
		}
		fmt.Fprintf(stdout, "  %-28s %14.6g %14.6g %14.6g %8.4f  %s\n", name, med, q1, q3, spread, units[name])
	}
	return 0
}

// quartiles computes the three cut points the way Python's
// statistics.quantiles(values, n=4) does by default (the "exclusive"
// method); with fewer than two values every cut point is that value.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		delta := i*m - j*4
		lo, hi := j-1, j
		if lo < 0 {
			lo = 0
		}
		if hi > n-1 {
			hi = n - 1
		}
		return (s[lo]*float64(4-delta) + s[hi]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}
