package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// runResult is the benchmark's last output line.
type runResult struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// runOnce runs this binary on one workload and seed and parses its last
// line.
func runOnce(workload string, seed int, seconds float64, root string, trace int) (runResult, error) {
	self, err := os.Executable()
	if err != nil {
		return runResult{}, err
	}
	cmd := exec.Command(self, "--workload", workload, "--seed", strconv.Itoa(seed),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace), "--root", root)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return runResult{}, fmt.Errorf("seed %d: %w", seed, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var r runResult
	if err := json.Unmarshal(lines[len(lines)-1], &r); err != nil {
		return runResult{}, fmt.Errorf("seed %d: last line: %w", seed, err)
	}
	return r, nil
}

// spreadReport runs the workload n times over seeds 1..n, then once
// traced, and prints the host fingerprint and, per metric, the median,
// quartiles, sample count and interquartile spread as a share of the
// median (the data the bounds in BENCHMARK.json are set from), followed by
// the tracing overhead of the traced run.
func spreadReport(n int, workload string, seconds float64, root string) int {
	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()
	b := &bench{workload: workload, seconds: seconds, out: out}
	printHost(b)
	values := map[string][]float64{}
	units := map[string]string{}
	for seed := 1; seed <= n; seed++ {
		r, err := runOnce(workload, seed, seconds, root, 0)
		if err != nil {
			out.Flush()
			fmt.Fprintln(os.Stderr, "perfbench: spread:", err)
			return 1
		}
		if !r.Correct || r.Failed > 0 {
			fmt.Fprintf(out, "seed %d: correct=%v failed=%d of %d\n", seed, r.Correct, r.Failed, r.Attempted)
		}
		for name, m := range r.Metrics {
			values[name] = append(values[name], m.Value)
			units[name] = m.Unit
		}
	}
	out.Flush()
	names := make([]string, 0, len(values))
	for name := range values {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(out, "%-16s %v\n", name, values[name])
	}
	fmt.Fprintf(out, "%-16s %-6s %4s %14s %14s %14s %8s\n", "metric", "unit", "n", "q1", "median", "q3", "iqr/med")
	medians := map[string]float64{}
	for _, name := range names {
		q1, q2, q3 := quartiles(values[name])
		medians[name] = q2
		fmt.Fprintf(out, "%-16s %-6s %4d %14.6g %14.6g %14.6g %7.2f%%\n",
			name, units[name], len(values[name]), q1, q2, q3, 100*(q3-q1)/q2)
	}
	tr, err := runOnce(workload, 1, seconds, root, 1)
	if err != nil {
		out.Flush()
		fmt.Fprintln(os.Stderr, "perfbench: spread:", err)
		return 1
	}
	fmt.Fprintln(out, "tracing overhead (traced run, seed 1, against the untraced median):")
	for _, name := range []string{"batch_s", "lo.p50_ms", "hi.p50_ms", "capacity_per_s"} {
		t := tr.Metrics["traced."+name].Value
		fmt.Fprintf(out, "  %-16s untraced %.6g traced %.6g (%+.1f%%)\n", name, medians[name], t, 100*(t/medians[name]-1))
	}
	return 0
}
