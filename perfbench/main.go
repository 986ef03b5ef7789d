// Command perfbench is the repository's end-to-end benchmark. One run
// executes one named workload with a seed, checks the program's outputs,
// and prints its metrics by name and unit; the last line of standard
// output is one JSON object {correct, attempted, failed, metrics}.
//
//	perfbench --workload repro|serve-hit|serve-miss --seed N --seconds S --trace 0|1
//	perfbench --spread 10 --workload W --seconds S   (repeat runs, report spread)
//
// With --trace 0 the metrics are the end-to-end set; with --trace 1 the
// benchmark times each layer from outside (spans around calls into the
// modules' public functions and seams) and prints the per-layer set.
// See README.md for the workloads and the metric table.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd is printed by every workload with --trace 0. Each metric's
// meaning per workload is in README.md.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"batch_s", "s"},
	{"lo.p50_ms", "ms"},
	{"lo.p90_ms", "ms"},
	{"hi.p50_ms", "ms"},
	{"hi.p90_ms", "ms"},
	{"capacity_per_s", "1/s"},
}

// simConfigs are the simulator phase's platforms: one 1-level catalog
// configuration per platform class, then the two 3-level presets.
var simConfigs = []string{"C4", "C10", "C14", "modern-2s-server", "cloud-vm-8"}

// perLayer is printed by every workload with --trace 1; a layer the
// workload does not touch reads 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"server.hit_us", "us"},
		{"server.hit_allocs", "count"},
		{"server.hit_bytes", "B"},
		{"server.miss_us", "us"},
		{"server.hit_ratio", "ratio"},
		{"server.dedup_waits", "count"},
		{"server.shed", "count"},
		{"http.overhead_us", "us"},
		{"cluster.forward_us", "us"},
		{"cluster.forward_share", "ratio"},
		{"cluster.forward_fails", "count"},
		{"cluster.local_fallbacks", "count"},
		{"core.evaluate_us", "us"},
		{"core.evaluate_deep_us", "us"},
		{"core.render_us", "us"},
		{"cost.budget_ms", "ms"},
		{"cost.evaluated", "count"},
		{"cost.pruned_share", "ratio"},
		{"workloads.trace_ms", "ms"},
		{"workloads.characterize_ms", "ms"},
	}
	for _, c := range simConfigs {
		defs = append(defs, metricDef{"sim.ns_per_ref." + c, "ns"})
	}
	defs = append(defs,
		metricDef{"sim.stream_ns_per_ref", "ns"},
		metricDef{"sim.refs", "count"},
		metricDef{"experiments.table2_s", "s"},
		metricDef{"experiments.figure2_s", "s"},
		metricDef{"experiments.figure3_s", "s"},
		metricDef{"experiments.figure4_s", "s"},
		metricDef{"experiments.busy_share", "ratio"},
		metricDef{"model.err_pct", "%"},
		metricDef{"gen.lag_p50_ms", "ms"},
		metricDef{"gen.lag_p99_ms", "ms"},
		metricDef{"tail.lo.p99_ms", "ms"},
		metricDef{"tail.hi.p99_ms", "ms"},
		metricDef{"traced.batch_s", "s"},
		metricDef{"traced.lo.p50_ms", "ms"},
		metricDef{"traced.hi.p50_ms", "ms"},
		metricDef{"traced.capacity_per_s", "1/s"},
	)
	return defs
}()

// bench is one run's shared state: options, tracer, operation counts,
// check failures and the metrics measured so far.
type bench struct {
	workload string
	seed     uint64
	seconds  float64
	root     string  // repository root (holds internal/…/testdata)
	tr       *tracer // nil with --trace 0

	attempted, failed int
	checkErrs         []string
	metrics           map[string]float64
	out               *bufio.Writer
}

// op counts one attempted operation and whether it failed.
func (b *bench) op(err error) {
	b.attempted++
	if err != nil {
		b.failed++
		b.checkFail("%v", err)
	}
}

// checkFail records a failed output check (the run is then incorrect).
// Only the first few messages are kept.
func (b *bench) checkFail(format string, args ...any) {
	if len(b.checkErrs) < 10 {
		b.checkErrs = append(b.checkErrs, fmt.Sprintf(format, args...))
	}
}

func (b *bench) set(name string, v float64) { b.metrics[name] = v }

// logf prints one human-readable report line (everything before the final
// JSON line is for people).
func (b *bench) logf(format string, args ...any) {
	fmt.Fprintf(b.out, format+"\n", args...)
}

// budget returns the share f of the run's measuring time.
func (b *bench) budget(f float64) time.Duration {
	return time.Duration(f * b.seconds * float64(time.Second))
}

// logDist prints a latency distribution with its sample count and the
// highest percentile the sample supports.
func (b *bench) logDist(label string, xs []float64) {
	d := newDist(xs)
	top := d.topPercentile()
	b.logf("  %-28s p50=%.4f ms p99=%.4f ms n=%d top=p%g (%.4f ms, %d beyond)",
		label, d.percentile(50), d.percentile(99), d.n, top, d.percentile(top), d.beyond(top))
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload: repro, serve-hit or serve-miss")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 20, "measuring time of the run")
	traceFlag := fs.Int("trace", 0, "1: traced run printing the per-layer metrics")
	root := fs.String("root", ".", "repository root")
	record := fs.Bool("record", false, "repro: rewrite the recorded simulator statistics")
	spread := fs.Int("spread", 0, "repeat the run N times over seeds 1..N and report each metric's spread")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *spread > 0 {
		return spreadReport(*spread, *workload, *seconds, *root)
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive")
		return 2
	}
	b := &bench{
		workload: *workload, seed: *seed, seconds: *seconds, root: *root,
		metrics: map[string]float64{},
		out:     bufio.NewWriter(os.Stdout),
	}
	defer b.out.Flush()
	if *traceFlag == 1 {
		b.tr = newTracer()
	}
	printHost(b)
	b.logf("run: workload=%s seed=%d seconds=%g trace=%v", b.workload, b.seed, b.seconds, b.tr != nil)
	var err error
	switch *workload {
	case "repro":
		err = runRepro(b, *record)
	case "serve-hit":
		err = runServeHit(b)
	case "serve-miss":
		err = runServeMiss(b)
	default:
		err = fmt.Errorf("unknown workload %q (want repro, serve-hit or serve-miss)", *workload)
	}
	if err != nil {
		b.out.Flush()
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	b.set("peak_rss_mb", peakRSSMB())

	defs := endToEnd
	if b.tr != nil {
		// The traced run's end-to-end numbers, beside the untraced run's,
		// give the tracing overhead.
		for _, n := range []string{"batch_s", "lo.p50_ms", "hi.p50_ms", "capacity_per_s"} {
			b.set("traced."+n, b.metrics[n])
		}
		b.set("tail.lo.p99_ms", b.metrics["lo.p99_ms"])
		b.set("tail.hi.p99_ms", b.metrics["hi.p99_ms"])
		defs = perLayer
		spans, self, dropped := b.tr.finish()
		name := fmt.Sprintf("%s-seed%d.jsonl", *workload, *seed)
		if path, err := writeSpans(".bench_build/spans", name, spans, self, dropped); err != nil {
			b.logf("spans: not written: %v", err)
		} else {
			b.logf("spans: %d written to %s (%d dropped)", len(spans), path, dropped)
		}
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(defs))
	b.logf("metrics:")
	for _, d := range defs {
		v, ok := b.metrics[d.name]
		if !ok && b.tr == nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: end-to-end metric %s not measured\n", *workload, d.name)
			return 1
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			b.checkFail("metric %s is %v", d.name, v)
			v = 0
		}
		metrics[d.name] = value{v, d.unit}
		b.logf("  %-30s %s %s", d.name, strconv.FormatFloat(v, 'g', -1, 64), d.unit)
	}
	correct := len(b.checkErrs) == 0 && b.failed == 0 && b.attempted > 0
	for _, msg := range b.checkErrs {
		b.logf("CHECK FAILED: %s", msg)
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{correct, b.attempted, b.failed, metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(b.out, string(line))
	if !correct {
		return 1
	}
	return 0
}

// printHost prints the host fingerprint the numbers belong to.
func printHost(b *bench) {
	model := "unknown"
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	b.logf("host: cpu=%q nproc=%d GOMAXPROCS=%d go=%s", model, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
}

// peakRSSMB returns the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, l := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(l, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return math.NaN()
			}
			return kb / 1024
		}
	}
	return math.NaN()
}
