package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"memhier"
	"memhier/internal/experiments"
	"memhier/internal/machine"
	"memhier/internal/sim/backend"
	"memhier/internal/trace"
	"memhier/internal/workloads"
)

// Repro phase shares of --seconds: the simulator passes, then the
// artifact renders.
const (
	simShare     = 0.6
	renderShare  = 0.35
	reproWorkers = 2 // chc-repro -parallel nproc on the 2-CPU reference host
	simDivisor   = 16
	streamConfig = "C14"
)

// simStatsFile holds the simulated statistics recorded at seed; the
// simulator is deterministic, so every run must reproduce them exactly.
const simStatsFile = "perfbench/testdata/sim_stats.json"

// simStats is the exact record of one simulation, floats in their
// shortest round-trip form.
type simStats struct {
	WallCycles  string   `json:"wall_cycles"`
	EInstr      string   `json:"e_instr"`
	ClassCounts []uint64 `json:"class_counts"`
	Refs        uint64   `json:"refs"`
}

func statsOf(r backend.RunResult) simStats {
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	return simStats{WallCycles: f(r.WallCycles), EInstr: f(r.EInstr),
		ClassCounts: append([]uint64(nil), r.Stats.ClassCounts[:]...), Refs: r.MemoryRefs}
}

func (s simStats) equal(o simStats) bool {
	if s.WallCycles != o.WallCycles || s.EInstr != o.EInstr || s.Refs != o.Refs || len(s.ClassCounts) != len(o.ClassCounts) {
		return false
	}
	for i := range s.ClassCounts {
		if s.ClassCounts[i] != o.ClassCounts[i] {
			return false
		}
	}
	return true
}

// simOp is one simulator run of the phase: a pre-made trace on a scaled
// configuration, or a streaming run that generates its trace as it goes.
type simOp struct {
	name   string // config/kernel, or stream/config/kernel
	config string
	cfg    machine.Config
	tr     *trace.Trace       // nil for a streaming run
	kernel workloads.Workload // streaming runs only
}

func (o simOp) run() (backend.RunResult, error) {
	if o.tr == nil {
		return memhier.StreamSimulate(o.kernel, o.cfg)
	}
	return backend.Simulate(o.tr, o.cfg)
}

// reproEnv is the set-up simulator phase: scaled configurations and their
// traces.
type reproEnv struct {
	ops     []simOp
	traceMs []float64 // GenerateTrace wall time per trace
}

// setupRepro scales the simulator configurations by ÷16 and generates
// the four kernels' traces for each processor count they need.
func setupRepro() (*reproEnv, error) {
	env := &reproEnv{}
	kernels := workloads.Suite(workloads.ScaleSmall)
	traces := map[string]*trace.Trace{}
	for _, name := range simConfigs {
		cfg, err := machine.ByName(name)
		if err != nil {
			return nil, err
		}
		if cfg, err = cfg.Scaled(simDivisor); err != nil {
			return nil, err
		}
		for _, k := range kernels {
			key := fmt.Sprintf("%s/%d", k.Name(), cfg.TotalProcs())
			tr, ok := traces[key]
			if !ok {
				start := time.Now()
				if tr, err = workloads.GenerateTrace(k, cfg.TotalProcs()); err != nil {
					return nil, err
				}
				env.traceMs = append(env.traceMs, float64(time.Since(start))/1e6)
				traces[key] = tr
			}
			env.ops = append(env.ops, simOp{name: name + "/" + k.Name(), config: name, cfg: cfg, tr: tr})
		}
	}
	cfg, err := machine.ByName(streamConfig)
	if err != nil {
		return nil, err
	}
	if cfg, err = cfg.Scaled(simDivisor); err != nil {
		return nil, err
	}
	for _, k := range kernels {
		env.ops = append(env.ops, simOp{name: "stream/" + streamConfig + "/" + k.Name(), config: "stream", cfg: cfg, kernel: k})
	}
	return env, nil
}

func runRepro(b *bench, record bool) error {
	var traceMs []float64
	env, err := runSetups(b, func() (*reproEnv, error) {
		env, err := setupRepro()
		if env != nil {
			traceMs = append(traceMs, env.traceMs...)
		}
		return env, err
	}, func(*reproEnv) {})
	if err != nil {
		return err
	}
	if b.tr != nil {
		b.set("workloads.trace_ms", median(traceMs))
	}
	want, err := loadSimStats(b, record)
	if err != nil {
		return err
	}
	got := map[string]simStats{}
	if err := simPhases(b, env, want, got); err != nil {
		return err
	}
	if record {
		return writeSimStats(b, got)
	}
	// The renders build their own traces: release the simulator phase's
	// before rendering, so the two working sets never coexist.
	env = nil
	runtime.GC()
	if err := reproRenders(b); err != nil {
		return err
	}
	if b.tr != nil {
		characterizeLayer(b)
	}
	return nil
}

// reproRenders renders every artifact of a fresh experiments.Suite over
// reproWorkers workers, as experiments.WriteAllParallel does, until the
// phase's time is used (at least three times). It checks every
// deterministic artifact against the golden digests and sets batch_s to
// the median render time.
func reproRenders(b *bench) error {
	golden, err := loadGolden(filepath.Join(b.root, "internal", "experiments", "testdata", "golden_artifacts.sha256"))
	if err != nil {
		return err
	}
	var walls []float64
	artTimes := map[string][]float64{}
	var busy []float64
	var errPct float64
	deadline := time.Now().Add(b.budget(renderShare))
	for rep := 0; rep < 3 || time.Now().Before(deadline); rep++ {
		runtime.GC() // collect the previous render's suite outside the timing
		suite := experiments.NewSuite(experiments.Options{})
		arts := suite.Artifacts()
		outs := make([]bytes.Buffer, len(arts))
		for i := range arts {
			render := arts[i].Render
			out := &outs[i]
			arts[i].Render = func(w io.Writer) error {
				err := render(out)
				w.Write(out.Bytes())
				return err
			}
		}
		var mu sync.Mutex
		var sum time.Duration
		reqID := "render-" + strconv.Itoa(rep)
		start := time.Now()
		err := experiments.RenderArtifacts(io.Discard, arts, reproWorkers, func(name string, d time.Duration, err error) {
			end := time.Now()
			b.tr.record("experiments."+name, reqID, end.Add(-d), end)
			mu.Lock()
			defer mu.Unlock()
			sum += d
			artTimes[name] = append(artTimes[name], d.Seconds())
		})
		wall := time.Since(start)
		b.tr.record("repro.render", reqID, start, start.Add(wall))
		walls = append(walls, wall.Seconds())
		busy = append(busy, sum.Seconds()/(wall.Seconds()*reproWorkers))
		b.op(err)
		if err != nil {
			continue
		}
		checked := 0
		for i, a := range arts {
			if !a.Deterministic {
				continue
			}
			checked++
			h := sha256.Sum256(outs[i].Bytes())
			b.attempted++
			if hex.EncodeToString(h[:]) != golden[a.Name] {
				b.failed++
				b.checkFail("artifact %s: sha256 differs from the golden digest", a.Name)
			}
		}
		if checked != len(golden) {
			b.checkFail("rendered %d deterministic artifacts, golden file has %d", checked, len(golden))
		}
		var err2 error
		errPct, err2 = modelError(suite)
		b.op(err2)
	}
	b.set("batch_s", median(walls))
	b.logf("phase render: %d renders of every artifact on %d workers, median %.4f s (repro_s)", len(walls), reproWorkers, median(walls))
	b.logf("model_err_pct: %.4f %% mean |model − sim| over every Figure 2–4 row", errPct)
	if b.tr != nil {
		b.set("model.err_pct", errPct)
	}
	if b.tr != nil {
		for _, a := range []string{"table2", "figure2", "figure3", "figure4"} {
			b.set("experiments."+a+"_s", median(artTimes[a]))
		}
		b.set("experiments.busy_share", median(busy))
	}
	return nil
}

// modelError is the mean |DiffPct| over every Figure 2–4 row: each
// figure's Validation.MeanAbsDiff weighted by its row count. The suite has
// already simulated every point, so this re-reads its caches.
func modelError(s *experiments.Suite) (float64, error) {
	var sum float64
	var rows int
	for _, fig := range []func() (experiments.Validation, error){s.Figure2, s.Figure3, s.Figure4} {
		v, err := fig()
		if err != nil {
			return 0, err
		}
		sum += v.MeanAbsDiff() * float64(len(v.Rows))
		rows += len(v.Rows)
	}
	if rows == 0 {
		return 0, fmt.Errorf("no validation rows")
	}
	return sum / float64(rows), nil
}

// loadGolden reads a sha256sum-style digest file: "<hex>  <name>" lines.
func loadGolden(path string) (map[string]string, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	out := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		f := strings.Fields(line)
		if len(f) != 2 {
			return nil, fmt.Errorf("%s: malformed line %q", path, line)
		}
		out[f[1]] = f[0]
	}
	return out, nil
}

func loadSimStats(b *bench, record bool) (map[string]simStats, error) {
	if record {
		return nil, nil
	}
	raw, err := os.ReadFile(filepath.Join(b.root, simStatsFile))
	if err != nil {
		return nil, err
	}
	var want map[string]simStats
	return want, json.Unmarshal(raw, &want)
}

func writeSimStats(b *bench, got map[string]simStats) error {
	raw, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(b.root, simStatsFile)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b.logf("recorded %d simulations to %s", len(got), path)
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// simPhases runs the simulator ops in passes until its share of the run
// is used (at least five): each pass runs every op one at a time (lo),
// then every op again on two workers at once (hi), so a disturbance of
// the host lands in one pass of both. lo.* and hi.* are percentiles of
// the pass times, and capacity_per_s is the median over passes of
// simulated memory references per host second on two workers.
func simPhases(b *bench, env *reproEnv, want, got map[string]simStats) error {
	var mu sync.Mutex // guards check's counters and maps on the hi workers
	check := func(op simOp, r backend.RunResult, err error) {
		if err == nil {
			st := statsOf(r)
			if want == nil {
				got[op.name] = st
			} else if w, ok := want[op.name]; !ok || !w.equal(st) {
				err = fmt.Errorf("simulation %s: statistics differ from the recorded run", op.name)
			}
		}
		b.op(err)
	}
	lo, hi := map[string][]float64{}, map[string][]float64{}
	nsPerRef := map[string][2]float64{} // config → (ns, refs), lo passes
	var passRefs uint64
	var rates, loPass, hiPass []float64
	deadline := time.Now().Add(b.budget(simShare))
	for pass := 0; pass < 5 || time.Now().Before(deadline); pass++ {
		passRefs = 0
		passStart := time.Now()
		for _, op := range env.ops {
			start := time.Now()
			r, err := op.run()
			d := time.Since(start)
			b.tr.record("sim.run", "lo-"+strconv.Itoa(pass)+"-"+op.name, start, start.Add(d))
			check(op, r, err)
			lo[op.name] = append(lo[op.name], float64(d)/1e6)
			acc := nsPerRef[op.config]
			nsPerRef[op.config] = [2]float64{acc[0] + float64(d), acc[1] + float64(r.MemoryRefs)}
			passRefs += r.MemoryRefs
		}

		loPass = append(loPass, float64(time.Since(passStart))/1e6)

		jobs := make(chan simOp)
		var wg sync.WaitGroup
		start := time.Now()
		for w := 0; w < reproWorkers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for op := range jobs {
					t0 := time.Now()
					r, err := op.run()
					d := time.Since(t0)
					b.tr.record("sim.run", "hi-"+strconv.Itoa(pass)+"-"+op.name, t0, t0.Add(d))
					mu.Lock()
					check(op, r, err)
					hi[op.name] = append(hi[op.name], float64(d)/1e6)
					mu.Unlock()
				}
			}()
		}
		for _, op := range env.ops {
			jobs <- op
		}
		close(jobs)
		wg.Wait()
		hiPass = append(hiPass, float64(time.Since(start))/1e6)
		rates = append(rates, float64(passRefs)/time.Since(start).Seconds())
	}
	setPasses(b, "lo", loPass, lo)
	setPasses(b, "hi", hiPass, hi)
	b.set("capacity_per_s", median(rates))
	b.logf("phase sim hi: %.4g simulated refs/s on %d workers (median of %d passes)", median(rates), reproWorkers, len(rates))

	configs := make([]string, 0, len(nsPerRef))
	for c := range nsPerRef {
		configs = append(configs, c)
	}
	sort.Strings(configs)
	for _, config := range configs {
		acc := nsPerRef[config]
		v := acc[0] / acc[1]
		b.logf("  sim %-18s %.2f ns/ref (%.4g Mrefs/s)", config, v, 1e3/v)
		if b.tr == nil {
			continue
		}
		if config == "stream" {
			b.set("sim.stream_ns_per_ref", v)
		} else {
			b.set("sim.ns_per_ref."+config, v)
		}
	}
	if b.tr != nil {
		b.set("sim.refs", float64(passRefs))
	}
	return nil
}

// setPasses sets <label>.p50_ms, .p90_ms and .p99_ms over the pass
// times: the operation a simulator user waits for here is one pass over
// every config and kernel. (Percentiles over the 24 individual runs would
// jump between run kinds whose times differ by 2×, so a host a few
// percent slower could move them by a third.) The per-run medians are
// logged.
func setPasses(b *bench, label string, passes []float64, lat map[string][]float64) {
	d := newDist(passes)
	b.set(label+".p50_ms", d.percentile(50))
	b.set(label+".p90_ms", d.percentile(90))
	b.set(label+".p99_ms", d.percentile(99))
	names := make([]string, 0, len(lat))
	for n := range lat {
		names = append(names, n)
	}
	sort.Strings(names)
	var meds []float64
	for _, n := range names {
		meds = append(meds, median(lat[n]))
	}
	md := newDist(meds)
	b.logf("phase sim %s: %d passes p50=%.3f ms p90=%.3f ms; per-run medians over %d runs: p50=%.3f ms max=%.3f ms",
		label, d.n, d.percentile(50), d.percentile(90), md.n, md.percentile(50), md.percentile(100))
}

// characterizeLayer times workloads.Characterize directly on each kernel.
func characterizeLayer(b *bench) {
	var ms []float64
	for _, k := range workloads.Suite(workloads.ScaleSmall) {
		start := time.Now()
		_, err := workloads.Characterize(k, workloads.CharacterizeOptions{LineSize: 64})
		ms = append(ms, float64(time.Since(start))/1e6)
		b.op(err)
	}
	b.set("workloads.characterize_ms", median(ms))
}
