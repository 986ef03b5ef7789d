package main

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"sync/atomic"
	"testing"
	"time"
)

func TestPercentileSampleCounts(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1) // 1..1000
	}
	d := newDist(xs)
	for _, tc := range []struct {
		p      float64
		want   float64
		beyond int
	}{
		{50, 500, 500},
		{99, 990, 10},
		{99.9, 999, 1},
		{100, 1000, 0},
	} {
		if got := d.percentile(tc.p); got != tc.want {
			t.Errorf("p%g = %v, want %v", tc.p, got, tc.want)
		}
		if got := d.beyond(tc.p); got != tc.beyond {
			t.Errorf("beyond p%g = %d, want %d", tc.p, got, tc.beyond)
		}
	}
	if top := d.topPercentile(); top != 99 {
		t.Errorf("top percentile of 1000 samples = p%g, want p99 (10 beyond)", top)
	}
	if top := newDist(xs[:999]).topPercentile(); top != 90 {
		t.Errorf("top percentile of 999 samples = p%g, want p90", top)
	}
	if top := newDist(xs[:15]).topPercentile(); top != 0 {
		t.Errorf("top percentile of 15 samples = p%g, want none", top)
	}
	// Failures enter as +Inf and so miss any limit.
	withFail := append(append([]float64(nil), xs[:99]...), math.Inf(1))
	if got := newDist(withFail).percentile(100); !math.IsInf(got, 1) {
		t.Errorf("max with a failure = %v, want +Inf", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
	// == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	q1, q2, q3 = quartiles([]float64{4, 1, 2})
	if q1 != 1 || q2 != 2 || q3 != 4 {
		t.Errorf("quartiles = %v %v %v, want 1 2 4", q1, q2, q3)
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestWindowedIgnoresOneBadWindow(t *testing.T) {
	xs := make([]float64, 5000)
	for i := range xs {
		xs[i] = 1
	}
	for i := 1000; i < 2000; i++ {
		xs[i] = 100 // one disturbed window
	}
	got := windowed(xs, 5, func(d dist) float64 { return d.percentile(99) })
	if got != 1 {
		t.Errorf("windowed p99 = %v, want 1", got)
	}
}

// TestStaircaseFindsKnownCapacity runs the search against a synthetic
// server of known capacity whose probes pass below it and fail above.
// staircase runs a stair of n probes against probe.
func staircase(start, maxRate, step, minStep float64, n int, probe func(rate float64) bool) float64 {
	s := &stair{rate: start, maxRate: maxRate, step: step, minStep: minStep}
	for k := 0; k < n; k++ {
		s.record(probe(s.rate))
	}
	return s.estimate()
}

func TestStaircaseFindsKnownCapacity(t *testing.T) {
	for _, capacity := range []float64{8000, 12345, 20000} {
		n := 0
		got := staircase(6000, 40000, 0.10, 0.015, 20, func(rate float64) bool {
			n++
			return rate <= capacity
		})
		if n != 20 {
			t.Errorf("capacity %v: %d probes, want 20", capacity, n)
		}
		if math.Abs(got/capacity-1) > 0.03 {
			t.Errorf("capacity %v: estimate %v, off by more than 3%%", capacity, got)
		}
	}
	// The search never probes above its cap.
	got := staircase(6000, 7000, 0.10, 0.015, 20, func(rate float64) bool {
		if rate > 7000 {
			t.Fatalf("probed %v above the 7000 cap", rate)
		}
		return true
	})
	if got != 7000 {
		t.Errorf("always-passing search = %v, want the cap 7000", got)
	}
}

// TestStaircaseToleratesNoisyProbes checks a probe that fails at random
// 10% of the time below capacity still lands near it.
func TestStaircaseToleratesNoisyProbes(t *testing.T) {
	const capacity = 10000
	k := 0
	got := staircase(6000, 40000, 0.10, 0.015, 40, func(rate float64) bool {
		k++
		if k%10 == 3 {
			return false // a spurious failure
		}
		return rate <= capacity
	})
	if math.Abs(got/capacity-1) > 0.06 {
		t.Errorf("estimate %v, off by more than 6%% from %v", got, capacity)
	}
}

func TestSelfTimeFromNestedSpans(t *testing.T) {
	tr := newTracer()
	at := func(ms int) time.Time { return tr.epoch.Add(time.Duration(ms) * time.Millisecond) }
	// client [0,100] ⊃ handler [10,90] ⊃ forward [20,60] ⊃ owner [30,50];
	// handler also contains a second child [70,80]; another request's
	// span overlaps in time but must not nest.
	tr.record("owner", "r1", at(30), at(50))
	tr.record("forward", "r1", at(20), at(60))
	tr.record("render", "r1", at(70), at(80))
	tr.record("handler", "r1", at(10), at(90))
	tr.record("client", "r1", at(0), at(100))
	tr.record("client", "r2", at(5), at(95))
	spans, self, _ := tr.finish()
	byName := map[string]span{}
	for _, s := range spans {
		if s.Req == "r1" {
			byName[s.Name] = s
		}
	}
	parent := func(name string) string {
		for n, s := range byName {
			if s.ID == byName[name].Parent {
				return n
			}
		}
		return ""
	}
	for child, want := range map[string]string{"owner": "forward", "forward": "handler", "render": "handler", "handler": "client", "client": ""} {
		if got := parent(child); got != want {
			t.Errorf("parent of %s = %q, want %q", child, got, want)
		}
	}
	ms := func(name string) int { return int(self[byName[name].ID] / time.Millisecond) }
	for name, want := range map[string]int{"client": 20, "handler": 30, "forward": 20, "owner": 20, "render": 10} {
		if got := ms(name); got != want {
			t.Errorf("self time of %s = %d ms, want %d", name, got, want)
		}
	}
}

func TestSelfTimeCountsOverlappingChildrenOnce(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "p", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 50},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 70},
	}
	if got := selfTimes(spans)[1]; got != 40 {
		t.Errorf("self = %v, want 40ns (children cover [10,70])", got)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	tr.record("x", "", time.Now(), time.Now()) // must not panic
}

// stubServer answers every request after delay; the first request that
// arrives at or after stallAt (if set) stalls for stall instead.
func stubServer(t *testing.T, delay time.Duration, stallAt time.Time, stall time.Duration) *httptest.Server {
	t.Helper()
	var stalled atomic.Bool
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		d := delay
		if !stallAt.IsZero() && !time.Now().Before(stallAt) && stalled.CompareAndSwap(false, true) {
			d = stall
		}
		spin(d)
		w.Write([]byte("ok"))
	}))
	t.Cleanup(srv.Close)
	return srv
}

// spin waits d without a timer, so the stub's own delay is exact.
func spin(d time.Duration) {
	for start := time.Now(); time.Since(start) < d; {
	}
}

func stubSend(url string) sendFunc {
	snds := []*sender{newSender(), newSender()}
	return func(k, i int) error {
		_, _, _, err := snds[k].post(url, "", []byte("{}"))
		return err
	}
}

// TestOpenLoopReadsServerDelayNotTimerOversleep: against a stub with a
// fixed 200 µs delay at a rate low enough that senders sleep between
// requests, p50 latency must read the delay, not the sleep's oversleep,
// which is reported separately as lag. The same loop against a stub with
// no delay gives the loopback HTTP overhead to subtract.
func TestOpenLoopReadsServerDelayNotTimerOversleep(t *testing.T) {
	run := func(delay time.Duration) (p50, lag float64) {
		srv := stubServer(t, delay, time.Time{}, 0)
		send := stubSend(srv.URL)
		send(0, 0) // open both connections before timing
		send(1, 1)
		p := openLoop(500, time.Second, time.Second/10, senders, send)
		if p.failed != 0 {
			t.Fatalf("%d failures: %v", p.failed, p.firstErr)
		}
		return newDist(p.latencies()).percentile(50), newDist(sentOnly(p.lag)).percentile(50)
	}
	base, _ := run(0)
	p50, lag := run(200 * time.Microsecond)
	t.Logf("p50 latency %.3f ms (%.3f ms with no delay), p50 lag %.3f ms", p50, base, lag)
	if d := p50 - base; d < 0.15 || d > 0.3 {
		t.Errorf("p50 latency %.3f ms − %.3f ms overhead = %.3f ms, want the stub's 0.2 ms delay (p50 lag %.3f ms)",
			p50, base, d, lag)
	}
}

// TestOpenLoopChargesStallToQueuedRequests: a stub that stalls once for
// 50 ms must charge the stall to every request that fell due during it,
// from its due time, while generator lag stays separate.
func TestOpenLoopChargesStallToQueuedRequests(t *testing.T) {
	const rate = 1000.0 // one request per ms, 2 ms apart per sender
	start := time.Now()
	stallAt := start.Add(500 * time.Millisecond)
	srv := stubServer(t, 0, stallAt, 50*time.Millisecond)
	p := openLoop(rate, time.Second, time.Second/10, senders, stubSend(srv.URL))
	if p.failed != 0 {
		t.Fatalf("%d failures: %v", p.failed, p.firstErr)
	}
	// The stalled request is the first due at or after 500 ms on one
	// sender; the ~25 requests that sender had due during the next 50 ms
	// wait behind it, each charged from its own due time, so the latency
	// of the k-th queued request is about 50 ms − k × 2 ms.
	var over10 int
	maxLat := 0.0
	for _, v := range p.lat {
		if v > 10 {
			over10++
		}
		maxLat = max(maxLat, v)
	}
	t.Logf("max latency %.2f ms, %d requests over 10 ms", maxLat, over10)
	if maxLat < 45 {
		t.Errorf("max latency %.2f ms, want ≈ 50 ms (the stall)", maxLat)
	}
	if over10 < 15 {
		t.Errorf("%d requests over 10 ms, want ≥ 15: the stall must be charged to the requests due during it", over10)
	}
	lagP99 := newDist(sentOnly(p.lag)).percentile(99)
	if lagP99 > 10 {
		t.Errorf("generator lag p99 %.2f ms: the stall leaked into lag", lagP99)
	}
}

// TestOpenLoopGraceCatchesUpAfterLateStall: a 60 ms stall 20 ms before
// the end of a 250 ms phase leaves a backlog at the phase's end. With a
// grace longer than the stall every request is still sent and charged
// from its due time; with a grace shorter than the stall the stalled
// sender stops and its unsent requests count as failed.
func TestOpenLoopGraceCatchesUpAfterLateStall(t *testing.T) {
	const rate = 1000.0
	run := func(grace time.Duration) phase {
		start := time.Now()
		srv := stubServer(t, 0, start.Add(230*time.Millisecond), 60*time.Millisecond)
		return openLoop(rate, 250*time.Millisecond, grace, senders, stubSend(srv.URL))
	}
	if p := run(time.Second); p.failed != 0 || p.sent != p.scheduled {
		t.Errorf("grace 1 s: %d of %d sent, %d failed, want all sent and none failed", p.sent, p.scheduled, p.failed)
	}
	if p := run(10 * time.Millisecond); p.sent == p.scheduled || p.failed != p.scheduled-p.sent {
		t.Errorf("grace 10 ms: %d of %d sent, %d failed, want the unsent ones failed", p.sent, p.scheduled, p.failed)
	}
}

// TestMetricsMatchBenchmarkFile keeps the metric lists here and in
// BENCHMARK.json in step.
func TestMetricsMatchBenchmarkFile(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var file struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	check := func(label string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", label, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), benchmark %s (%s)", label, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", file.EndToEnd, endToEnd)
	check("per_layer", file.PerLayer, perLayer)
}
