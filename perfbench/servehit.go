package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"memhier/internal/machine"
	"memhier/internal/server"
)

// Frozen serve-hit rates (requests/s): about ¼ and ⅔ of the capacity
// measured at seed 1 on a 2-CPU host (see README.md).
const (
	hitLoRate  = 4000
	hitHiRate  = 8000
	hitLimitMs = 10 // p99 limit of the capacity search
	// hitMaxProbe caps the capacity search at this multiple of the hi rate
	// (capacity has read up to 4 × hi on a quiet host).
	hitMaxProbe = 6
)

// paperWorkloadNames are the five workloads of the paper's Table 2.
var paperWorkloadNames = []string{"FFT", "LU", "Radix", "EDGE", "TPC-C"}

// goldenShapes are the request shapes whose /v1/predict bodies are
// checked in under internal/server/testdata/golden_predict.
func goldenShapes() []struct {
	label string
	req   server.PredictRequest
} {
	return []struct {
		label string
		req   server.PredictRequest
	}{
		{"c4_fft", server.PredictRequest{
			Config: server.ConfigSpec{Name: "C4"}, Workload: server.WorkloadSpec{Name: "FFT"}}},
		{"c11_radix", server.PredictRequest{
			Config: server.ConfigSpec{Name: "C11"}, Workload: server.WorkloadSpec{Name: "Radix"}}},
		{"c13_div16_lu", server.PredictRequest{
			Config: server.ConfigSpec{Name: "C13", Divisor: 16}, Workload: server.WorkloadSpec{Name: "LU"}}},
		{"custom_smp_edge", server.PredictRequest{
			Config: server.ConfigSpec{Kind: "smp", Procs: 4, CacheBytes: 512 << 10,
				MemoryBytes: 128 << 20, ClockMHz: 400},
			Workload: server.WorkloadSpec{Name: "EDGE"}}},
		{"custom_csmp_lu", server.PredictRequest{
			Config: server.ConfigSpec{Kind: "csmp", Machines: 4, Procs: 2, CacheBytes: 256 << 10,
				MemoryBytes: 128 << 20, Net: "atm"},
			Workload: server.WorkloadSpec{Name: "LU"}}},
		{"custom_ws_tpcc", server.PredictRequest{
			Config: server.ConfigSpec{Kind: "ws", Machines: 8, CacheBytes: 512 << 10,
				MemoryBytes: 64 << 20, Net: "100"},
			Workload: server.WorkloadSpec{Name: "TPC-C"}}},
	}
}

// hitKey is one cached request: its body and the exact response body
// every later request must return.
type hitKey struct {
	label string
	req   server.PredictRequest
	body  []byte
	want  []byte
}

// hitEnv is a set-up serve-hit system.
type hitEnv struct {
	node  *node
	keys  []hitKey
	order []int // seed permutation of the key indexes
}

// hitKeys builds the fixed key set: C1–C15 and the modern presets × the
// five paper workloads, then the six golden shapes.
func hitKeys() ([]hitKey, error) {
	var keys []hitKey
	var names []string
	for _, c := range machine.Catalog() {
		names = append(names, c.Name)
	}
	for _, c := range machine.ModernCatalog() {
		names = append(names, c.Name)
	}
	for _, n := range names {
		for _, w := range paperWorkloadNames {
			keys = append(keys, hitKey{label: n + "/" + w, req: server.PredictRequest{
				Config: server.ConfigSpec{Name: n}, Workload: server.WorkloadSpec{Name: w}}})
		}
	}
	for _, g := range goldenShapes() {
		keys = append(keys, hitKey{label: "golden:" + g.label, req: g.req})
	}
	for i := range keys {
		body, err := json.Marshal(keys[i].req)
		if err != nil {
			return nil, err
		}
		keys[i].body = body
	}
	return keys, nil
}

// setupHit starts one node, warms its cache with every key (checking the
// golden shapes byte for byte), and permutes the request order by seed.
func setupHit(b *bench, at *activeTracer) (*hitEnv, error) {
	keys, err := hitKeys()
	if err != nil {
		return nil, err
	}
	ln, url, err := listen()
	if err != nil {
		return nil, err
	}
	env := &hitEnv{node: startNode("n0", url, ln, server.New(server.Config{}), at), keys: keys}
	snd := newSender()
	defer snd.close()
	for i := range env.keys {
		k := &env.keys[i]
		_, _, body, err := snd.post(url+"/v1/predict", "", k.body)
		if err != nil {
			env.node.stop()
			return nil, fmt.Errorf("warm %s: %w", k.label, err)
		}
		k.want = append([]byte(nil), body...)
		if label, ok := strings.CutPrefix(k.label, "golden:"); ok {
			golden, err := os.ReadFile(filepath.Join(b.root, "internal", "server", "testdata", "golden_predict", label+".json"))
			if err != nil {
				env.node.stop()
				return nil, err
			}
			b.attempted++
			if !bytes.Equal(golden, k.want) {
				b.failed++
				b.checkFail("golden %s: /v1/predict body differs from the checked-in body", label)
			}
		}
	}
	rng := rand.New(rand.NewPCG(b.seed, 0x68697473))
	env.order = rng.Perm(len(env.keys))
	return env, nil
}

// runSetups sets up at least setupMinReps times and then again while
// less than setupBudget has been spent (at most setupMaxReps times),
// tearing down all but the last, and sets setup_s to the median set-up
// time. A set-up of a few milliseconds is repeated often enough that its
// median is steady; a slow one is not repeated past the minimum.
func runSetups[T any](b *bench, setup func() (T, error), teardown func(T)) (T, error) {
	var env T
	var times []float64
	var spent time.Duration
	for r := 0; r < setupMinReps || (spent < setupBudget && r < setupMaxReps); r++ {
		if r > 0 {
			teardown(env)
			var zero T
			env = zero
			runtime.GC()
		}
		start := time.Now()
		var err error
		env, err = setup()
		if err != nil {
			return env, err
		}
		d := time.Since(start)
		spent += d
		times = append(times, d.Seconds())
	}
	b.logf("setup: %d set-ups, seconds %v", len(times), times)
	b.set("setup_s", median(times))
	return env, nil
}

// Each run sets up between setupMinReps and setupMaxReps times; setup_s
// is the median.
const (
	setupMinReps = 3
	setupMaxReps = 21
	setupBudget  = time.Second
)

func runServeHit(b *bench) error {
	at := &activeTracer{}
	env, err := runSetups(b, func() (*hitEnv, error) { return setupHit(b, at) },
		func(e *hitEnv) { e.node.stop() })
	if err != nil {
		return err
	}
	defer env.node.stop()
	url := env.node.url + "/v1/predict"

	snds := []*sender{newSender(), newSender()}
	defer func() {
		for _, s := range snds {
			s.close()
		}
	}()
	var hits, answers atomic.Int64
	send := func(phaseID int) sendFunc {
		return func(k, i int) error {
			key := &env.keys[env.order[i%len(env.order)]]
			id := reqID('h', phaseID, i)
			t := at.get()
			start := time.Now()
			_, hdr, body, err := snds[k].post(url, id, key.body)
			t.record("client", id, start, time.Now())
			if err != nil {
				return err
			}
			answers.Add(1)
			if hdr.Get("X-Cache") == "hit" {
				hits.Add(1)
			} else {
				return fmt.Errorf("%s: X-Cache %q, want hit", key.label, hdr.Get("X-Cache"))
			}
			if !bytes.Equal(body, key.want) {
				return fmt.Errorf("%s: body differs from the warmed answer", key.label)
			}
			return nil
		}
	}
	batch, err := newHitBatch(b, env)
	if err != nil {
		return err
	}
	defer batch.snd.close()
	ph := newServePhases(b, at, hitHiRate, hitMaxProbe, hitLimitMs, send)
	if err := ph.rounds(hitLoRate, batch.round); err != nil {
		return err
	}
	b.set("batch_s", median(batch.times))
	b.logf("batch: %d /v1/batch requests of %d points, median %.6f s", len(batch.times), len(batch.want), median(batch.times))

	if b.tr != nil {
		spanLayers(b)
		m := env.node.srv.Metrics()
		b.set("server.dedup_waits", float64(metricInt(m, "dedup_waits")))
		b.set("server.shed", float64(metricInt(m, "shed")))
		if n := answers.Load(); n > 0 {
			b.set("server.hit_ratio", float64(hits.Load())/float64(n))
		}
		allocs, bytesPer := hitAllocs(env)
		b.set("server.hit_allocs", allocs)
		b.set("server.hit_bytes", bytesPer)
	}
	return nil
}

// hitBatch posts the whole key set as one /v1/batch request. Every point
// must be a cache hit whose bytes are the compact form of the warmed
// answer; batch_s is the median request time.
type hitBatch struct {
	b     *bench
	url   string
	body  []byte
	want  [][]byte
	snd   *sender
	times []float64
}

func newHitBatch(b *bench, env *hitEnv) (*hitBatch, error) {
	req := server.BatchRequest{}
	hb := &hitBatch{b: b, url: env.node.url + "/v1/batch", snd: newSender()}
	for _, idx := range env.order {
		req.Requests = append(req.Requests, env.keys[idx].req)
		var c bytes.Buffer
		if err := json.Compact(&c, env.keys[idx].want); err != nil {
			return nil, err
		}
		hb.want = append(hb.want, c.Bytes())
	}
	var err error
	hb.body, err = json.Marshal(req)
	return hb, err
}

// round sends batch requests back to back for budget (at least once).
func (hb *hitBatch) round(budget time.Duration) error {
	deadline := time.Now().Add(budget)
	for first := true; first || time.Now().Before(deadline); first = false {
		start := time.Now()
		_, _, resp, err := hb.snd.post(hb.url, "", hb.body)
		hb.times = append(hb.times, time.Since(start).Seconds())
		if err == nil {
			err = checkGrid(resp, hb.want, len(hb.want), true)
		}
		hb.b.op(err)
	}
	return nil
}

// checkGrid validates an NDJSON grid stream: points in index order with
// status 200, predict bodies equal to want (when given), every point a
// hit when allHits, and a complete, error-free summary trailer.
func checkGrid(stream []byte, want [][]byte, points int, allHits bool) error {
	dec := json.NewDecoder(bytes.NewReader(stream))
	for seen := 0; ; seen++ {
		var line struct {
			server.SweepLine
			Points   int  `json:"points"`
			Errors   int  `json:"errors"`
			Complete bool `json:"complete"`
		}
		if err := dec.Decode(&line); err != nil {
			return fmt.Errorf("grid: decode: %w", err)
		}
		if line.Kind == "summary" {
			if seen != points || line.Points != points || line.Errors != 0 || !line.Complete {
				return fmt.Errorf("grid: %d lines, summary points=%d errors=%d complete=%v; want %d complete",
					seen, line.Points, line.Errors, line.Complete, points)
			}
			return nil
		}
		if line.Index != seen || line.Status != http.StatusOK {
			return fmt.Errorf("grid point %d (line %d): status %d", line.Index, seen, line.Status)
		}
		if allHits && line.Cache != "hit" {
			return fmt.Errorf("grid point %d: cache %q, want hit", line.Index, line.Cache)
		}
		if want != nil && !bytes.Equal(line.Response, want[line.Index]) {
			return fmt.Errorf("grid point %d: body differs from the warmed answer", line.Index)
		}
	}
}

// hitAllocs measures allocations per cached /v1/predict answer through
// direct Handler().ServeHTTP calls, net of the request and recorder
// construction the loop itself does.
func hitAllocs(env *hitEnv) (allocs, bytesPer float64) {
	const n = 3000
	h := env.node.srv.Handler()
	measure := func(h http.Handler) (float64, float64) {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 0; i < n; i++ {
			key := &env.keys[env.order[i%len(env.order)]]
			r := httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(key.body))
			h.ServeHTTP(httptest.NewRecorder(), r)
		}
		runtime.ReadMemStats(&after)
		return float64(after.Mallocs-before.Mallocs) / n, float64(after.TotalAlloc-before.TotalAlloc) / n
	}
	baseA, baseB := measure(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}))
	a, by := measure(h)
	return a - baseA, by - baseB
}
