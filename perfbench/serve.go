package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"memhier/internal/server"
)

// Load shape shared by both serve workloads: at most nproc = 2 sending
// goroutines, each with its own connection per node.
const senders = 2

// The serve workloads measure in rounds, so a disturbance of the host
// (a noisy neighbour, a collection burst) lands in a few rounds of every
// phase rather than in all of one phase. Each round runs, in shares of
// its time: the lo rate, the hi rate, the batch requests, then probesPer
// probes of the capacity search.
const (
	rounds     = 30
	loShare    = 0.25
	hiShare    = 0.25
	batchShare = 0.1
	probeShare = 0.35
	probesPer  = 2
	// The capacity search starts at startProbe × the hi rate; each
	// workload caps it at its own multiple of hi.
	startProbe = 2.0
	// fixedGrace is how long a frozen-rate phase keeps sending after its
	// end to catch up with a backlog. At the frozen rates a backlog comes
	// only from a host stall, and tens of milliseconds are common on a
	// shared host; what is still unsent after fixedGrace counts as
	// failed. A capacity probe keeps a tenth of its length, so a probe
	// above capacity does not run on.
	fixedGrace = time.Second
)

// node is one in-process chc-serve instance on a loopback listener.
type node struct {
	name string
	url  string
	srv  *server.Server
	hs   *http.Server
	done chan struct{}
}

// activeTracer is the tracer the handler and forwarder wrappers record
// into; it is set only during the phases whose spans are kept.
type activeTracer struct{ p atomic.Pointer[tracer] }

func (a *activeTracer) get() *tracer { return a.p.Load() }

// listen opens a loopback listener and returns it with its base URL.
func listen() (net.Listener, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	return ln, "http://" + ln.Addr().String(), nil
}

// startNode serves srv on ln. With a tracer switch, the handler is
// wrapped to record one span per request, named by its X-Cache answer.
func startNode(name, url string, ln net.Listener, srv *server.Server, at *activeTracer) *node {
	h := srv.Handler()
	if at != nil {
		inner := h
		h = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			t := at.get()
			if t == nil {
				inner.ServeHTTP(w, r)
				return
			}
			start := time.Now()
			inner.ServeHTTP(w, r)
			end := time.Now()
			kind := w.Header().Get("X-Cache")
			if kind == "" {
				kind = "other"
			}
			t.record("server."+kind, r.Header.Get("X-Request-ID"), start, end)
		})
	}
	n := &node{name: name, url: url, srv: srv, hs: &http.Server{Handler: h}, done: make(chan struct{})}
	go func() {
		defer close(n.done)
		if err := n.hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Printf("node %s: serve: %v\n", name, err)
		}
	}()
	return n
}

// stop shuts the node down and waits for its serving goroutine.
func (n *node) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	n.srv.BeginDrain()
	_ = n.hs.Shutdown(ctx) // a timeout only means idle keep-alives lingered
	<-n.done
	n.srv.Close()
}

// metricInt reads an integer counter from a server metrics snapshot.
func metricInt(m map[string]any, key string) int64 {
	v, _ := m[key].(int64)
	return v
}

// reqID builds a request ID unique within the run.
func reqID(tag byte, phase, i int) string {
	b := make([]byte, 0, 24)
	b = append(b, tag)
	b = strconv.AppendInt(b, int64(phase), 10)
	b = append(b, '-')
	b = strconv.AppendInt(b, int64(i), 10)
	return string(b)
}

// servePhases runs the open-loop phases every serve workload shares: the
// frozen lo and hi rates and the capacity search, round by round.
type servePhases struct {
	b       *bench
	at      *activeTracer
	hiRate  float64
	limitMs float64 // p99 latency limit of the capacity search
	send    func(phaseID int) sendFunc
	advance func(n int) // optional: called with each phase's scheduled count
	phaseID int
	stair   *stair
	lat     map[string][]float64 // per label: latencies pooled over rounds
	p90s    map[string][]float64 // per label: one p90 per round
	p99s    map[string][]float64 // per label: one p99 per round
	lags    []float64
}

func newServePhases(b *bench, at *activeTracer, hiRate, maxProbe, limitMs float64, send func(int) sendFunc) *servePhases {
	return &servePhases{b: b, at: at, hiRate: hiRate, limitMs: limitMs, send: send,
		stair: &stair{rate: startProbe * hiRate, maxRate: maxProbe * hiRate, step: 0.10, minStep: 0.015},
		lat:   map[string][]float64{}, p90s: map[string][]float64{}, p99s: map[string][]float64{}}
}

// run is one open-loop phase with the workload's sender.
func (s *servePhases) run(rate float64, dur, grace time.Duration) phase {
	s.phaseID++
	p := openLoop(rate, dur, grace, senders, s.send(s.phaseID))
	if s.advance != nil {
		s.advance(p.scheduled)
	}
	return p
}

// fixed runs one round of a frozen-rate phase and counts its operations;
// every request is one, and a never-sent request is a failed one.
func (s *servePhases) fixed(label string, rate float64, dur time.Duration) {
	if s.b.tr != nil {
		s.at.p.Store(s.b.tr)
	}
	p := s.run(rate, dur, fixedGrace)
	s.at.p.Store(nil)
	s.b.attempted += p.scheduled
	s.b.failed += p.failed
	if p.firstErr != nil {
		s.b.checkFail("%s phase: %v", label, p.firstErr)
	}
	if p.sent < p.scheduled {
		s.b.checkFail("%s phase: %d of %d requests never sent (backlog)", label, p.scheduled-p.sent, p.scheduled)
	}
	lat := p.latencies()
	s.lat[label] = append(s.lat[label], lat...)
	s.p90s[label] = append(s.p90s[label], newDist(lat).percentile(90))
	s.p99s[label] = append(s.p99s[label], p.p99())
	s.lags = append(s.lags, sentOnly(p.lag)...)
}

// probes runs n probes of the capacity search. Probe requests are counted
// as operations; only transport errors and failed checks count as
// failures (a probe above capacity is expected to miss its limit).
func (s *servePhases) probes(n int, dur time.Duration) {
	for k := 0; k < n; k++ {
		rate := s.stair.rate
		p := s.run(rate, dur, dur/10)
		s.b.attempted += p.sent
		for _, v := range p.lat {
			if math.IsInf(v, 1) {
				s.b.failed++
			}
		}
		if p.firstErr != nil {
			s.b.checkFail("capacity probe at %.0f/s: %v", rate, p.firstErr)
		}
		ok := p.passes(s.limitMs)
		s.b.logf("  probe %.0f/s: p99=%.3f ms achieved=%.4f grows=%v pass=%v",
			rate, p.p99(), p.achieved(), p.backlogGrows(), ok)
		s.stair.record(ok)
	}
}

// rounds runs every round: lo, hi, the workload's batch step, probes.
func (s *servePhases) rounds(loRate float64, batch func(time.Duration) error) error {
	round := s.b.budget(1.0 / rounds)
	share := func(f float64) time.Duration { return time.Duration(f * float64(round)) }
	for r := 0; r < rounds; r++ {
		s.fixed("lo", loRate, share(loShare))
		s.fixed("hi", s.hiRate, share(hiShare))
		if err := batch(share(batchShare)); err != nil {
			return err
		}
		s.probes(probesPer, share(probeShare)/probesPer)
	}
	for _, label := range []string{"lo", "hi"} {
		lat := s.lat[label]
		s.b.set(label+".p50_ms", newDist(lat).percentile(50))
		// The tails are the lower quartile over rounds of each round's
		// percentile. A stretch in which a noisy host slows the process
		// only ever raises the tails of the rounds it covers, and such
		// stretches last from a second to minutes, so a median over
		// rounds still follows them; the lower quartile reads the
		// program in the run's quieter rounds.
		q1, _, _ := quartiles(s.p90s[label])
		s.b.set(label+".p90_ms", q1)
		q1, _, _ = quartiles(s.p99s[label])
		s.b.set(label+".p99_ms", q1)
		s.b.logDist(label+" latency", lat)
		s.b.logf("  %-28s per-round p90 %v", label, s.p90s[label])
		s.b.logf("  %-28s per-round p99 %v", label, s.p99s[label])
	}
	s.b.logDist("gen.lag", s.lags)
	s.b.set("capacity_per_s", s.stair.estimate())
	s.b.logf("capacity: %.0f/s", s.stair.estimate())
	if s.b.tr != nil {
		d := newDist(s.lags)
		s.b.set("gen.lag_p50_ms", d.percentile(50))
		s.b.set("gen.lag_p99_ms", d.percentile(99))
	}
	return nil
}

// spanLayers derives the server- and HTTP-layer metrics from the trace:
// handler time split by X-Cache, and the client's send→done time minus
// the handler spans it contains.
func spanLayers(b *bench) {
	spans, self, _ := b.tr.finish()
	var hit, miss, overhead, fwd []float64
	var clients, forwards int
	for _, s := range spans {
		us := float64(s.dur()) / 1e3
		switch s.Name {
		case "server.hit":
			hit = append(hit, us)
		case "server.miss":
			miss = append(miss, float64(self[s.ID])/1e3)
		case "client":
			clients++
			if float64(self[s.ID]) < float64(s.dur()) {
				overhead = append(overhead, float64(self[s.ID])/1e3)
			}
		case "cluster.forward":
			forwards++
			fwd = append(fwd, us)
		}
	}
	set := func(name string, xs []float64) {
		if len(xs) > 0 {
			b.set(name, median(xs))
		}
	}
	set("server.hit_us", hit)
	set("server.miss_us", miss)
	set("http.overhead_us", overhead)
	set("cluster.forward_us", fwd)
	if clients > 0 && forwards > 0 {
		b.set("cluster.forward_share", float64(forwards)/float64(clients))
	}
}
