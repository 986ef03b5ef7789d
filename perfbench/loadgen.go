package main

import (
	"bytes"
	"fmt"
	"math"
	"net/http"
	"sync"
	"time"
)

// sendFunc performs request i on sender k's own connection and returns a
// non-nil error when the request failed: a transport error, a non-2xx
// status, or a failed output check.
type sendFunc func(k, i int) error

// phase is the outcome of one open-loop phase at a fixed offered rate.
type phase struct {
	scheduled int // requests due inside the phase
	sent      int // requests sent before the sender gave up on the backlog
	onTime    int // requests completed inside the phase (plus 1% grace)
	failed    int // sent and failed, plus scheduled but never sent
	firstErr  error
	// Per request, in due order (NaN where never sent): latency from the
	// charged start, generator oversleep, and how late the send was
	// against its due time. Failures carry +Inf latency.
	lat, lag, late []float64
	done           []bool // completed inside the phase window
}

// openLoop offers rate requests per second for dur, from `senders`
// goroutines that each own one connection; request i is due at
// i/rate and goes to sender i mod senders. Latency is charged from the
// due time when the sender was held back by its busy connection, and
// from the actual send when the sender was idle and its timer overslept;
// the oversleep is reported separately as lag. A sender still behind
// schedule grace after the phase ends stops; what it never sent counts
// as failed.
func openLoop(rate float64, dur, grace time.Duration, senders int, send sendFunc) phase {
	p := phase{scheduled: int(rate * dur.Seconds())}
	interval := float64(time.Second) / rate
	p.lat = make([]float64, p.scheduled)
	p.lag = make([]float64, p.scheduled)
	p.late = make([]float64, p.scheduled)
	p.done = make([]bool, p.scheduled)
	for i := range p.lat {
		p.lat[i], p.lag[i], p.late[i] = math.NaN(), math.NaN(), math.NaN()
	}
	deadline := dur + grace
	t0 := time.Now()
	var mu sync.Mutex
	var wg sync.WaitGroup
	for k := 0; k < senders; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			var wake time.Duration // when this sender last woke from sleep
			for i := k; i < p.scheduled; i += senders {
				due := time.Duration(float64(i) * interval)
				now := time.Since(t0)
				if now > deadline {
					return
				}
				if now < due {
					time.Sleep(due - now)
					wake = time.Since(t0)
					now = wake
				}
				start := max(due, wake)
				err := send(k, i)
				done := time.Since(t0)
				lat := float64(done-start) / 1e6
				if err != nil {
					lat = math.Inf(1)
					mu.Lock()
					if p.firstErr == nil {
						p.firstErr = fmt.Errorf("request %d: %w", i, err)
					}
					mu.Unlock()
				}
				p.lat[i] = lat
				if done <= dur+dur/100 {
					p.done[i] = true
				}
				p.lag[i] = float64(max(0, wake-due)) / 1e6
				p.late[i] = float64(now-due) / 1e6
			}
		}(k)
	}
	wg.Wait()
	for i := range p.lat {
		if p.done[i] {
			p.onTime++
		}
		switch {
		case math.IsNaN(p.lat[i]):
			p.failed++
		case math.IsInf(p.lat[i], 1):
			p.sent++
			p.failed++
		default:
			p.sent++
		}
	}
	return p
}

// latencies returns the latency samples in due order, with never-sent
// requests as +Inf (they missed every limit).
func (p phase) latencies() []float64 {
	out := make([]float64, len(p.lat))
	for i, v := range p.lat {
		if math.IsNaN(v) {
			v = math.Inf(1)
		}
		out[i] = v
	}
	return out
}

// sentOnly drops the never-sent entries of xs.
func sentOnly(xs []float64) []float64 {
	out := make([]float64, 0, len(xs))
	for _, v := range xs {
		if !math.IsNaN(v) {
			out = append(out, v)
		}
	}
	return out
}

// achieved is achieved/offered: the share of the offered requests
// completed inside the phase window.
func (p phase) achieved() float64 {
	if p.scheduled == 0 {
		return 0
	}
	return float64(p.onTime) / float64(p.scheduled)
}

// backlogGrows reports whether the sender fell further behind schedule
// over the phase: the median lateness over the last quarter of the
// requests exceeds that of the first quarter by more than 5 ms. Medians
// keep one garbage-collection pause from reading as a backlog.
func (p phase) backlogGrows() bool {
	n := len(p.late)
	if n < 8 {
		return false
	}
	med := func(xs []float64) float64 {
		var sent []float64
		for _, v := range xs {
			if !math.IsNaN(v) {
				sent = append(sent, v)
			}
		}
		if len(sent) == 0 {
			return math.Inf(1)
		}
		return median(sent)
	}
	return med(p.late[3*n/4:]) > med(p.late[:n/4])+5
}

// p99 is the phase's tail latency: the median of the p99s of up to five
// consecutive windows of at least 1000 requests each, so one disturbed
// window (a collection pause, a noisy neighbour) does not decide it.
// Failed and never-sent requests count as misses (+Inf).
func (p phase) p99() float64 {
	lat := p.latencies()
	return windowed(lat, min(5, len(lat)/1000), func(d dist) float64 { return d.percentile(99) })
}

// passes is the max-rate criterion: p99 under the limit, at least 99% of
// the offered requests sent, and no growing backlog.
func (p phase) passes(limitMs float64) bool {
	return p.p99() <= limitMs && p.achieved() >= 0.99 && !p.backlogGrows()
}

// stair estimates the highest rate a noisy probe accepts. Starting at
// rate (never above maxRate), each accepted probe raises the rate by the
// current step and each rejected one lowers it; the step (a fraction of
// the rate) halves at every reversal down to minStep. The estimate is the
// median of the rates probed in the second half, where the staircase
// oscillates around the rate accepted half the time.
type stair struct {
	rate, maxRate, step, minStep float64
	last                         int // +1 after an accept, -1 after a reject
	rates                        []float64
}

// record reports whether the probe at the current rate passed and moves
// to the next rate.
func (s *stair) record(pass bool) {
	s.rates = append(s.rates, s.rate)
	dir := -1
	if pass {
		dir = 1
	}
	if s.last != 0 && dir != s.last {
		s.step = max(s.step/2, s.minStep)
	}
	s.last = dir
	s.rate = min(s.rate*(1+float64(dir)*s.step), s.maxRate)
}

func (s *stair) estimate() float64 { return median(s.rates[len(s.rates)/2:]) }

// sender is one load-generating goroutine's HTTP client: its own
// transport, so its keep-alive connections are its own.
type sender struct {
	client *http.Client
	buf    bytes.Buffer
}

func newSender() *sender {
	return &sender{client: &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 4,
		DisableCompression:  true,
	}}}
}

// post sends body to url with the given request ID and returns the
// status, headers and response body (valid until the next post).
func (s *sender) post(url, reqID string, body []byte) (int, http.Header, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if reqID != "" {
		req.Header.Set("X-Request-ID", reqID)
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	s.buf.Reset()
	if _, err := s.buf.ReadFrom(resp.Body); err != nil {
		return resp.StatusCode, resp.Header, nil, err
	}
	if resp.StatusCode/100 != 2 {
		return resp.StatusCode, resp.Header, s.buf.Bytes(), fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(s.buf.Bytes()))
	}
	return resp.StatusCode, resp.Header, s.buf.Bytes(), nil
}

func (s *sender) close() {
	s.client.CloseIdleConnections()
}
