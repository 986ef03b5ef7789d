package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one request
// share its request ID; Parent is filled by nest at exit.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0: root
	Name   string `json:"name"`
	Req    string `json:"req,omitempty"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory. A nil *tracer records nothing, so the
// untraced run pays one nil check per boundary.
type tracer struct {
	epoch   time.Time
	limit   int
	mu      sync.Mutex
	spans   []span // guarded by mu
	dropped int    // guarded by mu
}

// maxSpans caps the in-memory trace; spans past it are counted, not kept.
const maxSpans = 400000

func newTracer() *tracer { return &tracer{epoch: time.Now(), limit: maxSpans} }

// record stores one span; it is safe for concurrent use.
func (t *tracer) record(name, req string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= t.limit {
		t.dropped++
		return
	}
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Name: name, Req: req,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds(),
	})
}

// finish nests the recorded spans and returns them with their self times
// and the count of spans dropped past the cap.
func (t *tracer) finish() ([]span, map[int]time.Duration, int) {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	dropped := t.dropped
	t.mu.Unlock()
	nest(spans)
	return spans, selfTimes(spans), dropped
}

// nest assigns each span's parent: the shortest span of the same request
// that contains its interval (spans without a request ID stay roots).
func nest(spans []span) {
	byReq := map[string][]int{}
	for i := range spans {
		spans[i].Parent = 0
		if spans[i].Req != "" {
			byReq[spans[i].Req] = append(byReq[spans[i].Req], i)
		}
	}
	for _, idx := range byReq {
		// Outer spans first: earlier start, then later end, then the
		// earlier-recorded ID (children record after their parents end,
		// so equal intervals nest by recording order reversed).
		sort.Slice(idx, func(a, b int) bool {
			x, y := spans[idx[a]], spans[idx[b]]
			if x.Start != y.Start {
				return x.Start < y.Start
			}
			if x.End != y.End {
				return x.End > y.End
			}
			return x.ID > y.ID
		})
		var stack []int
		for _, i := range idx {
			for len(stack) > 0 && spans[stack[len(stack)-1]].End < spans[i].End {
				stack = stack[:len(stack)-1]
			}
			if len(stack) > 0 {
				spans[i].Parent = spans[stack[len(stack)-1]].ID
			}
			stack = append(stack, i)
		}
	}
}

// selfTimes returns each span's duration minus the part of its interval
// covered by its children (overlapping children are counted once).
func selfTimes(spans []span) map[int]time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		var covered int64
		cur, curEnd := int64(-1), int64(-1)
		for _, k := range kids {
			lo, hi := max(k.Start, s.Start), min(k.End, s.End)
			if hi <= lo {
				continue
			}
			if lo > curEnd {
				if curEnd > cur {
					covered += curEnd - cur
				}
				cur, curEnd = lo, hi
			} else if hi > curEnd {
				curEnd = hi
			}
		}
		if curEnd > cur {
			covered += curEnd - cur
		}
		self[s.ID] = s.dur() - time.Duration(covered)
	}
	return self
}

// writeSpans writes the spans as JSON lines (one span per line, with its
// self time) under dir, returning the file's path.
func writeSpans(dir, name string, spans []span, self map[int]time.Duration, dropped int) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	type line struct {
		span
		SelfNs int64 `json:"self_ns"`
	}
	for _, s := range spans {
		if err := enc.Encode(line{s, self[s.ID].Nanoseconds()}); err != nil {
			return "", err
		}
	}
	if dropped > 0 {
		fmt.Fprintf(w, "{\"dropped\":%d}\n", dropped)
	}
	if err := w.Flush(); err != nil {
		return "", err
	}
	return path, f.Close()
}
