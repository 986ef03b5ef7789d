package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand/v2"
	"net"
	"strconv"
	"time"

	"memhier/internal/cluster"
	"memhier/internal/core"
	"memhier/internal/cost"
	"memhier/internal/experiments"
	"memhier/internal/machine"
	"memhier/internal/server"
)

// Frozen serve-miss rates (requests/s over the whole ring): about ¼ and
// ⅔ of the capacity measured at seed 1 on a 2-CPU host (see README.md).
const (
	missLoRate  = 1200
	missHiRate  = 2500
	missLimitMs = 20 // p99 limit of the capacity search
	// missMaxProbe caps the capacity search at this multiple of the hi
	// rate (capacity has read up to 3.7 × hi); it also bounds the keys the
	// search can use.
	missMaxProbe = 4
)

// Ring and grid shape.
const (
	ringNodes = 3
	// warmKeys distinct keys are sent during set-up, so every node caches
	// more than the default 4096 entries and every measured insert evicts.
	warmKeys = 9216
	// gridConfigs fresh configurations × the five paper workloads, plus
	// one budget line per workload over gridBudgets budgets, make a grid.
	gridConfigs = 24
	gridBudgets = 4
)

// keyGen draws distinct feasible platforms from the seed: smp/ws/csmp
// kinds, processor and machine counts, clock, memory, and about half of
// them with a 2–3 level cache hierarchy.
type keyGen struct {
	rng  *rand.Rand
	seen map[uint64]bool // FNV-1a of each resolved platform drawn
	wls  map[string]core.Workload
}

func newKeyGen(seed uint64) (*keyGen, error) {
	g := &keyGen{rng: rand.New(rand.NewPCG(seed, 0x6d697373)), seen: map[uint64]bool{}, wls: map[string]core.Workload{}}
	for _, n := range paperWorkloadNames {
		wl, err := experiments.ResolveWorkload(n, false)
		if err != nil {
			return nil, err
		}
		g.wls[n] = wl
	}
	return g, nil
}

// spec draws one platform description.
func (g *keyGen) spec() server.ConfigSpec {
	r := g.rng
	nets := []string{"10", "100", "atm"}
	var s server.ConfigSpec
	switch r.IntN(3) {
	case 0:
		s = server.ConfigSpec{Kind: "smp", Machines: 1, Procs: 1 + r.IntN(16)}
	case 1:
		s = server.ConfigSpec{Kind: "ws", Machines: 2 + r.IntN(15), Procs: 1, Net: nets[r.IntN(3)]}
	default:
		s = server.ConfigSpec{Kind: "csmp", Machines: 2 + r.IntN(7), Procs: 2 + r.IntN(7), Net: nets[r.IntN(3)]}
	}
	s.ClockMHz = float64(100 * (1 + r.IntN(30)))
	s.MemoryBytes = (16 << 20) << r.IntN(6)
	if r.IntN(2) == 0 {
		s.CacheBytes = (64 << 10) << r.IntN(5)
		return s
	}
	l1 := int64(16<<10) << r.IntN(3)
	s.Levels = []machine.CacheLevel{{Bytes: l1, LatencyCycles: float64(1 + r.IntN(4))}}
	l2 := l1 << (1 + r.IntN(4))
	s.Levels = append(s.Levels, machine.CacheLevel{Bytes: l2, LatencyCycles: float64(8 + r.IntN(13))})
	if r.IntN(2) == 0 {
		s.Levels = append(s.Levels, machine.CacheLevel{Bytes: l2 << (1 + r.IntN(3)), LatencyCycles: float64(20 + r.IntN(41))})
	}
	return s
}

// config draws a platform that resolves and was not drawn before; callers
// check that the model answers it for their workloads.
func (g *keyGen) config() (server.ConfigSpec, machine.Config) {
	for {
		s := g.spec()
		cfg, err := s.Resolve()
		if err != nil {
			continue
		}
		h := fnv.New64a()
		fmt.Fprintf(h, "%+v", cfg)
		id := h.Sum64()
		if g.seen[id] {
			continue
		}
		g.seen[id] = true
		return s, cfg
	}
}

// key draws the body of one fresh /v1/predict request the model answers
// without error.
func (g *keyGen) key() ([]byte, error) {
	for {
		s, cfg := g.config()
		name := paperWorkloadNames[g.rng.IntN(len(paperWorkloadNames))]
		if _, err := core.Evaluate(cfg, g.wls[name], core.Options{}); err != nil {
			continue // e.g. a saturated platform: the request would fail
		}
		return json.Marshal(server.PredictRequest{Config: s, Workload: server.WorkloadSpec{Name: name}})
	}
}

// evalBody decodes a predict body and evaluates it directly, the way the
// service resolves it.
func evalBody(body []byte) (machine.Config, core.Workload, core.Result, error) {
	var req server.PredictRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return machine.Config{}, core.Workload{}, core.Result{}, err
	}
	cfg, err := req.Config.Resolve()
	if err != nil {
		return machine.Config{}, core.Workload{}, core.Result{}, err
	}
	wl, err := experiments.ResolveWorkload(req.Workload.Name, false)
	if err != nil {
		return machine.Config{}, core.Workload{}, core.Result{}, err
	}
	res, err := core.Evaluate(cfg, wl, core.Options{CoherenceAdjust: req.Delta})
	return cfg, wl, res, err
}

// grid draws one /v1/sweep request whose every point is feasible: fresh
// configurations, the five paper workloads, and fresh budgets.
func (g *keyGen) grid() server.SweepRequest {
	req := server.SweepRequest{}
	for _, n := range paperWorkloadNames {
		req.Workloads = append(req.Workloads, server.WorkloadSpec{Name: n})
	}
	for len(req.Configs) < gridConfigs {
		s, cfg := g.config()
		ok := true
		for _, n := range paperWorkloadNames {
			if _, err := core.Evaluate(cfg, g.wls[n], core.Options{}); err != nil {
				ok = false
				break
			}
		}
		if ok {
			req.Configs = append(req.Configs, s)
		}
	}
	for len(req.Budgets) < gridBudgets {
		req.Budgets = append(req.Budgets, float64(5000+g.rng.IntN(55000)))
	}
	return req
}

// missEnv is a set-up 3-node ring with its pre-built inputs.
type missEnv struct {
	nodes    []*node
	clusters []*cluster.Cluster
	keys     [][]byte // pre-built /v1/predict bodies, each a fresh key
	grids    [][]byte
	gridReqs []server.SweepRequest
	cursor   int // next unused key
}

func (e *missEnv) stop() {
	for _, c := range e.clusters {
		c.Stop()
	}
	for _, n := range e.nodes {
		n.stop()
	}
}

// tracedForwarder wraps the cluster seam handed to server.Config.Forwarder
// and records one span per forward.
type tracedForwarder struct {
	server.PeerForwarder
	at *activeTracer
}

func (f *tracedForwarder) Forward(ctx context.Context, peer, path, requestID string, body []byte) (server.ForwardResult, error) {
	t := f.at.get()
	start := time.Now()
	res, err := f.PeerForwarder.Forward(ctx, peer, path, requestID, body)
	t.record("cluster.forward", requestID, start, time.Now())
	return res, err
}

// missPlan sizes the key pool: warm keys plus an upper bound on what the
// fixed phases and every capacity probe can send.
func missPlan(b *bench) (keys, grids int) {
	// The staircase's probes stay at or under missMaxProbe × hi.
	need := warmKeys +
		missLoRate*b.budget(loShare).Seconds() +
		missHiRate*b.budget(hiShare).Seconds() +
		missMaxProbe*missHiRate*b.budget(probeShare).Seconds()
	return int(need*1.02) + 100, rounds * max(1, int(3*b.seconds)/rounds)
}

// missInputs pre-builds every request body of the run from the seed.
type missInputs struct {
	keys     [][]byte
	grids    [][]byte
	gridReqs []server.SweepRequest
}

func buildMissInputs(b *bench) (*missInputs, error) {
	nkeys, ngrids := missPlan(b)
	g, err := newKeyGen(b.seed)
	if err != nil {
		return nil, err
	}
	in := &missInputs{}
	for len(in.keys) < nkeys {
		k, err := g.key()
		if err != nil {
			return nil, err
		}
		in.keys = append(in.keys, k)
	}
	for len(in.grids) < ngrids {
		req := g.grid()
		body, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		in.grids = append(in.grids, body)
		in.gridReqs = append(in.gridReqs, req)
	}
	return in, nil
}

// setupMiss starts the ring, probes every peer healthy, and warms every
// node's cache past its capacity.
func setupMiss(b *bench, in *missInputs, at *activeTracer) (*missEnv, error) {
	env := &missEnv{keys: in.keys, grids: in.grids, gridReqs: in.gridReqs}
	peers := map[string]string{}
	names := make([]string, ringNodes)
	lns := make([]net.Listener, ringNodes)
	for i := range names {
		names[i] = "n" + strconv.Itoa(i)
		ln, url, err := listen()
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return nil, err
		}
		lns[i], peers[names[i]] = ln, url
	}
	for i, name := range names {
		c, err := cluster.New(cluster.Config{Self: name, Peers: peers})
		if err != nil {
			env.stop()
			for _, l := range lns[i:] {
				l.Close()
			}
			return nil, err
		}
		var fw server.PeerForwarder = c
		if b.tr != nil {
			fw = &tracedForwarder{PeerForwarder: c, at: at}
		}
		env.clusters = append(env.clusters, c)
		env.nodes = append(env.nodes, startNode(name, peers[name], lns[i], server.New(server.Config{Forwarder: fw}), at))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, c := range env.clusters {
		c.Probe(ctx)
		for peer, st := range c.Stats()["peers"].(map[string]any) {
			if h, _ := st.(map[string]any)["healthy"].(bool); !h {
				env.stop()
				return nil, fmt.Errorf("ring: %s sees %s unhealthy", c.Self(), peer)
			}
		}
		c.Start()
	}
	if err := env.warm(); err != nil {
		env.stop()
		return nil, err
	}
	return env, nil
}

// warm sends the first warmKeys keys once each, entry nodes in turn, as
// /v1/batch requests. Each node caches the keys it entered plus the keys
// it owns, more distinct entries than its cache keeps.
func (e *missEnv) warm() error {
	snd := newSender()
	defer snd.close()
	const chunk = 1024
	for c, lo := 0, 0; lo < warmKeys; c, lo = c+1, lo+chunk {
		part := e.keys[lo:min(lo+chunk, warmKeys)]
		body := append([]byte(`{"requests":[`), bytes.Join(part, []byte(","))...)
		body = append(body, "]}"...)
		n := e.nodes[c%ringNodes]
		_, _, resp, err := snd.post(n.url+"/v1/batch", "", body)
		if err == nil {
			err = checkGrid(resp, nil, len(part), false)
		}
		if err != nil {
			return fmt.Errorf("warm %s: %w", n.name, err)
		}
	}
	e.cursor = warmKeys
	return nil
}

// eInstr extracts the e_instr_cycles value from a predict response body
// without decoding the whole document.
func eInstr(body []byte) (float64, error) {
	const field = `"e_instr_cycles": `
	i := bytes.Index(body, []byte(field))
	if i < 0 {
		return 0, fmt.Errorf("no e_instr_cycles in response")
	}
	rest := body[i+len(field):]
	j := bytes.IndexAny(rest, ",\n}")
	if j < 0 {
		return 0, fmt.Errorf("malformed e_instr_cycles")
	}
	return strconv.ParseFloat(string(bytes.TrimSpace(rest[:j])), 64)
}

func runServeMiss(b *bench) error {
	at := &activeTracer{}
	start := time.Now()
	in, err := buildMissInputs(b)
	if err != nil {
		return err
	}
	b.logf("inputs: %d predict bodies and %d grids built in %v", len(in.keys), len(in.grids), time.Since(start))
	env, err := runSetups(b, func() (*missEnv, error) { return setupMiss(b, in, at) },
		func(e *missEnv) { e.stop() })
	if err != nil {
		return err
	}
	defer env.stop()

	snds := []*sender{newSender(), newSender()}
	defer func() {
		for _, s := range snds {
			s.close()
		}
	}()
	got := make([]uint64, len(env.keys)) // e_instr bits per key, 0 until answered
	cursor := env.cursor
	send := func(phaseID int) sendFunc {
		first := cursor
		return func(k, i int) error {
			idx := first + i
			if idx >= len(env.keys) {
				return fmt.Errorf("key pool exhausted at %d", idx)
			}
			key := env.keys[idx]
			n := env.nodes[i%ringNodes]
			id := reqID('m', phaseID, i)
			t := at.get()
			start := time.Now()
			_, hdr, body, err := snds[k].post(n.url+"/v1/predict", id, key)
			t.record("client", id, start, time.Now())
			if err != nil {
				return err
			}
			if c := hdr.Get("X-Cache"); c != "miss" {
				return fmt.Errorf("key %d: X-Cache %q, want miss", idx, c)
			}
			v, err := eInstr(body)
			if err != nil {
				return fmt.Errorf("key %d: %w", idx, err)
			}
			got[idx] = math.Float64bits(v)
			return nil
		}
	}
	ph := newServePhases(b, at, missHiRate, missMaxProbe, missLimitMs, send)
	ph.advance = func(n int) { cursor += n }
	sw := &missSweep{b: b, env: env, snd: snds[0]}
	if err := ph.rounds(missLoRate, sw.round); err != nil {
		return err
	}
	points := gridConfigs*len(paperWorkloadNames) + len(paperWorkloadNames)
	med := median(sw.times)
	b.set("batch_s", med)
	b.logf("sweep: %d grids of %d points, median %.6f s, %.0f points/s (sweep_points_per_s)",
		len(sw.times), points, med, float64(points)/med)

	// Untimed check: every answered key against a direct evaluation.
	checked, wrong := 0, 0
	for idx := env.cursor; idx < len(env.keys); idx++ {
		if got[idx] == 0 {
			continue
		}
		checked++
		_, _, res, err := evalBody(env.keys[idx])
		if err != nil || got[idx] != math.Float64bits(res.EInstr) {
			wrong++
			b.checkFail("key %d: e_instr %v, direct core.Evaluate gives %v (%v)", idx,
				math.Float64frombits(got[idx]), res.EInstr, err)
		}
	}
	b.failed += wrong
	b.logf("check: %d answered keys compared with core.Evaluate, %d differ", checked, wrong)

	if b.tr != nil {
		spanLayers(b)
		var dedup, shed, fails, fallbacks int64
		for _, n := range env.nodes {
			m := n.srv.Metrics()
			dedup += metricInt(m, "dedup_waits")
			shed += metricInt(m, "shed")
			fails += metricInt(m, "forward_fails")
			fallbacks += metricInt(m, "local_fallbacks")
		}
		b.set("server.dedup_waits", float64(dedup))
		b.set("server.shed", float64(shed))
		b.set("cluster.forward_fails", float64(fails))
		b.set("cluster.local_fallbacks", float64(fallbacks))
		coreLayers(b, env)
		costLayers(b, env)
	}
	return nil
}

// missSweep posts the pre-built grids back to back from one client,
// entry nodes in turn, an equal share of them each round; batch_s is the
// median grid time.
type missSweep struct {
	b     *bench
	env   *missEnv
	snd   *sender
	next  int
	times []float64
}

func (sw *missSweep) round(time.Duration) error {
	points := gridConfigs*len(paperWorkloadNames) + len(paperWorkloadNames)
	end := min(sw.next+len(sw.env.grids)/rounds, len(sw.env.grids))
	for ; sw.next < end; sw.next++ {
		n := sw.env.nodes[sw.next%ringNodes]
		start := time.Now()
		_, _, resp, err := sw.snd.post(n.url+"/v1/sweep", "", sw.env.grids[sw.next])
		sw.times = append(sw.times, time.Since(start).Seconds())
		if err == nil {
			err = checkGrid(resp, nil, points, false)
		}
		sw.b.op(err)
	}
	return nil
}

// coreLayers times core.Evaluate (1-level and deep) and core.RenderResult
// directly on the serve-miss key set.
func coreLayers(b *bench, env *missEnv) {
	var flat, deep, rend []float64
	var buf bytes.Buffer
	keys := env.keys[env.cursor:min(env.cursor+4000, len(env.keys))]
	for _, body := range keys {
		cfg, wl, _, err := evalBody(body)
		if err != nil {
			b.op(err)
			continue
		}
		start := time.Now()
		res, err := core.Evaluate(cfg, wl, core.Options{})
		us := float64(time.Since(start)) / 1e3
		if err != nil {
			b.op(err)
			continue
		}
		if len(cfg.Levels) > 1 {
			deep = append(deep, us)
		} else {
			flat = append(flat, us)
		}
		buf.Reset()
		start = time.Now()
		core.RenderResult(&buf, wl, res)
		rend = append(rend, float64(time.Since(start))/1e3)
	}
	b.set("core.evaluate_us", median(flat))
	b.set("core.evaluate_deep_us", median(deep))
	b.set("core.render_us", median(rend))
}

// costLayers times cost.OptimizeBudgets directly on the grids' budgets.
func costLayers(b *bench, env *missEnv) {
	var ms []float64
	var evaluated, pruned, configs int
	for _, req := range env.gridReqs[:min(4, len(env.gridReqs))] {
		for _, n := range paperWorkloadNames {
			wl, err := experiments.ResolveWorkload(n, false)
			if err != nil {
				b.op(err)
				return
			}
			start := time.Now()
			_, st, err := cost.OptimizeBudgets(req.Budgets, wl, cost.DefaultCatalog(), cost.DefaultSpace(), core.Options{})
			ms = append(ms, float64(time.Since(start))/1e6)
			if err != nil {
				b.op(err)
				continue
			}
			evaluated += st.Evaluated
			pruned += st.Pruned
			configs += st.Configs
		}
	}
	b.set("cost.budget_ms", median(ms))
	b.set("cost.evaluated", float64(evaluated)/float64(len(ms)))
	if configs > 0 {
		b.set("cost.pruned_share", float64(pruned)/float64(configs))
	}
}
