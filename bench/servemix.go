package main

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gatesim/internal/event"
	"gatesim/internal/gen"
	"gatesim/internal/harness"
	"gatesim/internal/netlist"
	"gatesim/internal/obs"
	"gatesim/internal/plan"
	"gatesim/internal/refsim"
	"gatesim/internal/serve"
)

// tracedBase numbers the traced loop's sessions, far past any untraced loop.
const tracedBase = 1 << 20

// serveSlicePS gives a 40-cycle session 7..9 streaming slices, so the
// server's default snapshot cadence (every 4 slices) fires once or twice.
const serveSlicePS = 16384

// designKey names one generated design and stimulus: serve derives both
// from the request's preset and seed.
type designKey struct {
	preset string
	seed   int64
}

// sessionKey is the i-th session of the closed loop. Sessions alternate over
// the hot presets at designSeed; every MissEvery-th carries a seed no other
// session has, so the server must generate and lower a design it has not
// cached. seed is the --seed argument: it picks the miss designs.
func sessionKey(w workload, i int, seed int64) designKey {
	if w.MissEvery > 0 && i%w.MissEvery == w.MissEvery-1 {
		return designKey{w.Hot[(i/w.MissEvery)%len(w.Hot)], 1000 + seed*1_000_003 + int64(i)}
	}
	return designKey{w.Hot[i%len(w.Hot)], designSeed}
}

func sessionRequest(w workload, k designKey) *serve.SessionRequest {
	return &serve.SessionRequest{
		Preset: k.preset, Scale: w.Scale, Seed: k.seed, Cycles: w.Cycles, Activity: w.Activity,
		ScanBurst: 16, Mode: "serial", SlicePS: serveSlicePS,
	}
}

func newServer() (*serve.Server, *obs.Registry) {
	reg := obs.NewRegistry()
	return serve.NewServer(serve.Config{
		Admission: serve.AdmissionConfig{MaxConcurrent: 2, Rate: -1},
		Registry:  reg,
	}), reg
}

// sessionRec is one completed StartSession call.
type sessionRec struct {
	key      designKey
	doneAt   time.Duration // since the loop started
	wall     time.Duration // call to return
	admit    time.Duration // call to onAdmit: admission + plan resolve
	first    time.Duration // onAdmit to first sink event
	hit      bool          // the plan came from the cache
	events   int64         // committed by the session's engine
	digest   string
	counters map[string]int64 // the session registry's counters (traced only)
	phases   map[string]int64
	err      error
}

// runSession makes one StartSession call, hashing the streamed events. With
// a track it records admit / first-event / stream spans from the callbacks,
// which run on this goroutine.
func runSession(ctx context.Context, sv *serve.Server, w workload, k designKey, tr *track) sessionRec {
	rec := sessionRec{key: k}
	dig := newDigester(nil)
	var admitAt, firstAt time.Time
	start := time.Now()
	tr.begin("session")
	tr.begin("serve.admit")
	s, err := sv.StartSession(ctx, sessionRequest(w, k),
		func(*serve.Session) {
			admitAt = time.Now()
			tr.end()
			tr.begin("serve.first_event")
		},
		func(nid netlist.NetID, ev event.Event) {
			if firstAt.IsZero() {
				firstAt = time.Now()
				tr.end()
				tr.begin("serve.stream")
			}
			dig.sink(nid, ev)
		})
	end := time.Now()
	tr.end()
	tr.end()
	rec.wall, rec.err = end.Sub(start), err
	if admitAt.IsZero() {
		admitAt = end
	}
	if firstAt.IsZero() {
		firstAt = end
	}
	rec.admit, rec.first = admitAt.Sub(start), firstAt.Sub(admitAt)
	rec.digest, _ = dig.sum()
	if s != nil {
		snap := s.Registry().Snapshot()
		rec.hit = snap.Gauges["serve.cache_hit"] == 1
		rec.events = snap.Counters["sim.events_committed"]
		if tr != nil {
			rec.counters, rec.phases = snap.Counters, snap.PhaseNS()
		}
	}
	return rec
}

// closedLoop runs w.Clients callers, each sending its next session only
// when the previous one has returned, until the window has passed or
// maxSessions have been started. Sessions are numbered from base, so two
// loops on one server do not share miss designs. Each client appends to
// records and a span track of its own; both are merged after every client
// has finished.
func closedLoop(ctx context.Context, sv *serve.Server, w workload, seed int64, base int, window time.Duration, maxSessions int, rec *recorder) ([]sessionRec, time.Duration) {
	var next atomic.Int64
	perClient := make([][]sessionRec, w.Clients)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < w.Clients; c++ {
		c := c
		tr := rec.track(fmt.Sprintf("client-%d", c))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < window {
				i := int(next.Add(1) - 1)
				if maxSessions > 0 && i >= maxSessions {
					return
				}
				r := runSession(ctx, sv, w, sessionKey(w, base+i, seed), tr)
				r.doneAt = time.Since(start)
				perClient[c] = append(perClient[c], r)
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	var all []sessionRec
	for _, rs := range perClient {
		all = append(all, rs...)
	}
	sort.Slice(all, func(a, b int) bool { return all[a].doneAt < all[b].doneAt })
	return all, wall
}

// coldStart is serve_mix's set-up: a new server through the first completed
// session of each hot design, with an empty plan cache.
func coldStart(ctx context.Context, w workload, tr *track) ([]sessionRec, time.Duration, error) {
	start := time.Now()
	tr.begin("setup")
	defer tr.end()
	tr.begin("serve.new")
	sv, _ := newServer()
	tr.end()
	var recs []sessionRec
	for _, preset := range w.Hot {
		r := runSession(ctx, sv, w, designKey{preset, designSeed}, tr)
		if r.err != nil {
			return nil, 0, r.err
		}
		recs = append(recs, r)
	}
	wall := time.Since(start)
	return recs, wall, sv.Drain(ctx)
}

// serveReference is the oracle for one (preset, seed): the design and
// stimulus generated the way serve generates them, run through refsim, the
// output ports' streams hashed.
func serveReference(w workload, k designKey) (string, error) {
	p, err := gen.PresetByName(k.preset)
	if err != nil {
		return "", err
	}
	d, err := gen.Build(p.Spec(w.Scale, k.seed))
	if err != nil {
		return "", err
	}
	clib, err := harness.CompiledBuiltin()
	if err != nil {
		return "", err
	}
	pl, err := plan.Build(d.Netlist, clib, gen.Delays(d, k.seed))
	if err != nil {
		return "", err
	}
	ref, err := refsim.NewFromPlan(pl)
	if err != nil {
		return "", err
	}
	var stim []refsim.Stim
	for _, c := range gen.Stimuli(d, stimSpec(w, k.seed)) {
		stim = append(stim, refsim.Stim{Net: c.Net, Time: c.Time, Val: c.Val})
	}
	dig := newDigester(d.Netlist.PortsOut)
	if err := ref.Run(stim, dig.sink); err != nil {
		return "", err
	}
	sum, _ := dig.sum()
	return sum, nil
}

// verifySessions counts every session as one operation: it fails on an
// error, a refusal, or a stream digest that differs from refsim's.
func verifySessions(w workload, res *result, recs []sessionRec) (rejected int) {
	refs := make(map[designKey]string)
	for _, r := range recs {
		res.Attempted++
		var busy *serve.BusyError
		if errors.As(r.err, &busy) {
			rejected++
		}
		if r.err != nil {
			res.fail("session %s/%d: %v", r.key.preset, r.key.seed, r.err)
			continue
		}
		want, ok := refs[r.key]
		if !ok {
			var err error
			if want, err = serveReference(w, r.key); err != nil {
				res.fail("refsim reference %s/%d: %v", r.key.preset, r.key.seed, err)
				continue
			}
			refs[r.key] = want
		}
		if r.digest != want {
			res.fail("session %s/%d: stream digest %s, refsim %s", r.key.preset, r.key.seed, r.digest, want)
		}
	}
	return rejected
}

// windows splits the loop's sessions into equal time windows and reduces
// each to its throughput and median latency: the spread of the two
// end-to-end metrics within one run.
func windows(recs []sessionRec, wall time.Duration, n int) (eps, p50 []float64) {
	width := wall / time.Duration(n)
	if width <= 0 {
		return nil, nil
	}
	events := make([]int64, n)
	lat := make([][]float64, n)
	for _, r := range recs {
		k := int(r.doneAt / width)
		if k >= n {
			k = n - 1
		}
		events[k] += r.events
		lat[k] = append(lat[k], millis(r.wall))
	}
	for k := 0; k < n; k++ {
		if len(lat[k]) == 0 {
			continue
		}
		eps = append(eps, float64(events[k])/width.Seconds())
		p50 = append(p50, median(lat[k]))
	}
	return eps, p50
}

func runServeWorkload(ctx context.Context, w workload, cfg runConfig) (*result, error) {
	res := newResult(w, cfg)
	rec, tr := startTrace(res)
	var setups []float64
	var all []sessionRec
	for i := 0; i < cfg.SetupReps; i++ {
		collectGarbage()
		recs, wall, err := coldStart(ctx, w, tr)
		if err != nil {
			return nil, fmt.Errorf("cold start: %w", err)
		}
		all = append(all, recs...)
		setups = append(setups, wall.Seconds())
	}

	// The measured server: hot plans cached before the loop starts.
	sv, reg := newServer()
	for _, preset := range w.Hot {
		all = append(all, runSession(ctx, sv, w, designKey{preset, designSeed}, nil))
	}
	window := time.Duration(cfg.Seconds * float64(time.Second))
	if cfg.Trace {
		window /= 2 // half untraced for trace.overhead, half traced
	}
	collectGarbage()
	recs, wall := closedLoop(ctx, sv, w, cfg.Seed, 0, window, cfg.MaxSamples, nil)
	all = append(all, recs...)
	if len(recs) == 0 {
		return nil, errors.New("no session completed in the measurement window")
	}
	var events int64
	lat := make([]float64, len(recs))
	for i, r := range recs {
		events += r.events
		lat[i] = millis(r.wall)
	}
	// The simulated result that must repeat exactly: one hot session of each
	// preset, the same on every seed.
	for i, preset := range w.Hot {
		for _, r := range recs {
			if r.key == (designKey{preset, designSeed}) && r.err == nil {
				res.EventsCommitted += r.events
				if i > 0 {
					res.Digest += "+"
				}
				res.Digest += r.digest
				break
			}
		}
	}

	if !cfg.Trace {
		eps, p50 := windows(recs, wall, 8)
		res.setSampled("events_per_s", float64(events)/wall.Seconds(), eps)
		res.setSampled("op_ms_p50", percentile(lat, 50), p50)
		res.setSampled("setup_s", median(setups), setups)
		verifySessions(w, res, all)
		return res, sv.Drain(ctx)
	}

	untracedP50 := percentile(lat, 50)
	collectGarbage()
	before := allocatedBytes()
	traced, tracedWall := closedLoop(ctx, sv, w, cfg.Seed, tracedBase, window, cfg.MaxSamples, rec)
	allocated := allocatedBytes() - before
	liveHeap := liveHeapMB() // the server's plan cache, no session running
	all = append(all, traced...)
	if err := sv.Drain(ctx); err != nil {
		return nil, err
	}
	rejected := verifySessions(w, res, all)
	if len(traced) == 0 {
		return nil, errors.New("no traced session completed in the measurement window")
	}

	total, self := spanSums(rec.all())
	if d := total["setup"]; d > 0 {
		res.set("setup.coverage", 1-self["setup"].Seconds()/d.Seconds())
	}
	if d := total["session"]; d > 0 {
		res.set("trace.coverage", 1-self["session"].Seconds()/d.Seconds())
	}
	var tlat, admitHit, admitMiss, first, stream, missLat []float64
	counters := map[string]int64{}
	phases := map[string]int64{}
	var tracedEvents int64
	for _, r := range traced {
		if r.err != nil {
			continue
		}
		tlat = append(tlat, millis(r.wall))
		first = append(first, millis(r.first))
		stream = append(stream, millis(r.wall-r.admit-r.first))
		if r.hit {
			admitHit = append(admitHit, millis(r.admit))
		} else {
			admitMiss = append(admitMiss, millis(r.admit))
			missLat = append(missLat, millis(r.wall))
		}
		tracedEvents += r.events
		for k, v := range r.counters {
			counters[k] += v
		}
		for k, v := range r.phases {
			phases[k] += v
		}
	}
	res.set("trace.overhead", percentile(tlat, 50)/untracedP50-1)
	res.set("serve.admit_ms_hit_p50", percentile(admitHit, 50))
	res.set("serve.admit_ms_miss_p50", percentile(admitMiss, 50))
	res.set("serve.first_event_ms_p50", percentile(first, 50))
	res.set("serve.stream_ms_p50", percentile(stream, 50))
	res.set("serve.miss_session_ms_p50", percentile(missLat, 50))
	res.set("serve.session_ms_p90", percentile(tlat, 90))
	res.set("serve.sessions_per_s", float64(len(traced))/tracedWall.Seconds())
	res.set("serve.rejected", float64(rejected))
	svc := reg.Snapshot().Counters
	if n := svc["serve.cache_hits"] + svc["serve.cache_misses"]; n > 0 {
		res.set("serve.cache_hit_ratio", float64(svc["serve.cache_hits"])/float64(n))
	}

	visits := counters["sim.visits_by_kernel.comb1"] + counters["sim.visits_by_kernel.seq"]
	res.set("sim.events_committed", float64(tracedEvents))
	res.set("sim.sweeps", float64(counters["sim.sweeps"]))
	res.set("sim.visits", float64(visits))
	res.set("sim.visits_comb1", float64(counters["sim.visits_by_kernel.comb1"]))
	res.set("sim.visits_seq", float64(counters["sim.visits_by_kernel.seq"]))
	res.set("sim.queries", float64(counters["sim.queries_by_kernel.comb1"]+counters["sim.queries_by_kernel.seq"]))
	res.set("sim.visits_watermark_only", float64(counters["sim.visits_watermark_only"]))
	res.set("sim.frontier_commits", float64(counters["sim.frontier_commits"]))
	res.set("sim.segments_skipped", float64(counters["sim.segments_skipped"]))
	res.set("sim.sweep_s", float64(phases["sim.sweep"])/1e9)
	res.set("sim.level_s", float64(phases["sim.level"])/1e9)
	res.set("sim.checkpoint_s", float64(phases["sim.checkpoint"])/1e9)
	if visits > 0 {
		res.set("sim.useful_visit_ratio", 1-float64(counters["sim.visits_watermark_only"])/float64(visits))
	}
	if tracedEvents > 0 {
		res.set("sim.visits_per_event", float64(visits)/float64(tracedEvents))
	}
	res.setPhases(phases)
	res.set("sim.sweeps_ratio_vs_t1", 1)
	res.set("sim.speedup_vs_t1", 1)
	res.set("sim.live_heap_mb", liveHeap)
	res.set("sim.alloc_mb", float64(allocated)/1e6/float64(len(traced))) // per session
	microLayers(res)
	return res, nil
}
