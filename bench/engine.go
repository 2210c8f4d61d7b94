package main

import (
	"context"
	"fmt"
	"time"

	"gatesim/internal/sim"
)

// runConfig is how long and how often to measure. The sizes of the inputs
// belong to the workload, not to this.
type runConfig struct {
	Seed    int64
	Seconds float64 // measure timed operations for at least this long
	Trace   bool    // false: end-to-end metrics; true: per-layer metrics

	SetupReps  int // full set-ups from text; the median is setup_s
	MinSamples int // timed operations, at least
	MaxSamples int // timed operations, at most (0 = until Seconds have passed)
}

// defaultConfig is the protocol: end to end, three set-ups and timed
// operations for secs seconds; traced, one set-up with spans and three
// untraced runs for the traced one to be compared with.
func defaultConfig(seed int64, secs float64, trace bool) runConfig {
	cfg := runConfig{Seed: seed, Seconds: secs, Trace: trace, SetupReps: 3, MinSamples: 3}
	if trace {
		cfg.SetupReps, cfg.MaxSamples = 1, 3
	}
	return cfg
}

// startTrace attaches a span recorder to a traced result; untraced, both
// are nil and record nothing.
func startTrace(res *result) (*recorder, *track) {
	if !res.Traced {
		return nil, nil
	}
	res.spans = newRecorder()
	return res.spans, res.spans.track("main")
}

// engineCase is what differs between the scalar and the lane workload once
// the design is lowered: how one run is made, untraced and traced, what its
// digest must be, and the stimulus of the reference rows.
type engineCase struct {
	want     string       // refsim's digest of the watched streams
	ref      reference    // the oracle's run (one stimulus vector)
	refStim  []sim.Change // that vector, for the partition baseline
	perEvent float64      // stimulus vectors carried per committed event
	run      func() (runSample, error)
	traced   func(*track) (runSample, error)
	// extra adds the workload's own layer rows, given the traced run and the
	// untraced median wall in seconds.
	extra func(res *result, traced runSample, med float64) error
}

// timedRuns repeats run until cfg.Seconds of measured time have passed,
// within the sample limits. The heap is collected before each sample, off
// the clock, so one sample does not pay for the previous engine's garbage.
func timedRuns(cfg runConfig, res *result, want string, run func() (runSample, error)) []runSample {
	var out []runSample
	var measured time.Duration
	for {
		n := len(out)
		if cfg.MaxSamples > 0 && n >= cfg.MaxSamples {
			break
		}
		if n >= cfg.MinSamples && measured.Seconds() >= cfg.Seconds {
			break
		}
		collectGarbage()
		s, err := run()
		res.Attempted++
		if err != nil {
			res.fail("run %d: %v", n, err)
			if res.Failed >= 3 {
				break
			}
			continue
		}
		if s.digest != want {
			res.fail("run %d: stream digest %s, refsim %s", n, s.digest, want)
		}
		measured += s.wall
		out = append(out, s)
	}
	return out
}

// runEngineWorkload measures a scalar or lane workload. End to end: SetupReps
// set-ups from text, one discarded warm-up run, then timed runs on fresh
// engines over the same plan for cfg.Seconds, every run's digest checked
// against refsim. Traced: one set-up and one run with a span per layer, three
// untraced runs to compare with, then the reference rows.
func runEngineWorkload(ctx context.Context, w workload, cfg runConfig) (*result, error) {
	res := newResult(w, cfg)
	in, err := genInputs(w, cfg.Seed)
	if err != nil {
		return nil, err
	}
	opts := engineOptions(w)

	rec, tr := startTrace(res)
	var rd *ready
	var setups []float64
	for i := 0; i < cfg.SetupReps; i++ {
		collectGarbage()
		r, wall, err := setupFromText(in, opts, tr)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		rd = r
		setups = append(setups, wall.Seconds())
	}

	var c *engineCase
	if w.Kind == kindLanes {
		c, err = laneCase(ctx, w, in, rd, opts)
	} else {
		c, err = scalarCase(ctx, w, in, rd, opts)
	}
	if err != nil {
		return nil, err
	}
	res.Digest = c.want

	// Warm-up: page in the plan, grow the heap to its working size.
	warm := cfg
	warm.MinSamples, warm.MaxSamples = 1, 1
	if len(timedRuns(warm, res, c.want, c.run)) == 0 {
		return res, nil
	}
	samples := timedRuns(cfg, res, c.want, c.run)
	if len(samples) == 0 {
		return res, nil
	}
	walls := make([]float64, len(samples))
	for i, s := range samples {
		walls[i] = s.wall.Seconds()
	}
	res.EventsCommitted = samples[0].stats.EventsCommitted
	events := float64(res.EventsCommitted) * c.perEvent
	med := median(walls)

	if !cfg.Trace {
		eps := make([]float64, len(walls))
		ms := make([]float64, len(walls))
		for i, wl := range walls {
			eps[i] = events / wl
			ms[i] = wl * 1e3
		}
		res.setSampled("events_per_s", events/med, eps)
		res.setSampled("op_ms_p50", med*1e3, ms)
		res.setSampled("setup_s", median(setups), setups)
		return res, nil
	}

	setupLayers(res, rec, len(in.Verilog))
	collectGarbage()
	before := allocatedBytes()
	traced, err := c.traced(tr)
	res.Attempted++
	if err != nil {
		res.fail("traced run: %v", err)
		return res, nil
	}
	res.set("sim.alloc_mb", float64(allocatedBytes()-before)/1e6)
	if traced.digest != c.want {
		res.fail("traced slice loop digest %s, untraced run and refsim %s", traced.digest, c.want)
	}
	if traced.stats.EventsCommitted != res.EventsCommitted {
		res.fail("traced run committed %d events, untraced %d", traced.stats.EventsCommitted, res.EventsCommitted)
	}
	runLayers(res, rec, traced, med)
	statLayers(res, traced.stats)
	res.setPhases(traced.phases)
	res.set("sim.sweeps_ratio_vs_t1", 1)
	res.set("sim.speedup_vs_t1", 1)
	if err := c.extra(res, traced, med); err != nil {
		return nil, err
	}

	// Live heap with the plan and one engine alive.
	e, err := sim.NewFromPlan(rd.pl, opts)
	if err != nil {
		return nil, err
	}
	res.set("sim.live_heap_mb", liveHeapMB())
	e.Close()

	// Reference rows: the oracle and the partition baseline carry one
	// stimulus vector, so a lane run is credited with perEvent of them.
	res.set("refsim.events_per_s", float64(c.ref.events)/c.ref.wall.Seconds())
	res.set("sim.vs_refsim", c.perEvent*c.ref.wall.Seconds()/med)
	collectGarbage()
	part, err := runPartsim(ctx, rd, c.refStim, w.Threads)
	if err != nil {
		return nil, fmt.Errorf("partsim: %w", err)
	}
	res.set("partsim.events_per_s", float64(part.events)/part.wall.Seconds())
	res.set("sim.vs_partsim", c.perEvent*part.wall.Seconds()/med)
	microLayers(res)
	return res, nil
}
