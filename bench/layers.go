package main

import (
	"runtime"
	"syscall"
	"time"

	"gatesim/internal/event"
	"gatesim/internal/logic"
	"gatesim/internal/sim"
	"gatesim/internal/truthtab"
	"gatesim/internal/workpool"
)

// setupSpans and runSpans are the leaf spans of the traced set-up and the
// traced run; each becomes the per-layer metric "<name>_s".
var (
	setupSpans = []string{"liberty.parse", "truthtab.compile", "netlist.parse", "sdf.parse_apply", "plan.build", "sim.new"}
	runSpans   = []string{"vcd.read", "sim.inject", "sim.advance", "sim.drain", "sim.checkpoint", "vcd.write"}
)

// setupLayers reports the traced set-up's spans. Coverage is the share of
// the set-up span its children account for: what is left is time the
// benchmark cannot attribute to a layer.
func setupLayers(res *result, rec *recorder, verilogBytes int) {
	total, self := spanSums(rec.all())
	for _, name := range setupSpans {
		res.set(name+"_s", total[name].Seconds())
	}
	if d := total["netlist.parse"]; d > 0 {
		res.set("netlist.parse_mb_per_s", float64(verilogBytes)/1e6/d.Seconds())
	}
	if d := total["setup"]; d > 0 {
		res.set("setup.coverage", 1-self["setup"].Seconds()/d.Seconds())
	}
}

// runLayers reports the traced run's spans, their coverage of the traced
// wall, and what tracing cost against the untraced median.
func runLayers(res *result, rec *recorder, traced runSample, untracedMedian float64) {
	total, self := spanSums(rec.all())
	for _, name := range runSpans {
		res.set(name+"_s", total[name].Seconds())
	}
	if d := total["run"]; d > 0 {
		res.set("trace.coverage", 1-(self["run"]+self["slice"]).Seconds()/d.Seconds())
	}
	res.set("trace.overhead", traced.wall.Seconds()/untracedMedian-1)
	if v := traced.stats.Visits + traced.stats.VisitsLane; v > 0 {
		res.set("sim.advance_ns_per_visit", float64(total["sim.advance"].Nanoseconds())/float64(v))
	}
}

// statLayers copies the engine's public counters and derives the ratios.
func statLayers(res *result, st sim.Stats) {
	res.set("sim.events_committed", float64(st.EventsCommitted))
	res.set("sim.sweeps", float64(st.Sweeps))
	res.set("sim.visits", float64(st.Visits))
	res.set("sim.visits_comb1", float64(st.VisitsByKernel[truthtab.ClassComb1]))
	res.set("sim.visits_seq", float64(st.VisitsByKernel[truthtab.ClassSeq]))
	res.set("sim.visits_lane", float64(st.VisitsLane))
	res.set("sim.queries", float64(st.Queries))
	res.set("sim.visits_watermark_only", float64(st.VisitsWatermarkOnly))
	res.set("sim.frontier_commits", float64(st.FrontierCommits))
	res.set("sim.segments_skipped", float64(st.SegmentsSkipped))
	res.set("sim.sweep_s", float64(st.SweepNS)/1e9)
	res.set("sim.level_s", float64(st.LevelNS)/1e9)
	res.set("workpool.rounds", float64(st.PoolRounds))
	res.set("workpool.parks", float64(st.PoolParks))
	res.set("workpool.wakes", float64(st.PoolWakes))
	if st.Visits > 0 {
		res.set("sim.useful_visit_ratio", 1-float64(st.VisitsWatermarkOnly)/float64(st.Visits))
	}
	if st.EventsCommitted > 0 {
		res.set("sim.visits_per_event", float64(st.Visits)/float64(st.EventsCommitted))
	}
}

// microLayers times two layers that no span around the engine can isolate,
// through their public APIs, and reads the process's memory high-water mark.
func microLayers(res *result) {
	res.set("event.ns_per_op", eventNSPerOp())
	res.set("workpool.round_us", poolRoundMicros())
	res.set("proc.peak_rss_mb", peakRSSMB())
}

// eventNSPerOp runs a fixed script over event.Queue the way the engine uses
// it: append to 1000 nets' queues, scan each with a cursor, trim the
// consumed prefix; repeated so pages recycle through the free lists.
func eventNSPerOp() float64 {
	const (
		queues = 1000
		burst  = 48
		rounds = 20
	)
	script := func() (ops int64) {
		var pool event.Pool
		qs := make([]event.Queue, queues)
		for i := range qs {
			qs[i].Init(&pool, logic.V0)
		}
		var sink int64
		for r := 0; r < rounds; r++ {
			base := int64(r * burst)
			for i := range qs {
				q := &qs[i]
				for k := int64(0); k < burst; k++ {
					q.Append(base+k, logic.Value((base+k)&1))
				}
				c := q.NewCursor(q.Start())
				for c.Idx < q.Len() {
					sink += c.Peek(q).Time
					c.Advance()
				}
				q.TrimTo(q.Len() - 4)
				ops += 2*burst + 1
			}
		}
		if sink < 0 {
			panic("unreachable")
		}
		return ops
	}
	var ns []float64
	for rep := 0; rep < 5; rep++ {
		start := time.Now()
		ops := script()
		ns = append(ns, float64(time.Since(start).Nanoseconds())/float64(ops))
	}
	return median(ns)
}

// poolRoundMicros is the median cost of one empty two-item round on a
// two-worker pool: the floor under every per-level barrier of a pooled sweep.
func poolRoundMicros() float64 {
	const rounds = 10000
	p := workpool.New(2)
	defer p.Close()
	noop := func(int) {}
	us := make([]float64, rounds)
	for i := range us {
		start := time.Now()
		if err := p.Run(2, noop); err != nil {
			return 0
		}
		us[i] = float64(time.Since(start).Nanoseconds()) / 1e3
	}
	return median(us)
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

func collectGarbage() { runtime.GC() }

func allocatedBytes() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / 1e6
}
