package main

import "fmt"

// kind selects which driver runs a workload.
type kind int

const (
	kindSim   kind = iota // one scalar engine run through the cmd/glsim path
	kindLanes             // one lane-mode run carrying Lanes stimulus vectors
	kindServe             // closed-loop sessions against an in-process serve.Server
)

// designSeed fixes the structure of every generated netlist. The --seed
// argument feeds the delay annotation and the stimulus only: with the
// structure seeded too, aes256 at 48k cells commits 209k..267k events over
// the same 40 cycles (seeds 1..6), a spread no regression bound survives,
// while delays and stimuli alone move the event count by under 1%.
const designSeed = 1

// workload is one named set of inputs. Sizes are frozen here; BENCHMARK.json
// names the workloads and bench_test.go checks the two agree.
type workload struct {
	Name string
	Why  string
	Kind kind

	// Design and stimulus (kindSim, kindLanes).
	Preset   string
	Scale    float64
	Cycles   int
	Activity float64
	Threads  int // 1 = sim.ModeSerial, >1 = sim.ModeParallel with that many threads
	Lanes    int

	// Traffic (kindServe): Clients closed-loop callers alternate over Hot
	// presets at Scale/Cycles/Activity; every MissEvery-th session carries a
	// seed of its own, so its plan is not in the cache.
	Hot       []string
	Clients   int
	MissEvery int
}

var workloads = []workload{
	{
		Name: "aes256_t1", Kind: kindSim,
		Why:    "48k-cell comb-heavy design past L2, 1 thread: script replay, event cursoring and checkpoint folding do the work; workpool does none",
		Preset: "aes256", Scale: 0.25, Cycles: 40, Activity: 0.6, Threads: 1,
	},
	{
		Name: "aes256_t2", Kind: kindSim,
		Why:    "same text and stimulus as aes256_t1 on 2 threads: isolates the pooled executor, per-level barriers and sweep inflation (the paper's Figure 8 axis)",
		Preset: "aes256", Scale: 0.25, Cycles: 40, Activity: 0.6, Threads: 2,
	},
	{
		Name: "aes256_idle_t1", Kind: kindSim,
		Why:    "same design at activity 0.02: almost no events, so watermark advance, frontier drains and idle walks dominate instead of event commit",
		Preset: "aes256", Scale: 0.25, Cycles: 45, Activity: 0.02, Threads: 1,
	},
	{
		Name: "leon2_t1", Kind: kindSim,
		Why:    "50k cells, 22% sequential, latches, clock gates, scan, two clocks: the generic interpreter and sequential cells carry a share that is ~0 on aes256",
		Preset: "leon2", Scale: 0.03, Cycles: 60, Activity: 0.5, Threads: 1,
	},
	{
		Name: "aes256_lanes32", Kind: kindLanes,
		Why:    "32 stimulus vectors in one lane-mode pass: the only workload that runs sim/lane.go and internal/lane; scalar-path changes must leave it unmoved",
		Preset: "aes256", Scale: 0.05, Cycles: 36, Activity: 0.6, Threads: 1, Lanes: 32,
	},
	{
		Name: "serve_mix", Kind: kindServe,
		Why: "2 closed-loop clients on an in-process server, 2k-cell cache-resident designs, 5% plan-cache misses: the only workload where admission, plan cache and snapshots run",
		Hot: []string{"blabla", "picorv32a"}, Scale: 0.05, Cycles: 40, Activity: 0.5, Threads: 1,
		Clients: 2, MissEvery: 20,
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// metricDef names one metric. Bound is the share of the parent's median by
// which an end-to-end metric may get worse before a change counts as a
// regression; per-layer metrics have none. Moves is the prediction written
// down before measuring: which end-to-end metric the layer metric should
// move, and on which workload.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	Moves  string
}

var endToEnd = []metricDef{
	{Name: "events_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "op_ms_p50", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

var perLayer = []metricDef{
	// Set-up spans: one traced set-up from text.
	{Name: "liberty.parse_s", Unit: "s", Better: "lower", Moves: "setup_s, every sim workload"},
	{Name: "truthtab.compile_s", Unit: "s", Better: "lower", Moves: "setup_s, every sim workload"},
	{Name: "netlist.parse_s", Unit: "s", Better: "lower", Moves: "setup_s, every sim workload"},
	{Name: "netlist.parse_mb_per_s", Unit: "MB/s", Better: "higher", Moves: "setup_s, every sim workload"},
	{Name: "sdf.parse_apply_s", Unit: "s", Better: "lower", Moves: "setup_s, every sim workload"},
	{Name: "plan.build_s", Unit: "s", Better: "lower", Moves: "setup_s, every sim workload"},
	{Name: "sim.new_s", Unit: "s", Better: "lower", Moves: "setup_s, every sim workload"},
	{Name: "setup.coverage", Unit: "ratio", Better: "higher", Moves: "none: set-up span sum / traced set-up wall, must stay >= 0.95"},

	// Run spans: one traced run driving the slice loop through public calls.
	{Name: "vcd.read_s", Unit: "s", Better: "lower", Moves: "events_per_s, sim workloads (small)"},
	{Name: "sim.inject_s", Unit: "s", Better: "lower", Moves: "events_per_s, sim workloads (small)"},
	{Name: "sim.advance_s", Unit: "s", Better: "lower", Moves: "events_per_s, every sim workload"},
	{Name: "sim.drain_s", Unit: "s", Better: "lower", Moves: "events_per_s, sim workloads (small)"},
	{Name: "sim.checkpoint_s", Unit: "s", Better: "lower", Moves: "events_per_s, largest on aes256_t1; 0 on aes256_lanes32"},
	{Name: "vcd.write_s", Unit: "s", Better: "lower", Moves: "events_per_s, sim workloads (small)"},
	{Name: "trace.coverage", Unit: "ratio", Better: "higher", Moves: "none: run span sum / traced wall, must stay >= 0.95"},
	{Name: "trace.overhead", Unit: "ratio", Better: "lower", Moves: "none: traced wall / untraced median - 1"},

	// Counts of the traced run (sim.Stats; summed session registries on serve_mix).
	{Name: "sim.events_committed", Unit: "count", Better: "lower", Moves: "none: must repeat exactly"},
	{Name: "sim.sweeps", Unit: "count", Better: "lower", Moves: "events_per_s, aes256_t2 (inflation vs t1)"},
	{Name: "sim.visits", Unit: "count", Better: "lower", Moves: "events_per_s, aes256_t1 and leon2_t1"},
	{Name: "sim.visits_comb1", Unit: "count", Better: "lower", Moves: "events_per_s, aes256_*"},
	{Name: "sim.visits_seq", Unit: "count", Better: "lower", Moves: "events_per_s, leon2_t1 only"},
	{Name: "sim.visits_lane", Unit: "count", Better: "lower", Moves: "events_per_s, aes256_lanes32 only"},
	{Name: "sim.queries", Unit: "count", Better: "lower", Moves: "events_per_s, aes256_t1 and leon2_t1"},
	{Name: "sim.visits_watermark_only", Unit: "count", Better: "lower", Moves: "events_per_s, aes256_idle_t1"},
	{Name: "sim.frontier_commits", Unit: "count", Better: "lower", Moves: "events_per_s, aes256_idle_t1; flat on aes256_t1"},
	{Name: "sim.segments_skipped", Unit: "count", Better: "higher", Moves: "events_per_s, aes256_idle_t1"},
	{Name: "sim.sweep_s", Unit: "s", Better: "lower", Moves: "events_per_s, every sim workload"},
	{Name: "sim.level_s", Unit: "s", Better: "lower", Moves: "events_per_s, every sim workload"},
	{Name: "sim.useful_visit_ratio", Unit: "ratio", Better: "higher", Moves: "events_per_s, aes256_idle_t1; flat on aes256_t1"},
	{Name: "sim.visits_per_event", Unit: "ratio", Better: "lower", Moves: "events_per_s, aes256_idle_t1"},
	{Name: "sim.advance_ns_per_visit", Unit: "ns", Better: "lower", Moves: "events_per_s, aes256_t1 and leon2_t1"},

	// obs.Registry phase sums of the traced run, copied through.
	{Name: "obs.sim.sweep_ns", Unit: "ns", Better: "lower", Moves: "as sim.sweep_s"},
	{Name: "obs.sim.level_ns", Unit: "ns", Better: "lower", Moves: "as sim.level_s"},
	{Name: "obs.sim.checkpoint_ns", Unit: "ns", Better: "lower", Moves: "as sim.checkpoint_s"},
	{Name: "obs.sim.quiesce_ns", Unit: "ns", Better: "lower", Moves: "events_per_s, aes256_idle_t1"},
	{Name: "obs.sim.slice_ns", Unit: "ns", Better: "lower", Moves: "op_ms_p50, serve_mix (0 where the bench drives the slice loop itself)"},

	// Worker pool.
	{Name: "workpool.rounds", Unit: "count", Better: "lower", Moves: "events_per_s, aes256_t2 only; 0 at 1 thread"},
	{Name: "workpool.parks", Unit: "count", Better: "lower", Moves: "events_per_s, aes256_t2 only"},
	{Name: "workpool.wakes", Unit: "count", Better: "lower", Moves: "events_per_s, aes256_t2 only"},
	{Name: "workpool.round_us", Unit: "us", Better: "lower", Moves: "events_per_s, aes256_t2 only"},
	{Name: "sim.sweeps_ratio_vs_t1", Unit: "ratio", Better: "lower", Moves: "events_per_s, aes256_t2 only; 1 at 1 thread"},
	{Name: "sim.speedup_vs_t1", Unit: "ratio", Better: "higher", Moves: "the Figure 8 number: serial wall / this workload's wall on the same plan; 1 at 1 thread"},

	// Event storage.
	{Name: "event.ns_per_op", Unit: "ns", Better: "lower", Moves: "events_per_s, aes256_t1 and leon2_t1; little on aes256_idle_t1"},

	// Lanes.
	{Name: "lane.speedup_vs_scalar", Unit: "ratio", Better: "higher", Moves: "events_per_s, aes256_lanes32 only; 0 elsewhere"},

	// Server (serve_mix only; 0 elsewhere).
	{Name: "serve.admit_ms_hit_p50", Unit: "ms", Better: "lower", Moves: "op_ms_p50, serve_mix"},
	{Name: "serve.admit_ms_miss_p50", Unit: "ms", Better: "lower", Moves: "events_per_s, serve_mix (miss path)"},
	{Name: "serve.first_event_ms_p50", Unit: "ms", Better: "lower", Moves: "op_ms_p50, serve_mix"},
	{Name: "serve.stream_ms_p50", Unit: "ms", Better: "lower", Moves: "op_ms_p50, serve_mix"},
	{Name: "serve.miss_session_ms_p50", Unit: "ms", Better: "lower", Moves: "events_per_s and serve.session_ms_p90, serve_mix"},
	{Name: "serve.session_ms_p90", Unit: "ms", Better: "lower", Moves: "none: the tail a client sees on serve_mix"},
	{Name: "serve.sessions_per_s", Unit: "1/s", Better: "higher", Moves: "none: events_per_s on serve_mix in sessions"},
	{Name: "serve.cache_hit_ratio", Unit: "ratio", Better: "higher", Moves: "op_ms_p50, serve_mix"},
	{Name: "serve.rejected", Unit: "count", Better: "lower", Moves: "failed, serve_mix"},

	// Reference rows and memory; these gate nothing.
	{Name: "refsim.events_per_s", Unit: "1/s", Better: "higher", Moves: "none: the oracle's speed on the same plan and stimulus"},
	{Name: "partsim.events_per_s", Unit: "1/s", Better: "higher", Moves: "none: the partition baseline, partitions = workload threads"},
	{Name: "sim.vs_refsim", Unit: "ratio", Better: "higher", Moves: "none: refsim wall / sim wall"},
	{Name: "sim.vs_partsim", Unit: "ratio", Better: "higher", Moves: "none: partsim wall / sim wall"},
	{Name: "proc.peak_rss_mb", Unit: "MB", Better: "lower", Moves: "none: ru_maxrss of the workload's process"},
	{Name: "sim.live_heap_mb", Unit: "MB", Better: "lower", Moves: "none: heap after GC with plan and engine alive"},
	{Name: "sim.alloc_mb", Unit: "MB", Better: "lower", Moves: "none: bytes allocated over one run"},
}
