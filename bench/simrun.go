package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"gatesim/internal/event"
	"gatesim/internal/harness"
	"gatesim/internal/liberty"
	"gatesim/internal/logic"
	"gatesim/internal/netlist"
	"gatesim/internal/obs"
	"gatesim/internal/partsim"
	"gatesim/internal/plan"
	"gatesim/internal/refsim"
	"gatesim/internal/sdf"
	"gatesim/internal/sim"
	"gatesim/internal/stats"
	"gatesim/internal/truthtab"
	"gatesim/internal/vcd"
)

// ---- stream digest

// digester hashes each watched net's committed (time, value) sequence and
// combines the per-net hashes in net-id order. Events of different nets may
// arrive interleaved in any order; only each net's own order matters, which
// is the contract the simulators share ("byte-identical committed streams").
type digester struct {
	only []bool // nil: every net it is given; else the nets to keep
	h    []uint64
	n    []int64
}

// newDigester keeps the events of the watched nets; nil keeps everything.
func newDigester(watch []netlist.NetID) *digester {
	d := &digester{}
	for _, nid := range watch {
		for int(nid) >= len(d.only) {
			d.only = append(d.only, false)
		}
		d.only[nid] = true
	}
	return d
}

func (d *digester) add(nid netlist.NetID, t int64, v logic.Value) {
	if d.only != nil && (int(nid) >= len(d.only) || !d.only[nid]) {
		return
	}
	for int(nid) >= len(d.h) {
		d.h = append(d.h, 14695981039346656037) // FNV-1a offset basis
		d.n = append(d.n, 0)
	}
	const prime = 1099511628211
	h := d.h[nid]
	h = (h ^ uint64(t)) * prime
	h = (h ^ uint64(v)) * prime
	d.h[nid] = h
	d.n[nid]++
}

func (d *digester) sink(nid netlist.NetID, ev event.Event) { d.add(nid, ev.Time, ev.Val) }

// sum returns the digest and the number of events folded into it.
func (d *digester) sum() (string, int64) {
	sh := sha256.New()
	var buf [24]byte
	var total int64
	for nid, n := range d.n {
		if n == 0 {
			continue
		}
		binary.LittleEndian.PutUint64(buf[0:], uint64(nid))
		binary.LittleEndian.PutUint64(buf[8:], uint64(n))
		binary.LittleEndian.PutUint64(buf[16:], d.h[nid])
		sh.Write(buf[:])
		total += n
	}
	return hex.EncodeToString(sh.Sum(nil)[:8]), total
}

// ---- set-up: text to ready engine

// ready is a lowered design: what set-up leaves behind for the runs.
type ready struct {
	nl *netlist.Netlist
	pl *plan.Plan
}

// setupFromText is everything cmd/glsim does between reading its files and
// starting the simulation, one span per layer: parse the cell library,
// compile truth tables, parse the netlist, parse and apply the SDF, lower
// the plan, construct the engine.
func setupFromText(in *inputs, opts sim.Options, tr *track) (*ready, time.Duration, error) {
	start := time.Now()
	tr.begin("setup")
	defer tr.end()

	tr.begin("liberty.parse")
	lib, err := liberty.Parse(liberty.BuiltinSource)
	tr.end()
	if err != nil {
		return nil, 0, err
	}
	tr.begin("truthtab.compile")
	clib, err := truthtab.CompileLibrary(lib)
	tr.end()
	if err != nil {
		return nil, 0, err
	}
	tr.begin("netlist.parse")
	nl, err := netlist.ParseVerilogHierarchy(in.Verilog, lib, "")
	tr.end()
	if err != nil {
		return nil, 0, err
	}
	tr.begin("sdf.parse_apply")
	delays, err := parseApplySDF(in.SDF, nl)
	tr.end()
	if err != nil {
		return nil, 0, err
	}
	tr.begin("plan.build")
	pl, err := plan.Build(nl, clib, delays)
	tr.end()
	if err != nil {
		return nil, 0, err
	}
	tr.begin("sim.new")
	e, err := sim.NewFromPlan(pl, opts)
	tr.end()
	if err != nil {
		return nil, 0, err
	}
	wall := time.Since(start)
	e.Close()
	return &ready{nl: nl, pl: pl}, wall, nil
}

func parseApplySDF(text string, nl *netlist.Netlist) (*sdf.Delays, error) {
	f, err := sdf.Parse(text)
	if err != nil {
		return nil, err
	}
	return sdf.Apply(f, nl, sdf.Delay{Rise: 1, Fall: 1})
}

func engineOptions(w workload) sim.Options {
	o := sim.Options{Mode: sim.ModeSerial, Threads: w.Threads, Lanes: w.Lanes}
	if w.Threads > 1 {
		o.Mode = sim.ModeParallel
	}
	return o
}

// ---- one run through the cmd/glsim path

// runSample is one completed simulation.
type runSample struct {
	wall   time.Duration
	stats  sim.Stats
	digest string
	phases map[string]int64 // obs phase sums, traced runs only
}

// vcdOut is cmd/glsim's output side: a VCD writer over the watched nets plus
// the activity recorder it always feeds.
type vcdOut struct {
	w        *vcd.Writer
	idx      map[netlist.NetID]int
	activity *stats.Activity
	dig      *digester
	err      error
}

func newVCDOut(nl *netlist.Netlist, watch []netlist.NetID) *vcdOut {
	names := make([]string, len(watch))
	idx := make(map[netlist.NetID]int, len(watch))
	for i, nid := range watch {
		names[i] = nl.Nets[nid].Name
		idx[nid] = i
	}
	return &vcdOut{
		w: vcd.NewWriter(io.Discard, nl.Name, names), idx: idx,
		activity: stats.NewActivity(nl), dig: newDigester(watch),
	}
}

func (o *vcdOut) onEvent(nid netlist.NetID, ev event.Event) {
	o.activity.Record(nid, ev)
	o.dig.sink(nid, ev)
	if err := o.w.Change(ev.Time, o.idx[nid], ev.Val); err != nil && o.err == nil {
		o.err = err
	}
}

func (o *vcdOut) finish() (string, error) {
	if o.err != nil {
		return "", o.err
	}
	if err := o.w.Flush(); err != nil {
		return "", err
	}
	d, _ := o.dig.sum()
	return d, nil
}

// runStream is one untraced run on a fresh engine: VCD text in through
// harness.NewVCDSource, RunStreamCtx with default slicing, watched (output
// port) events out through OnEvent into a vcd.Writer on io.Discard. The
// engine is constructed before the clock starts; constructing it is set-up.
func runStream(ctx context.Context, rd *ready, vcdText string, opts sim.Options) (runSample, error) {
	e, err := sim.NewFromPlan(rd.pl, opts)
	if err != nil {
		return runSample{}, err
	}
	defer e.Close()
	start := time.Now()
	reader, err := vcd.NewReader(strings.NewReader(vcdText))
	if err != nil {
		return runSample{}, err
	}
	src, err := harness.NewVCDSource(reader, rd.nl)
	if err != nil {
		return runSample{}, err
	}
	out := newVCDOut(rd.nl, rd.nl.PortsOut)
	if err := e.RunStreamCtx(ctx, src, sim.StreamConfig{Watch: rd.nl.PortsOut, OnEvent: out.onEvent}); err != nil {
		return runSample{}, err
	}
	digest, err := out.finish()
	if err != nil {
		return runSample{}, err
	}
	return runSample{wall: time.Since(start), stats: e.Stats(), digest: digest}, nil
}

// defaultSlicePS is RunStreamCtx's window when StreamConfig.SlicePS is 0.
const defaultSlicePS = 65536

// runStreamTraced drives the same slice loop as RunStreamCtx from outside,
// through the engine's public Inject / AdvanceCtx / Events+SetReadMark /
// Checkpoint calls, with one span per layer per slice. It must produce the
// digest RunStreamCtx produces; the caller checks that it does.
func runStreamTraced(ctx context.Context, rd *ready, vcdText string, opts sim.Options, tr *track) (runSample, error) {
	reg := obs.NewRegistry()
	opts.Metrics = reg
	e, err := sim.NewFromPlan(rd.pl, opts)
	if err != nil {
		return runSample{}, err
	}
	defer e.Close()

	watch := rd.nl.PortsOut
	var (
		src         *harness.VCDSource
		pending     sim.Change
		havePending bool
		out         *vcdOut
		digest      string
	)
	// next advances the one-change lookahead, as RunStreamCtx does.
	next := func() error {
		c, err := src.Next()
		if err == io.EOF {
			havePending = false
			return nil
		}
		pending, havePending = c, err == nil
		return err
	}
	read := make(map[netlist.NetID]int64, len(watch))
	type timedEvent struct {
		nid netlist.NetID
		ev  event.Event
	}
	var emit []timedEvent
	flush := func(limit int64) {
		tr.begin("sim.drain")
		emit = emit[:0]
		for _, nid := range watch {
			q := e.Events(nid)
			i := read[nid]
			for ; i < q.Len(); i++ {
				ev := q.MustAt(i)
				if ev.Time >= limit {
					break
				}
				emit = append(emit, timedEvent{nid, ev})
			}
			read[nid] = i
			e.SetReadMark(nid, i)
		}
		sort.Slice(emit, func(a, b int) bool {
			if emit[a].ev.Time != emit[b].ev.Time {
				return emit[a].ev.Time < emit[b].ev.Time
			}
			return emit[a].nid < emit[b].nid
		})
		tr.end()
		tr.begin("vcd.write")
		for _, te := range emit {
			out.onEvent(te.nid, te.ev)
		}
		tr.end()
	}
	var batch []sim.Change
	slice := func(end int64) error {
		err := tr.do("vcd.read", func() error {
			batch = batch[:0]
			for havePending && pending.Time < end {
				batch = append(batch, pending)
				if err := next(); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		err = tr.do("sim.inject", func() error {
			for _, c := range batch {
				if err := e.Inject(c.Net, c.Time, c.Val); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		if err := tr.do("sim.advance", func() error { return e.AdvanceCtx(ctx, end) }); err != nil {
			return err
		}
		// Events are only safe to emit in global order up to the slowest
		// watched watermark.
		limit := end
		for _, nid := range watch {
			if w := e.Events(nid).DeterminedUntil(); w < limit {
				limit = w
			}
		}
		flush(limit)
		tr.begin("sim.checkpoint")
		e.Checkpoint()
		tr.end()
		return nil
	}

	start := time.Now()
	err = tr.do("run", func() error {
		err := tr.do("vcd.read", func() error {
			reader, err := vcd.NewReader(strings.NewReader(vcdText))
			if err != nil {
				return err
			}
			if src, err = harness.NewVCDSource(reader, rd.nl); err != nil {
				return err
			}
			return next()
		})
		if err != nil {
			return err
		}
		tr.begin("vcd.write")
		out = newVCDOut(rd.nl, watch)
		tr.end()
		for _, nid := range watch {
			read[nid] = e.Events(nid).Start()
		}
		for end := (pending.Time/defaultSlicePS + 1) * defaultSlicePS; havePending; end += defaultSlicePS {
			if err := tr.do("slice", func() error { return slice(end) }); err != nil {
				return err
			}
		}
		if err := tr.do("sim.advance", func() error { return e.FinishCtx(ctx) }); err != nil {
			return err
		}
		flush(sim.TimeInf + 1)
		return tr.do("vcd.write", func() (err error) {
			digest, err = out.finish()
			return err
		})
	})
	if err != nil {
		return runSample{}, err
	}
	return runSample{wall: time.Since(start), stats: e.Stats(), digest: digest, phases: reg.Snapshot().PhaseNS()}, nil
}

// ---- references on the same plan and stimulus

// stimulusOf reads the VCD text the way the engine's source does, so the
// reference simulators are handed exactly the changes the engine injects.
func stimulusOf(rd *ready, vcdText string) ([]sim.Change, error) {
	reader, err := vcd.NewReader(strings.NewReader(vcdText))
	if err != nil {
		return nil, err
	}
	src, err := harness.NewVCDSource(reader, rd.nl)
	if err != nil {
		return nil, err
	}
	var out []sim.Change
	for {
		c, err := src.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, c)
	}
}

// reference is one run of a reference simulator.
type reference struct {
	wall   time.Duration
	events int64
	digest string
}

// runRefsim is the oracle: the sequential event-driven simulator on the
// same plan, its committed stream hashed over the same watched nets.
func runRefsim(rd *ready, stim []sim.Change) (reference, error) {
	ref, err := refsim.NewFromPlan(rd.pl)
	if err != nil {
		return reference{}, err
	}
	rs := make([]refsim.Stim, len(stim))
	for i, c := range stim {
		rs[i] = refsim.Stim{Net: c.Net, Time: c.Time, Val: c.Val}
	}
	dig := newDigester(rd.nl.PortsOut)
	start := time.Now()
	if err := ref.Run(rs, dig.sink); err != nil {
		return reference{}, err
	}
	wall := time.Since(start)
	d, _ := dig.sum()
	return reference{wall: wall, events: ref.Events, digest: d}, nil
}

func runPartsim(ctx context.Context, rd *ready, stim []sim.Change, partitions int) (reference, error) {
	ps, err := partsim.NewFromPlan(rd.pl, partsim.Options{Partitions: partitions})
	if err != nil {
		return reference{}, err
	}
	st := make([]partsim.Stim, len(stim))
	for i, c := range stim {
		st[i] = partsim.Stim{Net: c.Net, Time: c.Time, Val: c.Val}
	}
	start := time.Now()
	if err := ps.RunCtx(ctx, st, nil); err != nil {
		return reference{}, err
	}
	return reference{wall: time.Since(start), events: ps.Stats().Events}, nil
}

// ---- the scalar workload

func scalarCase(ctx context.Context, w workload, in *inputs, rd *ready, opts sim.Options) (*engineCase, error) {
	stim, err := stimulusOf(rd, in.VCD)
	if err != nil {
		return nil, err
	}
	ref, err := runRefsim(rd, stim)
	if err != nil {
		return nil, fmt.Errorf("refsim: %w", err)
	}
	return &engineCase{
		want: ref.digest, ref: ref, refStim: stim, perEvent: 1,
		run:    func() (runSample, error) { return runStream(ctx, rd, in.VCD, opts) },
		traced: func(tr *track) (runSample, error) { return runStreamTraced(ctx, rd, in.VCD, opts, tr) },
		extra: func(res *result, traced runSample, med float64) error {
			if w.Threads <= 1 {
				return nil
			}
			// The Figure 8 row: the same plan and stimulus on one thread.
			serial := opts
			serial.Mode, serial.Threads = sim.ModeSerial, 1
			collectGarbage()
			s1, err := runStream(ctx, rd, in.VCD, serial)
			res.Attempted++
			if err != nil {
				res.fail("serial run of the same plan: %v", err)
				return nil
			}
			if s1.digest != ref.digest {
				res.fail("serial run digest %s, refsim %s", s1.digest, ref.digest)
			}
			res.set("sim.sweeps_ratio_vs_t1", float64(traced.stats.Sweeps)/float64(s1.stats.Sweeps))
			res.set("sim.speedup_vs_t1", s1.wall.Seconds()/med)
			return nil
		},
	}, nil
}
