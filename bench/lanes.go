package main

import (
	"context"
	"fmt"
	"time"

	"gatesim/internal/event"
	"gatesim/internal/lane"
	"gatesim/internal/netlist"
	"gatesim/internal/sim"
)

// checkedLanes are the lanes whose streams are compared with scalar refsim
// runs of that lane's stimulus alone: the first and the last.
func checkedLanes(lanes int) [2]int { return [2]int{0, lanes - 1} }

func laneDigest(a, b string) string { return a + "+" + b }

// runLanes is one untraced lane-mode run on a fresh engine: the merged
// lane-vector trace through RunLaneStreamCtx with default slicing, watched
// lane events folded into the two checked lanes' digests as they commit.
func runLanes(ctx context.Context, rd *ready, merged []sim.LaneChange, opts sim.Options) (runSample, error) {
	e, err := sim.NewFromPlan(rd.pl, opts)
	if err != nil {
		return runSample{}, err
	}
	defer e.Close()
	watch := rd.nl.PortsOut
	check := checkedLanes(opts.Lanes)
	digs := [2]*digester{newDigester(watch), newDigester(watch)}
	start := time.Now()
	err = e.RunLaneStreamCtx(ctx, merged, sim.LaneStreamConfig{
		Watch: watch,
		OnEvent: func(nid netlist.NetID, t int64, mask uint32, w lane.Word) {
			for k, ln := range check {
				if mask&(1<<uint(ln)) != 0 {
					digs[k].add(nid, t, w.Get(ln))
				}
			}
		},
	})
	if err != nil {
		return runSample{}, err
	}
	wall := time.Since(start)
	d0, _ := digs[0].sum()
	d1, _ := digs[1].sum()
	return runSample{wall: wall, stats: e.Stats(), digest: laneDigest(d0, d1)}, nil
}

// runLanesTraced drives RunLaneStreamCtx's slice loop from outside through
// InjectLanes / AdvanceCtx / Events, one span per layer per slice. Lane mode
// never checkpoints, and the per-lane streams are read back once at the end
// through LaneEvents, which is the drain.
func runLanesTraced(ctx context.Context, rd *ready, merged []sim.LaneChange, opts sim.Options, tr *track) (runSample, error) {
	e, err := sim.NewFromPlan(rd.pl, opts)
	if err != nil {
		return runSample{}, err
	}
	defer e.Close()
	watch := rd.nl.PortsOut
	pos := 0
	slice := func(end int64) error {
		err := tr.do("sim.inject", func() error {
			for ; pos < len(merged) && merged[pos].Time < end; pos++ {
				c := merged[pos]
				if err := e.InjectLanes(c.Net, c.Time, c.Word, c.Mask); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		return tr.do("sim.advance", func() error { return e.AdvanceCtx(ctx, end) })
	}

	var ds [2]string
	start := time.Now()
	err = tr.do("run", func() error {
		if len(merged) > 0 {
			for end := (merged[0].Time/defaultSlicePS + 1) * defaultSlicePS; pos < len(merged); end += defaultSlicePS {
				if err := tr.do("slice", func() error { return slice(end) }); err != nil {
					return err
				}
			}
		}
		if err := tr.do("sim.advance", func() error { return e.FinishCtx(ctx) }); err != nil {
			return err
		}
		return tr.do("sim.drain", func() error {
			for k, ln := range checkedLanes(opts.Lanes) {
				dig := newDigester(watch)
				for _, nid := range watch {
					for _, ev := range e.LaneEvents(nid, ln) {
						dig.sink(nid, ev)
					}
				}
				ds[k], _ = dig.sum()
			}
			return nil
		})
	})
	if err != nil {
		return runSample{}, err
	}
	return runSample{wall: time.Since(start), stats: e.Stats(), digest: laneDigest(ds[0], ds[1])}, nil
}

// runScalarLane runs one lane's stimulus alone through a scalar engine, the
// baseline a lane run is compared with: Lanes of these in sequence deliver
// what one lane run delivers.
func runScalarLane(ctx context.Context, rd *ready, stim []sim.Change) (time.Duration, error) {
	e, err := sim.NewFromPlan(rd.pl, sim.Options{Mode: sim.ModeSerial})
	if err != nil {
		return 0, err
	}
	defer e.Close()
	start := time.Now()
	err = e.RunStreamCtx(ctx, sim.NewSliceSource(stim), sim.StreamConfig{
		Watch: rd.nl.PortsOut, OnEvent: func(netlist.NetID, event.Event) {},
	})
	return time.Since(start), err
}

func laneCase(ctx context.Context, w workload, in *inputs, rd *ready, opts sim.Options) (*engineCase, error) {
	// The merged trace is the lane run's stimulus file: prepared once, off
	// the clock, like the VCD text of the scalar workloads.
	perLane, err := in.bindLanes(rd.nl)
	if err != nil {
		return nil, err
	}
	merged, err := sim.MergeLaneChanges(perLane)
	if err != nil {
		return nil, err
	}
	var refs [2]reference
	for k, ln := range checkedLanes(w.Lanes) {
		if refs[k], err = runRefsim(rd, perLane[ln]); err != nil {
			return nil, fmt.Errorf("refsim lane %d: %w", ln, err)
		}
	}
	return &engineCase{
		want: laneDigest(refs[0].digest, refs[1].digest),
		ref:  refs[0], refStim: perLane[0], perEvent: float64(w.Lanes),
		run:    func() (runSample, error) { return runLanes(ctx, rd, merged, opts) },
		traced: func(tr *track) (runSample, error) { return runLanesTraced(ctx, rd, merged, opts, tr) },
		extra: func(res *result, _ runSample, med float64) error {
			collectGarbage()
			scalar, err := runScalarLane(ctx, rd, perLane[0])
			if err != nil {
				return fmt.Errorf("scalar run of lane 0: %w", err)
			}
			res.set("lane.speedup_vs_scalar", float64(w.Lanes)*scalar.Seconds()/med)
			return nil
		},
	}, nil
}
