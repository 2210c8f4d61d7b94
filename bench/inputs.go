package main

import (
	"bytes"
	"fmt"

	"gatesim/internal/gen"
	"gatesim/internal/netlist"
	"gatesim/internal/sim"
	"gatesim/internal/vcd"
)

// inputs is what the simulator is given: text, as cmd/benchgen would write
// it to disk. Nothing else crosses from the generator to the simulator.
type inputs struct {
	Verilog string
	SDF     string
	VCD     string // scalar workloads

	// Lane workloads have no stimulus file format: the per-lane traces keep
	// the generator's net ids and are bound to the parsed netlist by net
	// name, exactly as a VCD would be.
	netNames []string       // the generated netlist's net names, by its net ids
	lanes    [][]gen.Change // per lane, time-sorted
}

func stimSpec(w workload, seed int64) gen.StimSpec {
	return gen.StimSpec{Cycles: w.Cycles, ActivityFactor: w.Activity, Seed: seed, ScanBurst: 16}
}

// genInputs generates a sim or lane workload's inputs. The netlist structure
// comes from designSeed; seed feeds the delay annotation and the stimulus.
func genInputs(w workload, seed int64) (*inputs, error) {
	p, err := gen.PresetByName(w.Preset)
	if err != nil {
		return nil, err
	}
	d, err := gen.Build(p.Spec(w.Scale, designSeed))
	if err != nil {
		return nil, err
	}
	nl := d.Netlist
	in := &inputs{Verilog: netlist.WriteVerilog(nl), SDF: gen.SDFText(d, seed)}
	if w.Kind == kindLanes {
		for _, n := range nl.Nets {
			in.netNames = append(in.netNames, n.Name)
		}
		in.lanes = gen.LaneStimuli(d, stimSpec(w, seed), w.Lanes)
		return in, nil
	}
	names := make([]string, len(nl.PortsIn))
	sig := make(map[netlist.NetID]int, len(nl.PortsIn))
	for i, nid := range nl.PortsIn {
		names[i] = nl.Nets[nid].Name
		sig[nid] = i
	}
	var buf bytes.Buffer
	vw := vcd.NewWriter(&buf, nl.Name, names)
	for _, c := range gen.Stimuli(d, stimSpec(w, seed)) {
		if err := vw.Change(c.Time, sig[c.Net], c.Val); err != nil {
			return nil, err
		}
	}
	if err := vw.Flush(); err != nil {
		return nil, err
	}
	in.VCD = buf.String()
	return in, nil
}

// bindLanes resolves the lane traces onto a parsed netlist by net name.
func (in *inputs) bindLanes(nl *netlist.Netlist) ([][]sim.Change, error) {
	bound := make(map[netlist.NetID]netlist.NetID)
	out := make([][]sim.Change, len(in.lanes))
	for l, cs := range in.lanes {
		out[l] = make([]sim.Change, len(cs))
		for i, c := range cs {
			nid, ok := bound[c.Net]
			if !ok {
				if nid, ok = nl.Net(in.netNames[c.Net]); !ok {
					return nil, fmt.Errorf("lane stimulus net %q is not in %s", in.netNames[c.Net], nl.Name)
				}
				bound[c.Net] = nid
			}
			out[l][i] = sim.Change{Net: nid, Time: c.Time, Val: c.Val}
		}
	}
	return out, nil
}
