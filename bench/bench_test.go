package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// toy shrinks a workload so that all six run in a few seconds: the flow,
// the metric names, the digests and the trace are what is under test, not
// the numbers.
func toy(w workload) (workload, runConfig) {
	w.Scale, w.Cycles = 0.005, 4
	cfg := runConfig{Seed: 7, SetupReps: 1, MinSamples: 1, MaxSamples: 1}
	if w.Kind == kindServe {
		w.MissEvery = 3
		cfg.Seconds, cfg.MaxSamples = 30, 6 // six sessions, however long they take
	}
	return w, cfg
}

func TestWorkloadsAtToySize(t *testing.T) {
	rep := report{Host: fingerprint(), Seed: 7}
	for _, full := range workloads {
		w, cfg := toy(full)
		wr := workloadReport{Name: w.Name}
		for _, traced := range []bool{false, true} {
			cfg.Trace = traced
			res, err := runWorkload(context.Background(), w, cfg)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d: %v", w.Name, traced, res.Correct, res.Attempted, res.Failed, res.Failures)
			}
			if res.Digest == "" || res.EventsCommitted <= 0 {
				t.Errorf("%s traced=%v: digest %q, %d events", w.Name, traced, res.Digest, res.EventsCommitted)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.Name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.Name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("%s: metric %s missing or unit %q, want %q", w.Name, d.Name, m.Unit, d.Unit)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.Name, d.Name, m.Value)
				}
			}
			if !traced {
				wr.EndToEnd = res
				continue
			}
			wr.Layers = res
			for _, name := range []string{"trace.coverage", "setup.coverage"} {
				if v := res.Metrics[name].Value; v < 0.95 {
					t.Errorf("%s: %s = %.3f, want >= 0.95", w.Name, name, v)
				}
			}
			checkTraceJSON(t, w.Name, res.spans)
		}
		rep.Workloads = append(rep.Workloads, wr)
	}
	if t.Failed() {
		return
	}

	// -compare: identical reports pass; a slowdown of one workload past the
	// bound is flagged (ISSUE 11 said 20%, against the 10% bound it planned;
	// the measured spread widened the bound to 25%, so 35% here); the same
	// slowdown under a spread wider than the bound is no verdict either way.
	dir := t.TempDir()
	pathA := filepath.Join(dir, "a.json")
	if err := writeJSON(pathA, rep); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if regressed, err := compareFiles(&out, pathA, pathA); err != nil || regressed {
		t.Errorf("identical reports: regressed=%v err=%v\n%s", regressed, err, out.String())
	}
	slow := reload(t, pathA)
	e := slow.Workloads[0].EndToEnd
	const slowdown = 1.35
	e.Metrics["op_ms_p50"] = metric{Value: e.Metrics["op_ms_p50"].Value * slowdown, Unit: "ms"}
	e.Metrics["events_per_s"] = metric{Value: e.Metrics["events_per_s"].Value / slowdown, Unit: "1/s"}
	pathB := filepath.Join(dir, "b.json")
	if err := writeJSON(pathB, slow); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if regressed, err := compareFiles(&out, pathA, pathB); err != nil || !regressed {
		t.Errorf("slowdown past the bound: regressed=%v err=%v\n%s", regressed, err, out.String())
	}
	if !strings.Contains(out.String(), "regressed") {
		t.Errorf("slowdown past the bound: no regressed verdict in\n%s", out.String())
	}
	noisy := reload(t, pathA)
	for name, s := range noisy.Workloads[0].EndToEnd.Samples {
		s.IQR = s.Median / 2
		noisy.Workloads[0].EndToEnd.Samples[name] = s
	}
	pathN := filepath.Join(dir, "n.json")
	if err := writeJSON(pathN, noisy); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if regressed, err := compareFiles(&out, pathN, pathB); err != nil || regressed || !strings.Contains(out.String(), "unresolved") {
		t.Errorf("slowdown under a wide spread: regressed=%v err=%v, want unresolved\n%s", regressed, err, out.String())
	}
}

func reload(t *testing.T, path string) *report {
	t.Helper()
	rep, err := readReport(path)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// checkTraceJSON writes the spans as Chrome trace JSON and checks it parses,
// every span has a positive id, and every parent id names a span that
// encloses its child.
func checkTraceJSON(t *testing.T, name string, rec *recorder) {
	t.Helper()
	var buf bytes.Buffer
	if err := rec.writeChrome(&buf); err != nil {
		t.Fatalf("%s: writing trace: %v", name, err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string
			Ph   string
			TS   float64
			Dur  float64
			Args struct{ ID, Parent int }
		}
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("%s: trace JSON does not parse: %v", name, err)
	}
	type iv struct{ start, end float64 }
	byID := map[int]iv{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		if ev.Args.ID <= 0 || ev.Dur < 0 {
			t.Errorf("%s: span %s has id %d, dur %v", name, ev.Name, ev.Args.ID, ev.Dur)
		}
		if _, dup := byID[ev.Args.ID]; dup {
			t.Errorf("%s: span id %d used twice", name, ev.Args.ID)
		}
		byID[ev.Args.ID] = iv{ev.TS, ev.TS + ev.Dur}
	}
	if len(byID) == 0 {
		t.Errorf("%s: trace has no spans", name)
	}
	const slackUS = 0.002 // timestamps are written in microseconds with nanosecond digits
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" || ev.Args.Parent == 0 {
			continue
		}
		p, ok := byID[ev.Args.Parent]
		if !ok {
			t.Errorf("%s: span %s has parent %d, which is no span", name, ev.Name, ev.Args.Parent)
			continue
		}
		if ev.TS < p.start-slackUS || ev.TS+ev.Dur > p.end+slackUS {
			t.Errorf("%s: span %s [%v,%v] is not inside its parent [%v,%v]", name, ev.Name, ev.TS, ev.TS+ev.Dur, p.start, p.end)
		}
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "run", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "slice", Start: 10, End: 90},
		{ID: 3, Parent: 2, Name: "sim.advance", Start: 10, End: 70},
		{ID: 4, Parent: 2, Name: "sim.advance", Start: 70, End: 85},
	}
	total, self := spanSums(spans)
	if total["sim.advance"] != 75 || self["sim.advance"] != 75 || self["slice"] != 5 || self["run"] != 20 {
		t.Errorf("total %v self %v", total, self)
	}
}

func TestQuantilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4) == [3.5, 13.5, 31.0]
	v := []float64{1, 2, 4, 7, 11, 16, 22, 29, 37, 46}
	got := []float64{quantile(v, 0.25), quantile(v, 0.5), quantile(v, 0.75)}
	if want := []float64{3.5, 13.5, 31}; !reflect.DeepEqual(got, want) {
		t.Errorf("quartiles %v, want %v", got, want)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the tables in workloads.go in
// step, and inside the limits of the benchmark contract.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []jsonMetric `json:"end_to_end"`
		PerLayer []jsonMetric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 || !reflect.DeepEqual(doc.Paths, []string{"bench"}) {
		t.Errorf("run_seconds %d, paths %v", doc.RunSeconds, doc.Paths)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in workloads.go", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.Name || doc.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), workloads.go %q (%q)", i, doc.Workloads[i].Name, doc.Workloads[i].Why, w.Name, w.Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
	check := func(kind string, got []jsonMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in workloads.go", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
				t.Errorf("%s %d: BENCHMARK.json %+v, workloads.go %+v", kind, i, g, d)
			}
			if len(d.Name) > 64 || len(d.Unit) > 16 || (d.Better != "higher" && d.Better != "lower") {
				t.Errorf("%s %s: name, unit or better outside the contract", kind, d.Name)
			}
			if bounded != (g.Bound != nil) || (bounded && (*g.Bound != d.Bound || d.Bound <= 0 || d.Bound > 0.25)) {
				t.Errorf("%s %s: bound %v, workloads.go %v", kind, d.Name, g.Bound, d.Bound)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd, true)
	check("per_layer", doc.PerLayer, perLayer, false)
}
