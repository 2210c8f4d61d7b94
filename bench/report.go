package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// sampleStats summarises the repeated timings behind one metric.
type sampleStats struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	IQR    float64 `json:"iqr"`
}

// result is one workload measured in one mode (end-to-end or layers).
type result struct {
	Workload  string `json:"workload"`
	Seed      int64  `json:"seed"`
	Traced    bool   `json:"traced"`
	Correct   bool   `json:"correct"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`

	Metrics map[string]metric `json:"metrics"`
	// Samples holds, per end-to-end metric, the spread of the timings it was
	// reduced from, in the metric's own unit.
	Samples map[string]sampleStats `json:"samples,omitempty"`

	// EventsCommitted and Digest identify the simulated result exactly: two
	// commits that simulate the same thing agree on both.
	EventsCommitted int64    `json:"events_committed"`
	Digest          string   `json:"digest"`
	Failures        []string `json:"failures,omitempty"`

	spans *recorder
}

func (r *result) set(name string, v float64) {
	r.Metrics[name] = metric{Value: v, Unit: unitOf(name)}
}

// fail records one failed operation; the first few reasons are kept.
func (r *result) fail(format string, args ...any) {
	r.Failed++
	if len(r.Failures) < 8 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

func newResult(w workload, cfg runConfig) *result {
	return &result{Workload: w.Name, Seed: cfg.Seed, Traced: cfg.Trace, Metrics: map[string]metric{}, Samples: map[string]sampleStats{}}
}

// setSampled reports a metric together with the samples it was reduced from.
func (r *result) setSampled(name string, v float64, samples []float64) {
	r.set(name, v)
	r.Samples[name] = summarize(samples)
}

func findMetric(defs []metricDef, name string) (metricDef, bool) {
	for _, d := range defs {
		if d.Name == name {
			return d, true
		}
	}
	return metricDef{}, false
}

func unitOf(name string) string {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		if d, ok := findMetric(defs, name); ok {
			return d.Unit
		}
	}
	panic("bench: metric " + name + " is not in the metric tables")
}

// setPhases copies obs.Registry phase sums through as obs.<phase>_ns, for
// the phases the metric table names.
func (r *result) setPhases(phases map[string]int64) {
	for name, ns := range phases {
		if _, ok := findMetric(perLayer, "obs."+name+"_ns"); ok {
			r.set("obs."+name+"_ns", float64(ns))
		}
	}
}

// finish fills in zeros for the metrics of the mode that do not apply to
// this workload, so that every run reports every metric by name.
func (r *result) finish() {
	defs := endToEnd
	if r.Traced {
		defs = perLayer
	}
	for _, d := range defs {
		if _, ok := r.Metrics[d.Name]; !ok {
			r.Metrics[d.Name] = metric{Value: 0, Unit: d.Unit}
		}
	}
	r.Correct = r.Failed == 0 && r.Attempted > 0
}

// print writes every metric by name with its unit, then the one-line JSON
// object the driver reads.
func (r *result) print(w io.Writer) error {
	fmt.Fprintf(w, "workload %s seed %d traced %v: %d attempted, %d failed, events_committed %d, digest %s\n",
		r.Workload, r.Seed, r.Traced, r.Attempted, r.Failed, r.EventsCommitted, r.Digest)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Fprintf(w, "  %-28s %16.6g %s", n, m.Value, m.Unit)
		if s, ok := r.Samples[n]; ok {
			fmt.Fprintf(w, "   (n=%d min %.6g max %.6g iqr %.6g)", s.N, s.Min, s.Max, s.IQR)
		}
		fmt.Fprintln(w)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// hostInfo is recorded beside the numbers: host time only compares on the
// same host.
type hostInfo struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"git_commit"`
}

func fingerprint() hostInfo {
	h := hostInfo{CPU: "unknown", NumCPU: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Commit: "unknown"}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	// Best effort: a driver checkout is not a git repository.
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	return h
}

// report is what `-out FILE` writes: every workload in both modes.
type report struct {
	Host      hostInfo         `json:"host"`
	Seed      int64            `json:"seed"`
	Seconds   float64          `json:"seconds"`
	Workloads []workloadReport `json:"workloads"`
}

type workloadReport struct {
	Name     string  `json:"name"`
	EndToEnd *result `json:"end_to_end,omitempty"`
	Layers   *result `json:"layers,omitempty"`
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readReport(path string) (*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep report
	if err := json.Unmarshal(b, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

// ---- order statistics

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// quantile is the p-quantile of sorted values by the exclusive method, the
// one Python's statistics.quantiles uses by default, so the spread printed
// here is the spread the acceptance check computes.
func quantile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n == 1 {
		return sorted[0]
	}
	pos := p*float64(n+1) - 1
	if pos <= 0 {
		return sorted[0]
	}
	if pos >= float64(n-1) {
		return sorted[n-1]
	}
	i := int(pos)
	return sorted[i] + (pos-float64(i))*(sorted[i+1]-sorted[i])
}

func median(v []float64) float64 { return quantile(sortedCopy(v), 0.5) }

// percentile is the nearest-rank p-th percentile: the smallest value with at
// least p percent of the samples at or below it.
func percentile(v []float64, p float64) float64 {
	s := sortedCopy(v)
	if len(s) == 0 {
		return 0
	}
	k := int(math.Ceil(float64(len(s))*p/100)) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(s) {
		k = len(s) - 1
	}
	return s[k]
}

func summarize(v []float64) sampleStats {
	s := sortedCopy(v)
	if len(s) == 0 {
		return sampleStats{}
	}
	return sampleStats{
		N: len(s), Median: quantile(s, 0.5), Min: s[0], Max: s[len(s)-1],
		IQR: quantile(s, 0.75) - quantile(s, 0.25),
	}
}

func millis(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
