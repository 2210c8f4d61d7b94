package main

import (
	"fmt"
	"io"
	"math"
	"sort"
)

// compareFiles compares two -out reports, A the parent and B the change.
// Per workload and end-to-end metric it prints both medians, how much worse
// B is as a share of A, the bound, and a verdict:
//
//	ok          B is not worse than A by more than the bound
//	regressed   it is
//	unresolved  A's own spread (IQR / median) exceeds the bound, so a
//	            difference of that size cannot be told from noise
//
// It reports regressed=true on any "regressed" row or when B failed a larger
// share of its operations. Layer metrics and exact counts are printed for
// information only.
func compareFiles(w io.Writer, pathA, pathB string) (regressed bool, err error) {
	a, err := readReport(pathA)
	if err != nil {
		return false, err
	}
	b, err := readReport(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "A: %s  %s (%s, GOMAXPROCS %d)\nB: %s  %s (%s, GOMAXPROCS %d)\n",
		pathA, a.Host.Commit, a.Host.CPU, a.Host.GoMaxProcs, pathB, b.Host.Commit, b.Host.CPU, b.Host.GoMaxProcs)
	if a.Host.CPU != b.Host.CPU || a.Host.GoMaxProcs != b.Host.GoMaxProcs {
		fmt.Fprintln(w, "warning: the reports come from different hosts; host time does not compare")
	}
	byName := make(map[string]workloadReport, len(b.Workloads))
	for _, wr := range b.Workloads {
		byName[wr.Name] = wr
	}
	fmt.Fprintf(w, "\n%-16s %-14s %14s %14s %8s %6s  %s\n", "workload", "metric", "A", "B", "worse", "bound", "verdict")
	for _, wa := range a.Workloads {
		wb, ok := byName[wa.Name]
		if !ok || wa.EndToEnd == nil || wb.EndToEnd == nil {
			fmt.Fprintf(w, "%-16s missing from one report\n", wa.Name)
			regressed = true
			continue
		}
		ea, eb := wa.EndToEnd, wb.EndToEnd
		for _, d := range endToEnd {
			va, vb := ea.Metrics[d.Name].Value, eb.Metrics[d.Name].Value
			worse := worseBy(d, va, vb)
			verdict := "ok"
			switch {
			case va == 0 || vb == 0:
				verdict, regressed = "regressed (missing)", true
			case worse > d.Bound && spread(ea.Samples[d.Name]) > d.Bound:
				verdict = "unresolved"
			case worse > d.Bound:
				verdict, regressed = "regressed", true
			}
			fmt.Fprintf(w, "%-16s %-14s %14.6g %14.6g %+7.1f%% %5.0f%%  %s\n", wa.Name, d.Name, va, vb, 100*worse, 100*d.Bound, verdict)
		}
		fa, fb := failedShare(ea), failedShare(eb)
		verdict := "ok"
		if fb > fa {
			verdict, regressed = "regressed", true
		}
		fmt.Fprintf(w, "%-16s %-14s %9d/%-4d %9d/%-4d %23s\n", wa.Name, "failed", ea.Failed, ea.Attempted, eb.Failed, eb.Attempted, verdict)
		same := "same"
		if ea.Seed != eb.Seed {
			same = "seeds differ"
		} else if ea.EventsCommitted != eb.EventsCommitted || ea.Digest != eb.Digest {
			same = "DIFFERENT simulated result"
		}
		fmt.Fprintf(w, "%-16s %-14s %14d %14d  digest %s / %s: %s\n", wa.Name, "events", ea.EventsCommitted, eb.EventsCommitted, ea.Digest, eb.Digest, same)
	}

	fmt.Fprintf(w, "\nper-layer metrics (information only)\n%-16s %-28s %14s %14s %9s\n", "workload", "metric", "A", "B", "B/A-1")
	for _, wa := range a.Workloads {
		wb := byName[wa.Name]
		if wa.Layers == nil || wb.Layers == nil {
			continue
		}
		names := make([]string, 0, len(wa.Layers.Metrics))
		for n := range wa.Layers.Metrics {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			va, vb := wa.Layers.Metrics[n].Value, wb.Layers.Metrics[n].Value
			if va == 0 && vb == 0 {
				continue
			}
			delta := "n/a"
			if va != 0 {
				delta = fmt.Sprintf("%+.1f%%", 100*(vb/va-1))
			}
			fmt.Fprintf(w, "%-16s %-28s %14.6g %14.6g %9s\n", wa.Name, n, va, vb, delta)
		}
	}
	return regressed, nil
}

// worseBy is how much worse b is than a, as a share of a; negative when b
// is better.
func worseBy(d metricDef, a, b float64) float64 {
	if a == 0 {
		return math.Inf(1)
	}
	if d.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

func spread(s sampleStats) float64 {
	if s.Median == 0 {
		return 0
	}
	return s.IQR / s.Median
}

func failedShare(r *result) float64 {
	if r.Attempted == 0 {
		return 1
	}
	return float64(r.Failed) / float64(r.Attempted)
}
