// Command bench is the repository's benchmark: six named workloads, measured
// end to end (host throughput, operation latency, set-up time) and layer by
// layer from outside the simulator, every run checked against refsim.
//
//	go run -C bench . [-seed 1] [-seconds 10] [-out FILE] [-spans FILE]
//	go run -C bench . -workload NAME [-seed 1] [-seconds 10] [-trace 0|1]
//	go run -C bench . -compare A.json B.json
//
// Without -workload every workload runs, each in a process of its own (fresh
// heap and worker pool), once for the end-to-end metrics and once traced for
// the per-layer metrics. With -workload one workload runs in this process in
// one mode and the last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. README.md defines the
// workloads and metrics; BENCHMARK.json at the repository root fixes their
// names and regression bounds.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
)

func main() {
	var (
		name     = flag.String("workload", "", "run this workload only, in this process")
		seed     = flag.Int64("seed", 1, "seed of the delay annotation and the stimulus")
		secs     = flag.Float64("seconds", 10, "measure timed operations for this long")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
		out      = flag.String("out", "", "write the full report (all workloads, both modes) as JSON to this file")
		spans    = flag.String("spans", "", "write the traced run's spans as Chrome trace JSON to this file")
		compare  = flag.Bool("compare", false, "compare two -out reports: bench -compare A.json B.json")
		resultFD = flag.Int("result-fd", 0, "internal: write the full result as JSON to this inherited descriptor")
	)
	flag.Parse()
	// One load-generating process, never more than two busy goroutines.
	if runtime.GOMAXPROCS(0) > 2 {
		runtime.GOMAXPROCS(2)
	}
	var err error
	switch {
	case *compare:
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare needs two report files")
			os.Exit(2)
		}
		var regressed bool
		if regressed, err = compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)); err == nil && regressed {
			os.Exit(1)
		}
	case *name != "":
		err = runOne(*name, defaultConfig(*seed, *secs, *trace != 0), *spans, *resultFD)
	default:
		err = runAll(*seed, *secs, *out, *spans)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// runWorkload dispatches on the workload's kind.
func runWorkload(ctx context.Context, w workload, cfg runConfig) (*result, error) {
	var res *result
	var err error
	switch w.Kind {
	case kindSim, kindLanes:
		res, err = runEngineWorkload(ctx, w, cfg)
	case kindServe:
		res, err = runServeWorkload(ctx, w, cfg)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	res.finish()
	return res, nil
}

// errIncorrect reports failed operations after the result has been printed.
var errIncorrect = errors.New("operations failed; see the FAILED lines above")

func runOne(name string, cfg runConfig, spansPath string, resultFD int) error {
	w, err := workloadByName(name)
	if err != nil {
		return err
	}
	res, err := runWorkload(context.Background(), w, cfg)
	if err != nil {
		return err
	}
	if spansPath != "" && res.spans != nil {
		f, err := os.Create(spansPath)
		if err != nil {
			return err
		}
		if err := res.spans.writeChrome(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	if resultFD > 0 {
		pipe := os.NewFile(uintptr(resultFD), "result")
		if err := json.NewEncoder(pipe).Encode(res); err != nil {
			return err
		}
		if err := pipe.Close(); err != nil {
			return err
		}
	}
	if err := res.print(os.Stdout); err != nil {
		return err
	}
	if !res.Correct {
		return errIncorrect
	}
	return nil
}

// runAll re-executes this binary once per workload and mode, so each
// measurement starts from a fresh heap and worker pool and its ru_maxrss is
// its own. A child's full result comes back on an inherited pipe.
func runAll(seed int64, secs float64, outPath, spansPath string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	rep := report{Host: fingerprint(), Seed: seed, Seconds: secs}
	fmt.Printf("host: %s, %d cpus, GOMAXPROCS %d, %s, commit %s\n",
		rep.Host.CPU, rep.Host.NumCPU, rep.Host.GoMaxProcs, rep.Host.GoVersion, rep.Host.Commit)
	failed := false
	for _, w := range workloads {
		wr := workloadReport{Name: w.Name}
		for traced := 0; traced <= 1; traced++ {
			args := []string{"-workload", w.Name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(secs),
				"-trace", fmt.Sprint(traced), "-result-fd", "3"}
			if traced == 1 && spansPath != "" {
				args = append(args, "-spans", spansPath+"."+w.Name+".json")
			}
			res, err := runChild(self, args)
			if res == nil {
				return fmt.Errorf("%s: %w", w.Name, err)
			}
			failed = failed || err != nil
			if traced == 1 {
				wr.Layers = res
			} else {
				wr.EndToEnd = res
			}
		}
		rep.Workloads = append(rep.Workloads, wr)
	}
	if outPath != "" {
		if err := writeJSON(outPath, rep); err != nil {
			return err
		}
	}
	if failed {
		return errIncorrect
	}
	return nil
}

// runChild runs one workload in a child process, passing its output through
// and waiting for it to end. A child that printed a result but exits
// non-zero (failed operations) yields both the result and the error.
func runChild(self string, args []string) (*result, error) {
	pr, pw, err := os.Pipe()
	if err != nil {
		return nil, err
	}
	defer pr.Close()
	cmd := exec.Command(self, args...)
	cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
	cmd.ExtraFiles = []*os.File{pw} // descriptor 3 in the child
	if err := cmd.Start(); err != nil {
		pw.Close()
		return nil, err
	}
	pw.Close()
	var res result
	decErr := json.NewDecoder(pr).Decode(&res)
	waitErr := cmd.Wait()
	if decErr != nil {
		if waitErr != nil {
			return nil, waitErr
		}
		return nil, fmt.Errorf("reading child result: %w", decErr)
	}
	return &res, waitErr
}
