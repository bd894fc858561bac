// Command esbench is the repository's one benchmark: it times the run the
// paper defines — generator spec → EdgeHash at a target visit rate — on
// four workloads, as back-to-back randomizations of one generated input,
// and says which layer the seconds belong to. See README.md.
//
//	esbench -workload W -seed S -seconds N -trace 0|1   one workload, in this process
//	esbench -seed S [-runs R] [-trace 1] [-out F.json]  all four, one process each
//	esbench -compare A.json B.json                      apply the bounds of BENCHMARK.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("esbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "run this workload in this process (default: all, one process each)")
		seed    = fs.Uint64("seed", 1, "workload seed: generator spec seed S, rep i randomizes with S+1+i")
		seconds = fs.Float64("seconds", 20, "how long one run keeps starting timed reps")
		trace   = fs.Int("trace", 0, "1: report per-layer metrics from a traced pass and write the spans")
		runs    = fs.Int("runs", 1, "all-workloads mode: runs per workload, run j uses seed S+j")
		out     = fs.String("out", "", "all-workloads mode: write every run's metrics to this file, for -compare")
		outDir  = fs.String("outdir", "cmd/esbench/out", "directory for span files and spill directories")
		compare = fs.Bool("compare", false, "compare two -out files: esbench -compare A.json B.json")
		bench   = fs.String("benchmark", "BENCHMARK.json", "the benchmark definition -compare takes its bounds from")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	// Two ranks on two cores; more cores would only let the runtime's
	// background work hide, fewer is what the host has.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), ranks))

	var err error
	code := 0
	switch {
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: esbench -compare A.json B.json")
			return 2
		}
		code, err = compareFiles(stdout, *bench, fs.Arg(0), fs.Arg(1))
	case *name != "":
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(stderr, "esbench: unknown workload %q\n", *name)
			return 2
		}
		code, err = runOne(stdout, w, *seed, time.Duration(*seconds*float64(time.Second)), *trace != 0, *outDir)
	default:
		code, err = runAll(stdout, stderr, *seed, *seconds, *trace, *runs, *out, *outDir)
	}
	if err != nil {
		fmt.Fprintf(stderr, "esbench: %v\n", err)
		return 1
	}
	return code
}

// report is the last line of a one-workload run's standard output.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]reportValue `json:"metrics"`
}

type reportValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runOne runs one workload in this process: timed reps, the correctness
// gate and, with trace, the traced pass. It prints every metric with its
// unit, median, quartiles and sample count, then the report line. The
// exit code is 1 when any rep or check failed.
func runOne(stdout io.Writer, w workload, seed uint64, budget time.Duration, trace bool, outDir string) (int, error) {
	rep, err := measure(stdout, w, seed, budget, trace, outDir)
	if err != nil {
		return 1, err
	}
	line, err := json.Marshal(rep)
	if err != nil {
		return 1, err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !rep.Correct {
		return 1, nil
	}
	return 0, nil
}

func measure(stdout io.Writer, w workload, seed uint64, budget time.Duration, trace bool, outDir string) (report, error) {
	r, err := newRunner(w, seed, outDir)
	if err != nil {
		return report{}, err
	}
	fmt.Fprintf(stdout, "# esbench workload=%s seed=%d seconds=%g trace=%t gomaxprocs=%d ranks=%d x=%g t=%d\n",
		w.name, seed, budget.Seconds(), trace, runtime.GOMAXPROCS(0), ranks, targetX, r.t)
	shown := r.e2e
	if trace {
		// The traced pass shares the run's time with the reps that give
		// the run-derived layer numbers.
		r.timedReps(budget / 2)
		r.runMetrics()
		if len(r.reps) == 0 {
			r.verify()
		} else if err := r.tracedPass(stdout); err != nil {
			return report{}, err
		}
		shown = r.layer
	} else {
		r.timedReps(budget)
		r.verify()
	}
	rep := report{Correct: len(r.failures) == 0, Attempted: r.attempted, Failed: len(r.failures),
		Metrics: map[string]reportValue{}}
	fmt.Fprintf(stdout, "%-34s %-6s %14s %14s %14s %4s %14s\n", "metric", "unit", "median", "q1", "q3", "n", "min")
	for _, m := range shown.list {
		q1, med, q3 := quartiles(m.samples)
		fmt.Fprintf(stdout, "%-34s %-6s %14.6g %14.6g %14.6g %4d %14.6g\n", m.name, m.unit, med, q1, q3, len(m.samples), slices.Min(m.samples))
		rep.Metrics[m.name] = reportValue{med, m.unit}
	}
	fmt.Fprintf(stdout, "%-34s %-6s %14.6g %14s %14s %4d\n", "failed_share", "ratio",
		float64(rep.Failed)/float64(rep.Attempted), "", "", rep.Attempted)
	for _, f := range r.failures {
		fmt.Fprintf(stdout, "FAILED %s: %s\n", w.name, f)
	}
	return rep, nil
}
