// Command experiments reproduces the paper's tables and figures. Each
// experiment id names one artifact (see DESIGN.md §8 and EXPERIMENTS.md).
//
// Examples:
//
//	experiments -list
//	experiments -run fig4 -scale 0.25 -maxranks 16
//	experiments -run all -quick
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"edgeswitch/internal/harness"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command: exit status 0 on success, 1 when an experiment
// fails, 2 on a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		list     = fs.Bool("list", false, "list the experiments and exit")
		id       = fs.String("run", "", "experiment id to run, or 'all'")
		scale    = fs.Float64("scale", 0, "dataset scale multiplier (default 0.25)")
		seed     = fs.Uint64("seed", 0, "random seed (default 42)")
		maxRanks = fs.Int("maxranks", 0, "largest processor count in sweeps (default: #cores)")
		reps     = fs.Int("reps", 0, "repetitions for statistical experiments (default 5)")
		quick    = fs.Bool("quick", false, "tiny smoke-test sizes")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		fmt.Fprintln(stdout, "id        paper artifact    description")
		for _, e := range harness.Experiments() {
			fmt.Fprintf(stdout, "%-9s %-17s %s\n", e.ID, e.Paper, e.Title)
		}
		return 0
	}
	if *id == "" {
		fmt.Fprintln(stderr, "experiments: need -run ID or -list")
		return 2
	}
	cfg := harness.Config{
		Scale:    *scale,
		Seed:     *seed,
		MaxRanks: *maxRanks,
		Reps:     *reps,
		Quick:    *quick,
		Out:      stdout,
	}
	if *id == "all" {
		for _, e := range harness.Experiments() {
			if err := harness.Run(e.ID, cfg); err != nil {
				fmt.Fprintf(stderr, "experiments: %s: %v\n", e.ID, err)
				return 1
			}
			fmt.Fprintln(stdout)
		}
		return 0
	}
	if err := harness.Run(*id, cfg); err != nil {
		fmt.Fprintln(stderr, "experiments:", err)
		return 1
	}
	return 0
}
