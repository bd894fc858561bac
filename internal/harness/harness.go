// Package harness reproduces the paper's evaluation: every table and
// figure has a named experiment that regenerates its rows/series on the
// dataset stand-ins (see DESIGN.md §8 for the experiment index and §2 for
// the dataset substitutions). Absolute timings depend on the host; the
// shapes — who wins, scaling trends, crossovers — are the reproduction
// targets recorded in EXPERIMENTS.md.
package harness

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"text/tabwriter"
	"time"

	"edgeswitch/internal/core"
	"edgeswitch/internal/gen"
	"edgeswitch/internal/graph"
	"edgeswitch/internal/rng"
)

// Config parameterises an experiment run.
type Config struct {
	// Scale multiplies every dataset's default vertex count
	// (default 0.25; 1.0 reproduces the repository's reference sizes).
	Scale float64
	// Seed drives all randomness (default 42).
	Seed uint64
	// MaxRanks caps the processor counts swept by scaling experiments
	// (default: largest power of two ≤ GOMAXPROCS, at least 2).
	MaxRanks int
	// Reps is the repetition count for statistical experiments
	// (default 5; the paper uses 10).
	Reps int
	// Blocks is the r parameter of the error-rate metric (default 20,
	// matching the paper).
	Blocks int
	// Out receives the experiment's table output (default os.Stdout).
	Out io.Writer
	// Quick shrinks everything to smoke-test size (used by tests).
	Quick bool
}

func (c Config) withDefaults() Config {
	if c.Scale <= 0 {
		c.Scale = 0.25
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	if c.MaxRanks <= 0 {
		c.MaxRanks = 2
		for c.MaxRanks*2 <= runtime.GOMAXPROCS(0) && c.MaxRanks < 64 {
			c.MaxRanks *= 2
		}
	}
	if c.Reps <= 0 {
		c.Reps = 5
	}
	if c.Blocks <= 0 {
		c.Blocks = 20
	}
	if c.Out == nil {
		c.Out = os.Stdout
	}
	if c.Quick {
		c.Scale = 0.02
		if c.MaxRanks > 4 {
			c.MaxRanks = 4
		}
		if c.Reps > 2 {
			c.Reps = 2
		}
	}
	return c
}

// Experiment is one reproducible paper artifact.
type Experiment struct {
	// ID is the key used by `cmd/experiments -run` and bench names.
	ID string
	// Paper names the table/figure this regenerates.
	Paper string
	// Title is a one-line description.
	Title string
	// Run executes the experiment and prints its table.
	Run func(cfg Config) error
}

// registry holds all experiments in presentation order.
var registry = []Experiment{
	{"table1", "Table 1 / Fig. 2", "desired vs observed visit rate (sequential)", runTable1},
	{"table2", "Table 2", "dataset inventory (stand-in sizes vs paper sizes)", runTable2},
	{"fig4", "Fig. 4", "strong scaling of the CP parallel algorithm on eight graphs", runFig4},
	{"fig5", "Fig. 5", "weak scaling of the CP parallel algorithm (fixed and growing PA graphs)", runFig5},
	{"fig6_7", "Figs. 6-7", "step-size vs strong scaling and error rate across processors (Miami)", runFig6_7},
	{"fig8_9", "Figs. 8-9", "effect of step-size on speedup and error rate (Miami)", runFig8_9},
	{"fig10_11", "Figs. 10-11", "effect of step-size on speedup and error rate across graphs", runFig10_11},
	{"fig12_13", "Figs. 12-13", "clustering coefficient and path length vs visit rate, seq vs par", runFig12_13},
	{"fig14", "Fig. 14", "strong scaling of the HP-U parallel algorithm on eight graphs", runFig14},
	{"fig15", "Fig. 15", "scheme comparison: strong scaling on Miami and PA", runFig15},
	{"fig16_17", "Figs. 16-17", "initial vertex and edge distribution per scheme (Miami)", runFig16_17},
	{"fig18", "Fig. 18", "final edge distribution per scheme after switching (Miami)", runFig18},
	{"fig19_20", "Figs. 19-20", "workload distribution per scheme (Miami and PA)", runFig19_20},
	{"fig21_22", "Figs. 21-22", "adversarial relabeling worst case for HP-D on PA", runFig21_22},
	{"fig23", "Fig. 23", "weak scaling of all schemes on PA graphs", runFig23},
	{"table3", "Table 3", "one-step HP error rates vs sequential baseline", runTable3},
	{"fig24", "Fig. 24", "strong scaling of the parallel multinomial generator", runFig24},
	{"fig25", "Fig. 25", "weak scaling of the parallel multinomial generator", runFig25},
}

// Experiments returns all experiments in presentation order.
func Experiments() []Experiment { return registry }

// Lookup finds an experiment by ID.
func Lookup(id string) (Experiment, error) {
	for _, e := range registry {
		if e.ID == id {
			return e, nil
		}
	}
	ids := make([]string, len(registry))
	for i, e := range registry {
		ids[i] = e.ID
	}
	sort.Strings(ids)
	return Experiment{}, fmt.Errorf("harness: unknown experiment %q (have %v)", id, ids)
}

// Run executes the experiment with the given id.
func Run(id string, cfg Config) error {
	e, err := Lookup(id)
	if err != nil {
		return err
	}
	cfg = cfg.withDefaults()
	fmt.Fprintf(cfg.Out, "== %s (%s): %s ==\n", e.ID, e.Paper, e.Title)
	return e.Run(cfg)
}

// ---- shared helpers ----

// rankSweep returns {1, 2, 4, ..., MaxRanks}.
func rankSweep(cfg Config) []int {
	var out []int
	for p := 1; p <= cfg.MaxRanks; p *= 2 {
		out = append(out, p)
	}
	return out
}

// dataset builds a dataset stand-in at the configured scale.
func dataset(cfg Config, name string) (*graph.Graph, error) {
	return gen.Dataset(rng.New(cfg.Seed), name, cfg.Scale)
}

// opsForX computes t for a visit rate on g.
func opsForX(g *graph.Graph, x float64) (int64, error) {
	return core.OpsForVisitRate(g.M(), x)
}

// seqTime runs the sequential algorithm on a clone and reports duration.
func seqTime(g *graph.Graph, t int64, seed uint64) (time.Duration, error) {
	r := rng.Split(seed, 1000)
	work := g.Clone(r)
	start := time.Now()
	if _, err := core.Sequential(work, t, r); err != nil {
		return 0, err
	}
	return time.Since(start), nil
}

// seqResult runs the sequential algorithm on a clone and returns the
// resultant graph.
func seqResult(g *graph.Graph, t int64, seed uint64) (*graph.Graph, error) {
	r := rng.Split(seed, 1001)
	work := g.Clone(r)
	if _, err := core.Sequential(work, t, r); err != nil {
		return nil, err
	}
	return work, nil
}

// newTable starts an aligned table writer.
func newTable(w io.Writer) *tabwriter.Writer {
	return tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
}

// ms formats a duration in milliseconds.
func ms(d time.Duration) string { return fmt.Sprintf("%.1f", float64(d.Microseconds())/1000) }

// deciles summarises a per-rank vector as min/median/max plus the
// imbalance ratio — the textual stand-in for the paper's bar charts.
func deciles(loads []int64) (min, med, max int64, maxOverMean float64) {
	if len(loads) == 0 {
		return 0, 0, 0, 0
	}
	s := append([]int64(nil), loads...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	var sum int64
	for _, v := range s {
		sum += v
	}
	mean := float64(sum) / float64(len(s))
	if mean == 0 {
		mean = 1
	}
	return s[0], s[len(s)/2], s[len(s)-1], float64(s[len(s)-1]) / mean
}
