package harness

import (
	"fmt"

	"edgeswitch/internal/core"
	"edgeswitch/internal/graph"
	"edgeswitch/internal/metrics"
)

// stepSizes derives the sweep of step sizes from t (the paper sweeps
// absolute sizes 0.1M..9.4M on Miami; relative fractions transfer across
// scales).
func stepSizes(t int64) []int64 {
	fracs := []int64{1000, 300, 100, 30, 10, 3, 1}
	var out []int64
	seen := map[int64]bool{}
	for _, f := range fracs {
		s := t / f
		if s < 1 {
			s = 1
		}
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

// seqBaselineER measures ER between two independent sequential runs —
// the noise floor every parallel error rate is compared against.
func seqBaselineER(cfg Config, g *graph.Graph, t int64) (float64, error) {
	var sum float64
	for rep := 0; rep < cfg.Reps; rep++ {
		a, err := seqResult(g, t, cfg.Seed+uint64(rep)*17)
		if err != nil {
			return 0, err
		}
		b, err := seqResult(g, t, cfg.Seed+uint64(rep)*17+7)
		if err != nil {
			return 0, err
		}
		er, err := metrics.ErrorRate(a, b, cfg.Blocks)
		if err != nil {
			return 0, err
		}
		sum += er
	}
	return sum / float64(cfg.Reps), nil
}

// parER measures the mean ER between sequential and parallel results.
func parER(cfg Config, g *graph.Graph, t int64, pcfg core.Config) (float64, error) {
	var sum float64
	for rep := 0; rep < cfg.Reps; rep++ {
		s, err := seqResult(g, t, cfg.Seed+uint64(rep)*29)
		if err != nil {
			return 0, err
		}
		pc := pcfg
		pc.Seed = cfg.Seed + uint64(rep)*31
		res, err := core.Parallel(g, t, pc)
		if err != nil {
			return 0, err
		}
		er, err := metrics.ErrorRate(s, res.Graph, cfg.Blocks)
		if err != nil {
			return 0, err
		}
		sum += er
	}
	return sum / float64(cfg.Reps), nil
}

// runFig6_7 sweeps (step size × processor count) on Miami: Fig. 6 is the
// strong-scaling effect of the step size, Fig. 7 shows the error rate
// staying roughly constant in p for a fixed step size.
func runFig6_7(cfg Config) error {
	g, err := dataset(cfg, "miami")
	if err != nil {
		return err
	}
	t, err := opsForX(g, 1)
	if err != nil {
		return err
	}
	base, err := seqTime(g, t, cfg.Seed)
	if err != nil {
		return err
	}
	baseline, err := seqBaselineER(cfg, g, t)
	if err != nil {
		return err
	}
	fmt.Fprintf(cfg.Out, "miami stand-in m=%d t=%d, seq time %s ms, seq-vs-seq ER %.3f%%\n",
		g.M(), t, ms(base), baseline)
	tw := newTable(cfg.Out)
	fmt.Fprintln(tw, "step size\tp\ttime ms\tspeedup\tER vs seq %")
	// A reduced sweep keeps the run tractable: three step sizes × ranks.
	for _, s := range []int64{t / 100, t / 10, t} {
		if s < 1 {
			s = 1
		}
		for _, p := range rankSweep(cfg) {
			if p == 1 {
				continue
			}
			pcfg := core.Config{Ranks: p, Scheme: core.SchemeCP, Seed: cfg.Seed, StepSize: s}
			res, err := core.Parallel(g, t, pcfg)
			if err != nil {
				return err
			}
			er, err := parER(cfg, g, t, pcfg)
			if err != nil {
				return err
			}
			fmt.Fprintf(tw, "%d\t%d\t%s\t%.2f\t%.3f\n",
				s, p, ms(res.Elapsed), float64(base)/float64(res.Elapsed), er)
		}
	}
	return tw.Flush()
}

// runFig8_9 fixes p = MaxRanks and sweeps the step size on Miami:
// speedup (Fig. 8) and error rate (Fig. 9) both grow with the step size;
// a suitable step size is the largest whose ER stays at the sequential
// baseline.
func runFig8_9(cfg Config) error {
	g, err := dataset(cfg, "miami")
	if err != nil {
		return err
	}
	return stepSizeSweep(cfg, "miami", g, core.SchemeCP)
}

// runFig10_11 runs the step-size sweep on four graphs; the paper's
// observation is that ER is flat in the step size for Erdős–Rényi and
// LiveJournal but rises for Miami and Flickr.
func runFig10_11(cfg Config) error {
	for _, name := range []string{"flickr", "miami", "livejournal", "erdosrenyi"} {
		g, err := dataset(cfg, name)
		if err != nil {
			return err
		}
		if err := stepSizeSweep(cfg, name, g, core.SchemeCP); err != nil {
			return err
		}
	}
	return nil
}

func stepSizeSweep(cfg Config, name string, g *graph.Graph, scheme core.Scheme) error {
	t, err := opsForX(g, 1)
	if err != nil {
		return err
	}
	base, err := seqTime(g, t, cfg.Seed)
	if err != nil {
		return err
	}
	baseline, err := seqBaselineER(cfg, g, t)
	if err != nil {
		return err
	}
	p := cfg.MaxRanks
	fmt.Fprintf(cfg.Out, "%s: m=%d t=%d p=%d, seq time %s ms, seq-vs-seq ER %.3f%%\n",
		name, g.M(), t, p, ms(base), baseline)
	tw := newTable(cfg.Out)
	fmt.Fprintln(tw, "step size\tsteps\ttime ms\tspeedup\tER vs seq %")
	for _, s := range stepSizes(t) {
		pcfg := core.Config{Ranks: p, Scheme: scheme, Seed: cfg.Seed, StepSize: s}
		res, err := core.Parallel(g, t, pcfg)
		if err != nil {
			return err
		}
		er, err := parER(cfg, g, t, pcfg)
		if err != nil {
			return err
		}
		fmt.Fprintf(tw, "%d\t%d\t%s\t%.2f\t%.3f\n",
			s, res.Steps, ms(res.Elapsed), float64(base)/float64(res.Elapsed), er)
	}
	return tw.Flush()
}

// table3Row is one dataset's line of Table 3. Every error rate is a mean
// over cfg.Reps runs, in percent.
type table3Row struct {
	dataset string
	// baseline is the sequential-vs-sequential error rate.
	baseline float64
	// oneStep is each scheme's parallel-vs-sequential error rate with all
	// t operations in a single step.
	oneStep map[core.Scheme]float64
	// cpT100 is CP's error rate at step size t/100.
	cpT100 float64
}

// table3 measures the one-step accuracy comparison on the named
// datasets at p = MaxRanks.
func table3(cfg Config, names []string) ([]table3Row, error) {
	var rows []table3Row
	for _, name := range names {
		g, err := dataset(cfg, name)
		if err != nil {
			return nil, err
		}
		t, err := opsForX(g, 1)
		if err != nil {
			return nil, err
		}
		row := table3Row{dataset: name, oneStep: map[core.Scheme]float64{}}
		if row.baseline, err = seqBaselineER(cfg, g, t); err != nil {
			return nil, err
		}
		for _, scheme := range []core.Scheme{core.SchemeHPD, core.SchemeHPM, core.SchemeHPU, core.SchemeCP} {
			er, err := parER(cfg, g, t, core.Config{Ranks: cfg.MaxRanks, Scheme: scheme, Seed: cfg.Seed})
			if err != nil {
				return nil, err
			}
			row.oneStep[scheme] = er
		}
		row.cpT100, err = parER(cfg, g, t, core.Config{Ranks: cfg.MaxRanks, Scheme: core.SchemeCP, Seed: cfg.Seed, StepSize: t / 100})
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// runTable3 reproduces the one-step accuracy comparison: the HP schemes
// performing all operations in a single step stay at the sequential
// baseline error rate, while CP needs many steps.
func runTable3(cfg Config) error {
	rows, err := table3(cfg, []string{"miami", "smallworld", "livejournal"})
	if err != nil {
		return err
	}
	tw := newTable(cfg.Out)
	fmt.Fprintln(tw, "dataset\tseq-vs-seq ER %\tHP-D 1-step\tHP-M 1-step\tHP-U 1-step\tCP 1-step\tCP 100-step")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%.3f\t%.3f\t%.3f\t%.3f\t%.3f\t%.3f\n", r.dataset, r.baseline,
			r.oneStep[core.SchemeHPD], r.oneStep[core.SchemeHPM], r.oneStep[core.SchemeHPU],
			r.oneStep[core.SchemeCP], r.cpT100)
	}
	return tw.Flush()
}
