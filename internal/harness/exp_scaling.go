package harness

import (
	"fmt"
	"time"

	"edgeswitch/internal/core"
	"edgeswitch/internal/gen"
	"edgeswitch/internal/graph"
	"edgeswitch/internal/rng"
)

// strongScaling sweeps processor counts on the given datasets with one
// scheme, printing runtime and speedup against the sequential algorithm
// (the paper's Figs. 4 and 14).
func strongScaling(cfg Config, scheme core.Scheme, names []string) error {
	tw := newTable(cfg.Out)
	fmt.Fprintln(tw, "dataset\tm\tt (ops)\tp\ttime ms\tspeedup vs seq\tspeedup vs p=1")
	for _, name := range names {
		g, err := dataset(cfg, name)
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
		fmt.Fprintf(tw, "%s\t%d\t%d\tseq\t%s\t1.00\t-\n", name, g.M(), t, ms(base))
		var p1 time.Duration
		for _, p := range rankSweep(cfg) {
			res, err := core.Parallel(g, t, core.Config{
				Ranks: p, Scheme: scheme, Seed: cfg.Seed, StepSize: t / 100, SkipResult: true,
			})
			if err != nil {
				return err
			}
			if p == 1 {
				p1 = res.Elapsed
			}
			fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%s\t%.2f\t%.2f\n",
				name, g.M(), t, p, ms(res.Elapsed),
				float64(base)/float64(res.Elapsed), float64(p1)/float64(res.Elapsed))
		}
		if err := tw.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// runFig4 is the CP strong-scaling figure over the eight graphs.
func runFig4(cfg Config) error {
	names := make([]string, 0, 8)
	for _, s := range gen.DefaultDatasets() {
		names = append(names, s.Name)
	}
	return strongScaling(cfg, core.SchemeCP, names)
}

// runFig14 is the HP-U strong-scaling figure over the eight graphs.
func runFig14(cfg Config) error {
	names := make([]string, 0, 8)
	for _, s := range gen.DefaultDatasets() {
		names = append(names, s.Name)
	}
	return strongScaling(cfg, core.SchemeHPU, names)
}

// runFig15 compares all four schemes on Miami and PA.
func runFig15(cfg Config) error {
	tw := newTable(cfg.Out)
	fmt.Fprintln(tw, "dataset\tscheme\tp\ttime ms\tspeedup vs seq\tspeedup vs p=1")
	for _, name := range []string{"miami", "pa"} {
		g, err := dataset(cfg, name)
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
		for _, scheme := range core.Schemes() {
			var p1 time.Duration
			for _, p := range rankSweep(cfg) {
				res, err := core.Parallel(g, t, core.Config{
					Ranks: p, Scheme: scheme, Seed: cfg.Seed, StepSize: t / 100, SkipResult: true,
				})
				if err != nil {
					return err
				}
				if p == 1 {
					p1 = res.Elapsed
				}
				fmt.Fprintf(tw, "%s\t%s\t%d\t%s\t%.2f\t%.2f\n",
					name, scheme, p, ms(res.Elapsed),
					float64(base)/float64(res.Elapsed), float64(p1)/float64(res.Elapsed))
			}
		}
		if err := tw.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// weakScaling runs the paper's weak-scaling protocol for one scheme:
// a PA graph growing with p (n = p·n₀) and a fixed PA graph, both with
// t = p·t₀ operations. Ideal weak scaling keeps the runtime flat; the
// paper reports a linear increase from communication growth.
func weakScaling(cfg Config, schemes []core.Scheme) error {
	n0 := int(10000 * cfg.Scale * 4)
	if n0 < 200 {
		n0 = 200
	}
	const d = 10 // PA attachment degree => avg degree ~20
	tw := newTable(cfg.Out)
	fmt.Fprintln(tw, "scheme\tvariant\tp\tn\tm\tt (ops)\ttime ms")
	fixed, err := gen.PrefAttachment(rng.Split(cfg.Seed, 50), n0*cfg.MaxRanks, d)
	if err != nil {
		return err
	}
	for _, scheme := range schemes {
		for _, p := range rankSweep(cfg) {
			growing, err := gen.PrefAttachment(rng.Split(cfg.Seed, 51), n0*p, d)
			if err != nil {
				return err
			}
			t := int64(p) * int64(n0) * 10
			step := t / 1000
			if step < 1000 {
				step = 1000
			}
			for _, v := range []struct {
				label string
				g     *graph.Graph
			}{{"growing", growing}, {"fixed", fixed}} {
				res, err := core.Parallel(v.g, t, core.Config{
					Ranks: p, Scheme: scheme, Seed: cfg.Seed, StepSize: step, SkipResult: true,
				})
				if err != nil {
					return err
				}
				fmt.Fprintf(tw, "%s\t%s\t%d\t%d\t%d\t%d\t%s\n",
					scheme, v.label, p, v.g.N(), v.g.M(), t, ms(res.Elapsed))
			}
		}
		if err := tw.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// runFig5 is CP weak scaling.
func runFig5(cfg Config) error { return weakScaling(cfg, []core.Scheme{core.SchemeCP}) }

// runFig23 is weak scaling of all four schemes.
func runFig23(cfg Config) error { return weakScaling(cfg, core.Schemes()) }

// fig21_22Row is one scheme's run on the adversarially relabeled graph.
type fig21_22Row struct {
	scheme  core.Scheme
	elapsed time.Duration
	// speedup is HP-D's elapsed time over this scheme's.
	speedup float64
	// hotShare is the percentage of all operations the hot rank performed.
	hotShare float64
	// maxOverMean is the per-rank operation imbalance.
	maxOverMean float64
}

// fig21_22 relabels the PA stand-in so the n/p highest-degree vertices
// land on one HP-D rank, runs every scheme on it at p = MaxRanks, and
// returns the relabeled graph, the hot rank and one row per scheme.
func fig21_22(cfg Config) (*graph.Graph, int, []fig21_22Row, error) {
	g, err := dataset(cfg, "pa")
	if err != nil {
		return nil, 0, nil, err
	}
	p := cfg.MaxRanks
	hot := p / 4
	adv, err := gen.AdversarialRelabel(rng.Split(cfg.Seed, 52), g, p, hot)
	if err != nil {
		return nil, 0, nil, err
	}
	t, err := opsForX(adv, 1)
	if err != nil {
		return nil, 0, nil, err
	}
	var rows []fig21_22Row
	var hpdTime time.Duration
	for _, scheme := range core.Schemes() {
		res, err := core.Parallel(adv, t, core.Config{
			Ranks: p, Scheme: scheme, Seed: cfg.Seed, StepSize: t / 100, SkipResult: true,
		})
		if err != nil {
			return nil, 0, nil, err
		}
		if scheme == core.SchemeHPD {
			hpdTime = res.Elapsed
		}
		var total int64
		for _, ops := range res.RankOps {
			total += ops
		}
		row := fig21_22Row{scheme: scheme, elapsed: res.Elapsed}
		if total > 0 {
			row.hotShare = 100 * float64(res.RankOps[hot]) / float64(total)
		}
		_, _, _, row.maxOverMean = deciles(res.RankOps)
		rows = append(rows, row)
	}
	// core.Schemes lists CP before HP-D, so the ratios wait for every run.
	for i := range rows {
		if rows[i].elapsed > 0 {
			rows[i].speedup = float64(hpdTime) / float64(rows[i].elapsed)
		}
	}
	return adv, hot, rows, nil
}

// runFig21_22 reproduces the adversarial worst case. Fig. 21 is the hot
// HP-D rank's workload dominance; Fig. 22 the scheme speedup comparison
// on the manipulated graph (the paper reports CP running 28× faster than
// HP-D there).
func runFig21_22(cfg Config) error {
	adv, hot, rows, err := fig21_22(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(cfg.Out, "PA stand-in n=%d m=%d, adversarially relabeled for HP-D, p=%d, hot rank=%d\n",
		adv.N(), adv.M(), cfg.MaxRanks, hot)
	tw := newTable(cfg.Out)
	fmt.Fprintln(tw, "scheme\ttime ms\tspeedup vs HP-D\thot-rank ops share %\tmax/mean workload")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%.2f\t%.1f\t%.2f\n", r.scheme, ms(r.elapsed), r.speedup, r.hotShare, r.maxOverMean)
	}
	return tw.Flush()
}
