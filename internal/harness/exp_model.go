package harness

import (
	"fmt"

	"edgeswitch/internal/core"
	"edgeswitch/internal/perfmodel"
)

// runFig4Model projects the strong-scaling curves of Figs. 4/14/15 to the
// paper's cluster scale with the analytical performance model
// (internal/perfmodel): per-operation message/round-trip constants are
// the engine's measured values, workload skew factors are measured from
// actual runs at MaxRanks, and the machine parameters describe the
// paper's InfiniBand testbed class. The reproduction target is the
// published shape: speedup rising to ~100× around 512–1024 processors for
// balanced scheme/graph pairs, with CP-on-clustered-graph skew costing a
// constant factor (§5.2) and the adversarial HP-D case collapsing.
func runFig4Model(cfg Config) error {
	// Measure the skew factor of each scheme/graph pairing at MaxRanks.
	type pairing struct {
		graph  string
		scheme core.Scheme
	}
	pairings := []pairing{
		{"miami", core.SchemeCP},
		{"miami", core.SchemeHPU},
		{"pa", core.SchemeCP},
		{"pa", core.SchemeHPU},
	}
	// The paper's headline workload: a New York-class graph (m ≈ 587M)
	// fully randomized. Scaled-down runs measure skew; the model
	// extrapolates the op counts to paper scale.
	const paperOps = int64(2_000_000_000) // ≈ m·H_m/2 for m = 587M... order of magnitude
	tw := newTable(cfg.Out)
	fmt.Fprintln(tw, "graph\tscheme\tmeasured skew\tp\tpredicted speedup\tcomm frac")
	for _, pr := range pairings {
		g, err := dataset(cfg, pr.graph)
		if err != nil {
			return err
		}
		t, err := opsForX(g, 1)
		if err != nil {
			return err
		}
		res, err := core.Parallel(g, t, core.Config{
			Ranks: cfg.MaxRanks, Scheme: pr.scheme, Seed: cfg.Seed,
			StepSize: t / 100, SkipResult: true,
		})
		if err != nil {
			return err
		}
		_, _, _, skew := deciles(res.RankOps)
		if skew < 1 {
			skew = 1
		}
		w := perfmodel.DefaultWorkload(paperOps, 100)
		w.SkewFactor = skew
		for _, p := range []int{16, 64, 256, 640, 1024} {
			pred, err := perfmodel.Predict(perfmodel.InfiniBandCluster, w, p)
			if err != nil {
				return err
			}
			fmt.Fprintf(tw, "%s\t%s\t%.2f\t%d\t%.1f\t%.2f\n",
				pr.graph, pr.scheme, skew, p, pred.Speedup, pred.CommFrac)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	bestP, best, err := perfmodel.PeakSpeedup(perfmodel.InfiniBandCluster,
		perfmodel.DefaultWorkload(paperOps, 100), 1024)
	if err != nil {
		return err
	}
	fmt.Fprintf(cfg.Out, "balanced-workload peak: speedup %.1f at p=%d (paper: 110 at p=640 on New York)\n", best, bestP)
	return nil
}
