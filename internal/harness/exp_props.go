package harness

import (
	"fmt"

	"edgeswitch/internal/core"
	"edgeswitch/internal/graph"
	"edgeswitch/internal/metrics"
	"edgeswitch/internal/rng"
)

// runFig12_13 tracks how the average clustering coefficient (Fig. 12)
// and average shortest-path distance (Fig. 13) change with the visit
// rate, for the sequential and parallel algorithms. The paper's claim:
// the two algorithms trace identical curves. Switching is incremental —
// each visit-rate point continues from the previous graph, so the total
// work is one full randomization per algorithm per graph.
func runFig12_13(cfg Config) error {
	clusterSamples := 400
	bfsSources := 8
	for _, name := range []string{"miami", "livejournal", "flickr"} {
		g, err := dataset(cfg, name)
		if err != nil {
			return err
		}
		fmt.Fprintf(cfg.Out, "%s: n=%d m=%d (sampled metrics: %d cluster vertices, %d BFS sources)\n",
			name, g.N(), g.M(), clusterSamples, bfsSources)
		tw := newTable(cfg.Out)
		fmt.Fprintln(tw, "visit rate\tseq clustering\tpar clustering\tseq avg path\tpar avg path")

		mr := rng.Split(cfg.Seed, 60)
		cc0 := metrics.SampledClusteringCoefficient(g, clusterSamples, mr)
		sp0 := metrics.AvgShortestPath(g, bfsSources, mr)
		fmt.Fprintf(tw, "0.0\t%.4f\t%.4f\t%.3f\t%.3f\n", cc0, cc0, sp0, sp0)

		seqG := g.Clone(mr)
		parG := g
		seqR := rng.Split(cfg.Seed, 61)
		var prevOps int64
		for _, x := range []float64{0.2, 0.4, 0.6, 0.8, 1.0} {
			tTotal, err := opsForX(g, x)
			if err != nil {
				return err
			}
			delta := tTotal - prevOps
			prevOps = tTotal
			if _, err := core.Sequential(seqG, delta, seqR); err != nil {
				return err
			}
			res, err := core.Parallel(parG, delta, core.Config{
				Ranks: cfg.MaxRanks, Scheme: core.SchemeHPU, Seed: cfg.Seed + uint64(x*100),
			})
			if err != nil {
				return err
			}
			parG = res.Graph
			sc := metrics.SampledClusteringCoefficient(seqG, clusterSamples, mr)
			pc := metrics.SampledClusteringCoefficient(parG, clusterSamples, mr)
			sd := metrics.AvgShortestPath(seqG, bfsSources, mr)
			pd := metrics.AvgShortestPath(parG, bfsSources, mr)
			fmt.Fprintf(tw, "%.1f\t%.4f\t%.4f\t%.3f\t%.3f\n", x, sc, pc, sd, pd)
		}
		if err := tw.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// distRow prints one per-rank distribution as min/median/max/imbalance.
func distRow(tw interface{ Write([]byte) (int, error) }, scheme core.Scheme, what string, loads []int64) {
	min, med, max, imb := deciles(loads)
	fmt.Fprintf(tw, "%s\t%s\t%d\t%d\t%d\t%.2f\n", scheme, what, min, med, max, imb)
}

// runFig16_17 reports the initial vertex (Fig. 16) and edge (Fig. 17)
// distributions across ranks for each scheme on Miami: CP balances edges
// but skews vertices; the HP schemes balance vertices with near-balanced
// edges.
func runFig16_17(cfg Config) error {
	g, err := dataset(cfg, "miami")
	if err != nil {
		return err
	}
	p := cfg.MaxRanks
	fmt.Fprintf(cfg.Out, "miami stand-in n=%d m=%d, p=%d\n", g.N(), g.M(), p)
	tw := newTable(cfg.Out)
	fmt.Fprintln(tw, "scheme\tquantity\tmin\tmedian\tmax\tmax/mean")
	for _, scheme := range core.Schemes() {
		pt, err := core.NewPartitioner(g, scheme, p, cfg.Seed)
		if err != nil {
			return err
		}
		verts := make([]int64, p)
		edges := make([]int64, p)
		for u := 0; u < g.N(); u++ {
			owner := pt.Owner(graph.Vertex(u))
			verts[owner]++
			edges[owner] += int64(g.ReducedDegree(graph.Vertex(u)))
		}
		distRow(tw, scheme, "vertices", verts)
		distRow(tw, scheme, "edges", edges)
	}
	return tw.Flush()
}

// fig18 switches the named stand-in to x = 1 under every scheme at
// p = MaxRanks and returns the graph, t and each scheme's edges per rank
// afterwards, in core.Schemes order.
func fig18(cfg Config, name string) (*graph.Graph, int64, [][]int64, error) {
	g, err := dataset(cfg, name)
	if err != nil {
		return nil, 0, nil, err
	}
	t, err := opsForX(g, 1)
	if err != nil {
		return nil, 0, nil, err
	}
	var loads [][]int64
	for _, scheme := range core.Schemes() {
		res, err := core.Parallel(g, t, core.Config{
			Ranks: cfg.MaxRanks, Scheme: scheme, Seed: cfg.Seed, StepSize: t / 100, SkipResult: true,
		})
		if err != nil {
			return nil, 0, nil, err
		}
		loads = append(loads, res.RankFinalEdges)
	}
	return g, t, loads, nil
}

// runFig18 reports the final edge distribution after a full (x=1) run:
// CP's distribution skews badly on Miami while the HP schemes stay flat.
func runFig18(cfg Config) error {
	g, t, loads, err := fig18(cfg, "miami")
	if err != nil {
		return err
	}
	fmt.Fprintf(cfg.Out, "miami stand-in m=%d t=%d p=%d (edges per rank after switching)\n", g.M(), t, cfg.MaxRanks)
	tw := newTable(cfg.Out)
	fmt.Fprintln(tw, "scheme\tquantity\tmin\tmedian\tmax\tmax/mean")
	for i, scheme := range core.Schemes() {
		distRow(tw, scheme, "final edges", loads[i])
	}
	return tw.Flush()
}

// runFig19_20 reports the workload (operations per rank) distribution on
// Miami (Fig. 19: HP balanced, CP skewed) and PA (Fig. 20: CP balanced,
// HP slightly skewed).
func runFig19_20(cfg Config) error {
	tw := newTable(cfg.Out)
	fmt.Fprintln(tw, "dataset\tscheme\tmin ops\tmedian ops\tmax ops\tmax/mean")
	for _, name := range []string{"miami", "pa"} {
		g, err := dataset(cfg, name)
		if err != nil {
			return err
		}
		t, err := opsForX(g, 1)
		if err != nil {
			return err
		}
		for _, scheme := range core.Schemes() {
			res, err := core.Parallel(g, t, core.Config{
				Ranks: cfg.MaxRanks, Scheme: scheme, Seed: cfg.Seed, StepSize: t / 100, SkipResult: true,
			})
			if err != nil {
				return err
			}
			min, med, max, imb := deciles(res.RankOps)
			fmt.Fprintf(tw, "%s\t%s\t%d\t%d\t%d\t%.2f\n", name, scheme, min, med, max, imb)
		}
		if err := tw.Flush(); err != nil {
			return err
		}
	}
	return nil
}
