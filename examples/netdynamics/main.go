// Network-property dynamics under edge switching (the use case behind
// the paper's Figs. 12–13, and the sensitivity studies it cites): watch
// the clustering coefficient and average path length of a social-contact
// network decay toward their random-graph values as the visit rate
// grows. Edge switching with partial visit rates interpolates between
// the real network and its degree-preserving null model.
package main

import (
	"fmt"
	"log"

	"edgeswitch"
)

func main() {
	g, err := edgeswitch.Generate("miami", 0.1, 7)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("contact network: n=%d m=%d\n", g.N(), g.M())
	fmt.Printf("%-12s %-14s %-14s\n", "visit rate", "clustering", "avg path len")

	cur := g
	var prevOps int64
	report := func(x float64, gg *edgeswitch.Graph) {
		cc := edgeswitch.SampledClusteringCoefficient(gg, 500, uint64(99+x*7))
		sp := edgeswitch.AvgShortestPath(gg, 8, uint64(131+x*7))
		fmt.Printf("%-12.1f %-14.4f %-14.3f\n", x, cc, sp)
	}
	report(0, cur)

	for _, x := range []float64{0.2, 0.4, 0.6, 0.8, 1.0} {
		total, err := edgeswitch.TargetOps(g.M(), x)
		if err != nil {
			log.Fatal(err)
		}
		// Incremental: only the additional operations for this x.
		rep, err := edgeswitch.Run(cur, edgeswitch.Options{
			Config: edgeswitch.Config{Ranks: 4, Scheme: edgeswitch.HPU, Seed: uint64(100 * x)},
			Ops:    total - prevOps,
		})
		if err != nil {
			log.Fatal(err)
		}
		cur = rep.Result
		prevOps = total
		report(x, cur)
	}
	fmt.Println()
	fmt.Println("clustering decays toward the random-graph level while the")
	fmt.Println("degree sequence stays fixed: the signature of a degree-")
	fmt.Println("preserving null model.")
}
