// Adversarial partitioning (the paper's §5.2, Figs. 21–22): an adversary
// who knows the division hash HP-D relabels a preferential-attachment
// graph so all the highest-degree vertices land on one rank, wrecking the
// workload balance. Universal hashing (HP-U) draws its hash at random, so
// the same relabeled graph stays balanced.
package main

import (
	"fmt"
	"log"

	"edgeswitch"
	"edgeswitch/internal/gen"
	"edgeswitch/internal/rng"
)

func main() {
	const p = 8
	const hot = 3 // the rank the adversary targets

	g, err := edgeswitch.Generate("pa", 0.2, 5)
	if err != nil {
		log.Fatal(err)
	}
	adv, err := gen.AdversarialRelabel(rng.New(6), g, p, hot)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("PA graph n=%d m=%d, relabeled so the %d highest-degree\n", adv.N(), adv.M(), adv.N()/p)
	fmt.Printf("vertices all hash to rank %d under HP-D (v mod %d)\n\n", hot, p)

	t, err := edgeswitch.TargetOps(adv.M(), 1)
	if err != nil {
		log.Fatal(err)
	}
	for _, scheme := range []edgeswitch.Scheme{edgeswitch.HPD, edgeswitch.HPU, edgeswitch.CP} {
		rep, err := edgeswitch.Run(adv, edgeswitch.Options{
			Config: edgeswitch.Config{Ranks: p, Scheme: scheme, StepSize: t / 100, Seed: 11},
			Ops:    t,
		})
		if err != nil {
			log.Fatal(err)
		}
		var total, hotOps, maxOps int64
		for _, ops := range rep.Parallel.RankOps {
			total += ops
			if ops > maxOps {
				maxOps = ops
			}
		}
		hotOps = rep.Parallel.RankOps[hot]
		fmt.Printf("%-5s time %-12v hot-rank share %5.1f%%  max/mean %.2f\n",
			scheme, rep.Elapsed,
			100*float64(hotOps)/float64(total),
			float64(maxOps)/(float64(total)/float64(p)))
	}
	fmt.Println()
	fmt.Println("HP-D concentrates the work on the attacked rank; HP-U's random")
	fmt.Println("hash and CP's edge-balanced ranges are immune to the relabeling.")
}
