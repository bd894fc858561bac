// Quickstart: generate a small-world graph, fully randomize it with
// parallel edge switching (visit rate 1), and verify that the degree
// sequence survived while the structure was destroyed.
package main

import (
	"fmt"
	"log"

	"edgeswitch"
)

func main() {
	// A Watts–Strogatz small-world graph: high clustering, short paths.
	g, err := edgeswitch.Generate("smallworld", 0.1, 42)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("input: %d vertices, %d edges\n", g.N(), g.M())
	degreesBefore := g.Degrees()

	// Randomize: visit every edge (x = 1) using 4 parallel ranks with
	// universal-hash partitioning, the paper's recommended scheme.
	rep, err := edgeswitch.Run(g, edgeswitch.Options{
		Config:    edgeswitch.Config{Ranks: 4, Scheme: edgeswitch.HPU, Seed: 42},
		VisitRate: 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("performed %d edge switches in %v (%d restarts)\n",
		rep.Ops, rep.Elapsed, rep.Restarts)
	fmt.Printf("observed visit rate: %.6f\n", rep.VisitRate)

	// Every vertex keeps its degree...
	after := rep.Result.Degrees()
	for v, d := range degreesBefore {
		if after[v] != d {
			log.Fatalf("degree of vertex %d changed: %d -> %d", v, d, after[v])
		}
	}
	fmt.Println("degree sequence preserved for all vertices")

	// ...but the edge set is fresh.
	common := 0
	for _, e := range g.Edges() {
		if rep.Result.HasEdge(e) {
			common++
		}
	}
	fmt.Printf("edges surviving randomization: %d of %d (%.2f%%)\n",
		common, g.M(), 100*float64(common)/float64(g.M()))
}
