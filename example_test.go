package edgeswitch_test

import (
	"fmt"
	"log"

	"edgeswitch"
)

// Randomize a generated graph while preserving every vertex degree.
func Example() {
	g, err := edgeswitch.Generate("erdosrenyi", 0.02, 7)
	if err != nil {
		log.Fatal(err)
	}
	degreesBefore := g.Degrees()

	rep, err := edgeswitch.Run(g, edgeswitch.Options{
		Config:    edgeswitch.Config{Ranks: 2, Scheme: edgeswitch.HPU, Seed: 7}, // parallel, 2 ranks
		VisitRate: 1,                                                            // modify every edge
	})
	if err != nil {
		log.Fatal(err)
	}

	same := true
	for v, d := range rep.Result.Degrees() {
		if degreesBefore[v] != d {
			same = false
		}
	}
	fmt.Printf("visit rate >= 0.99: %v\n", rep.VisitRate >= 0.99)
	fmt.Printf("degrees preserved: %v\n", same)
	// Output:
	// visit rate >= 0.99: true
	// degrees preserved: true
}

// Generate a random graph realizing an explicit degree sequence — the
// Havel–Hakimi + edge-switching pipeline of the paper's introduction.
func ExampleRandomGraph() {
	degrees := []int{3, 3, 2, 2, 2, 2} // graphical: sum is even
	g, err := edgeswitch.RandomGraph(degrees, 42, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("vertices:", g.N())
	fmt.Println("edges:", g.M())
	fmt.Println("degrees match:", fmt.Sprint(g.Degrees()) == fmt.Sprint(degrees))
	// Output:
	// vertices: 6
	// edges: 7
	// degrees match: true
}

// Convert a target visit rate into the operation count of §3.1.
func ExampleTargetOps() {
	// To modify half the edges of a 1M-edge graph:
	ops, err := edgeswitch.TargetOps(1_000_000, 0.5)
	if err != nil {
		log.Fatal(err)
	}
	// E[T]/2 ≈ -m ln(1-x) / 2 ≈ 346574.
	fmt.Println(ops > 340_000 && ops < 350_000)
	// Output:
	// true
}

// Compare a parallel result against a sequential one with the paper's
// error-rate metric.
func ExampleErrorRate() {
	g, err := edgeswitch.Generate("smallworld", 0.02, 3)
	if err != nil {
		log.Fatal(err)
	}
	seq, err := edgeswitch.Run(g, edgeswitch.Options{Config: edgeswitch.Config{Seed: 1}, Ops: 2000})
	if err != nil {
		log.Fatal(err)
	}
	par, err := edgeswitch.Run(g, edgeswitch.Options{Config: edgeswitch.Config{Ranks: 4, Seed: 2}, Ops: 2000})
	if err != nil {
		log.Fatal(err)
	}
	er, err := edgeswitch.ErrorRate(seq.Result, par.Result, 20)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("error rate is a small percentage:", er > 0 && er < 25)
	// Output:
	// error rate is a small percentage: true
}
