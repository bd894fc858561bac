// Command graphgen generates the evaluation graphs (Table 2 stand-ins)
// or custom random graphs and writes them as edge-list files.
//
// Examples:
//
//	graphgen -dataset miami -scale 0.5 -out miami.txt
//	graphgen -model er -n 100000 -m 1000000 -out er.bin
//	graphgen -model pa -n 100000 -d 10 -out pa.txt
//	graphgen -model pa -n 100000 -d 10 -pergen -out pa.txt
//	graphgen -model ws -n 100000 -d 20 -beta 0.1 -out ws.txt
//
// With -pergen, the pa and contact models use the counter-based
// partition-local generator (internal/gen/pergen): the output is a pure
// function of (-model, -n, -d, -seed), byte-identical to what every rank
// of a distributed `edgeswitch -gen` / `esworker -gen` bootstrap derives
// for the same spec — so graphgen doubles as the reference materializer
// for distributed runs. Every generator here is seeded exclusively by
// -seed; there is no time-based or implicit fallback, and a seed that
// cannot reach the generator is an error rather than a silent reseed.
package main

import (
	"flag"
	"fmt"
	"os"

	"edgeswitch"
	"edgeswitch/internal/gen"
	"edgeswitch/internal/gen/pergen"
	"edgeswitch/internal/graph"
	"edgeswitch/internal/rng"
)

func main() {
	var (
		dataset = flag.String("dataset", "", "named dataset stand-in (miami newyork losangeles flickr livejournal smallworld erdosrenyi pa)")
		scale   = flag.Float64("scale", 1, "dataset scale multiplier")
		model   = flag.String("model", "", "custom model: er, pa, ws, hk, contact, rmat")
		n       = flag.Int("n", 100000, "vertex count (custom models)")
		m       = flag.Int64("m", 0, "edge count (er model)")
		d       = flag.Int("d", 10, "degree parameter (pa: edges per vertex; ws: lattice degree; contact: average degree)")
		beta    = flag.Float64("beta", 0.1, "rewiring probability (ws model)")
		pt      = flag.Float64("pt", 0.4, "triad-formation probability (hk model)")
		seed    = flag.Uint64("seed", 1, "random seed (sole entropy source; keys every per-purpose stream in -pergen mode)")
		usePer  = flag.Bool("pergen", false, "use the counter-based partition-local generator (models pa, contact): p-invariant, reproducible across rank counts")
		out     = flag.String("out", "", "output file (text, or binary with .bin extension); default stdout")
	)
	flag.Parse()
	if err := run(*dataset, *scale, *model, *n, *m, *d, *beta, *pt, *seed, *usePer, *out); err != nil {
		fmt.Fprintln(os.Stderr, "graphgen:", err)
		os.Exit(1)
	}
}

func run(dataset string, scale float64, model string, n int, m int64, d int,
	beta, pt float64, seed uint64, usePergen bool, out string) error {

	r := rng.New(seed)
	var g *graph.Graph
	var err error
	switch {
	case dataset != "" && model != "":
		return fmt.Errorf("use either -dataset or -model, not both")
	case usePergen:
		g, err = runPergen(model, n, d, seed)
	case dataset != "":
		g, err = gen.Dataset(r, dataset, scale)
	case model == "er":
		if m == 0 {
			m = int64(n) * 10
		}
		g, err = gen.ErdosRenyi(r, n, m)
	case model == "pa":
		g, err = gen.PrefAttachment(r, n, d)
	case model == "ws":
		g, err = gen.SmallWorld(r, n, d, beta)
	case model == "hk":
		g, err = gen.HolmeKim(r, n, d, pt)
	case model == "contact":
		g, err = gen.Contact(r, gen.ContactConfig{N: n, AvgDegree: float64(d), CommunitySize: 40, WithinFrac: 0.8})
	case model == "rmat":
		scale := 0
		for 1<<scale < n {
			scale++
		}
		if m == 0 {
			m = int64(n) * int64(d) / 2
		}
		g, err = gen.RMAT(r, scale, m, 0.57, 0.19, 0.19)
	default:
		return fmt.Errorf("need -dataset NAME or -model {er|pa|ws|hk|contact|rmat}")
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "generated n=%d m=%d\n", g.N(), g.M())
	if out == "" {
		return edgeswitch.WriteGraph(os.Stdout, g)
	}
	return edgeswitch.SaveGraphFile(out, g)
}

// runPergen materializes a counter-based spec. The seed is validated by
// construction: it keys the spec's per-purpose streams directly, so the
// same flags reproduce the same graph on any machine and at any rank
// count (the distributed bootstrap derives partitions of exactly this
// graph).
func runPergen(model string, n, d int, seed uint64) (*graph.Graph, error) {
	spec, err := pergen.SpecFor(model, n, d, seed)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "pergen spec: model=%s n=%d d=%d seed=%d (p-invariant)\n", model, n, d, seed)
	return edgeswitch.GenerateSpec(spec)
}
