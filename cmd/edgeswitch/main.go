// Command edgeswitch switches edges in a graph: load an edge-list file
// (or generate a named dataset), perform t operations or hit a target
// visit rate, sequentially or in parallel, and optionally write the
// result.
//
// Examples:
//
//	edgeswitch -dataset miami -scale 0.1 -x 1 -p 8 -scheme HP-U
//	edgeswitch -in graph.txt -t 1000000 -p 16 -scheme CP -steps 100 -out shuffled.txt
//	edgeswitch -in graph.txt -x 0.5            # sequential, half the edges
//	edgeswitch -gen pa -n 1000000 -d 10 -p 8   # distributed bootstrap: no rank holds the whole graph
//	edgeswitch -gen pa -n 50000 -p 2 -scheme HP-D -x 0.9 -cpuprofile cpu.prof   # then: go tool pprof -top cpu.prof
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"edgeswitch"
	"edgeswitch/internal/metrics"
)

func main() {
	var (
		inPath  = flag.String("in", "", "input edge-list file (text, or binary with .bin extension)")
		dataset = flag.String("dataset", "", "generate a dataset stand-in instead of reading a file (one of: miami newyork losangeles flickr livejournal smallworld erdosrenyi pa)")
		scale   = flag.Float64("scale", 1, "dataset scale multiplier (with -dataset)")
		genMod  = flag.String("gen", "", "counter-based generator model (pa, contact): with -p>1 every rank generates only its own partition — no rank-0 materialization, no scatter")
		genN    = flag.Int("n", 100000, "vertex count (with -gen)")
		genD    = flag.Int("d", 10, "degree parameter (with -gen: pa edges per vertex, contact average degree)")
		outPath = flag.String("out", "", "write the switched graph to this file")
		tOps    = flag.Int64("t", 0, "number of edge switch operations (0: derive from -x)")
		x       = flag.Float64("x", 1, "target visit rate in (0,1] used when -t is 0")
		ranks   = flag.Int("p", 1, "number of parallel ranks (1: sequential algorithm)")
		scheme  = flag.String("scheme", "CP", "partitioning scheme: CP, HP-D, HP-M, HP-U")
		algo    = flag.String("algo", "edge-switch", "randomization algorithm: edge-switch, curveball (curveball: -t counts global trade rounds and -steps is ignored)")
		steps   = flag.Int64("steps", 1, "number of steps (parallel; step size = t/steps)")
		seed    = flag.Uint64("seed", 1, "random seed")
		useTCP  = flag.Bool("tcp", false, "route parallel messages over loopback TCP")
		quiet   = flag.Bool("q", false, "suppress the per-rank table")
		verbose = flag.Bool("v", false, "print extra run counters (spill/compaction stats with -spill-dir)")
		mode    = flag.String("mode", "plain", "constraint mode: plain, connected, bipartite, jdd (sequential only)")
		left    = flag.Int("left", 0, "bipartition size (bipartite mode: vertices 0..left-1 are one side)")
		spill   = flag.String("spill-dir", "", "spill each parallel rank's partition to an mmap'd segment under this directory (tiered out-of-core store; bounded memory)")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file (read it with go tool pprof)")
		memProf = flag.String("memprofile", "", "write an allocation profile to this file when the run ends")
	)
	flag.Parse()

	err := profiled(*cpuProf, *memProf, func() error {
		return run(*inPath, *dataset, *scale, *genMod, *genN, *genD, *outPath, *tOps, *x, *ranks, *scheme, *algo, *steps, *seed, *useTCP, *quiet, *verbose, *mode, *left, *spill)
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "edgeswitch:", err)
		os.Exit(1)
	}
}

// profiled runs fn under the profiles asked for (an empty path skips
// one): the CPU profile covers all of fn, the allocation profile — what
// `go test -memprofile` writes, every allocation since start plus what is
// live after a collection — is taken once fn has returned.
func profiled(cpuPath, memPath string, fn func() error) (err error) {
	if cpuPath != "" {
		cpu, cerr := os.Create(cpuPath)
		if cerr != nil {
			return cerr
		}
		defer func() {
			if cerr := cpu.Close(); err == nil {
				err = cerr
			}
		}()
		if cerr := pprof.StartCPUProfile(cpu); cerr != nil {
			return cerr
		}
		defer pprof.StopCPUProfile() // runs before the Close above
	}
	if err := fn(); err != nil || memPath == "" {
		return err
	}
	mem, err := os.Create(memPath)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.Lookup("allocs").WriteTo(mem, 0); err != nil {
		mem.Close()
		return err
	}
	return mem.Close()
}

// genSpec maps the -gen/-n/-d flags to a counter-based generator spec.
func genSpec(model string, n, d int, seed uint64) (*edgeswitch.GenSpec, error) {
	switch model {
	case "pa":
		return &edgeswitch.GenSpec{Model: edgeswitch.GenPA, Seed: seed, N: n, D: d}, nil
	case "contact":
		return &edgeswitch.GenSpec{Model: edgeswitch.GenContact, Seed: seed, N: n,
			Contact: edgeswitch.ContactConfig{AvgDegree: float64(d), CommunitySize: 40, WithinFrac: 0.8}}, nil
	default:
		return nil, fmt.Errorf("-gen supports models pa and contact, not %q", model)
	}
}

func run(inPath, dataset string, scale float64, genMod string, genN, genD int, outPath string, tOps int64, x float64,
	ranks int, scheme, algo string, steps int64, seed uint64, useTCP, quiet, verbose bool, mode string, left int,
	spillDir string) error {

	if algo != "" && algo != string(edgeswitch.EdgeSwitch) && mode != "" && mode != "plain" {
		return fmt.Errorf("mode %q supports only the edge-switch algorithm", mode)
	}

	var g *edgeswitch.Graph
	var spec *edgeswitch.GenSpec
	var err error
	switch {
	case inPath != "" && dataset != "" || genMod != "" && (inPath != "" || dataset != ""):
		return fmt.Errorf("use exactly one of -in, -dataset, -gen")
	case genMod != "":
		if spec, err = genSpec(genMod, genN, genD, seed); err != nil {
			return err
		}
		if mode != "" && mode != "plain" {
			return fmt.Errorf("-gen supports only the plain mode")
		}
		if ranks <= 1 {
			// Sequential runs materialize the (identical) graph anyway;
			// go through the same path as everyone else so the per-mode
			// switch below applies.
			if g, err = edgeswitch.GenerateSpec(*spec); err != nil {
				return err
			}
			spec = nil
		}
	case inPath != "":
		g, err = edgeswitch.LoadGraphFile(inPath, seed)
	case dataset != "":
		g, err = edgeswitch.Generate(dataset, scale, seed)
	default:
		return fmt.Errorf("need -in FILE, -dataset NAME (datasets: %v) or -gen MODEL", edgeswitch.Datasets())
	}
	if err != nil {
		return err
	}

	// With a distributed-generation spec there is no materialized graph
	// here: derive t from the spec's deterministic edge bound, exactly as
	// every rank will.
	mEdges := int64(0)
	if g != nil {
		mEdges = g.M()
	} else {
		mEdges = spec.MaxEdges()
	}
	t := tOps
	if t == 0 {
		t, err = edgeswitch.TargetOpsFor(edgeswitch.Algorithm(algo), mEdges, x)
		if err != nil {
			return err
		}
	}
	stepSize := int64(0)
	if steps > 1 {
		stepSize = (t + steps - 1) / steps
	}
	unit := "ops"
	if edgeswitch.Algorithm(algo) == edgeswitch.Curveball {
		unit = "rounds"
	}
	if g != nil {
		fmt.Printf("graph: n=%d m=%d | t=%d %s | p=%d scheme=%s mode=%s\n", g.N(), g.M(), t, unit, ranks, scheme, mode)
	} else {
		fmt.Printf("graph: gen=%s n=%d m<=%d (distributed, no rank materializes it) | t=%d %s | p=%d scheme=%s\n",
			genMod, genN, mEdges, t, unit, ranks, scheme)
	}

	var rep *edgeswitch.Report
	switch mode {
	case "plain", "":
		// Pass the raw -t through so a curveball run derived from -x keeps
		// its early-stop target (the facade re-derives t per algorithm).
		rep, err = edgeswitch.Run(g, edgeswitch.Options{
			Ops:       tOps,
			VisitRate: x,
			Algorithm: edgeswitch.Algorithm(algo),
			Ranks:     ranks,
			Scheme:    edgeswitch.Scheme(scheme),
			StepSize:  stepSize,
			Seed:      seed,
			UseTCP:    useTCP,
			Gen:       spec,
			SpillDir:  spillDir,
		})
	case "connected":
		rep, err = edgeswitch.RunConnected(g, t, seed)
	case "bipartite":
		rep, err = edgeswitch.RunBipartite(g, left, t, seed)
	case "jdd":
		rep, err = edgeswitch.RunJointDegree(g, t, seed)
	default:
		return fmt.Errorf("unknown mode %q (plain, connected, bipartite, jdd)", mode)
	}
	if err != nil {
		return err
	}

	fmt.Printf("completed %d ops (%d restarts, %d forfeited) in %v\n",
		rep.Ops, rep.Restarts, rep.Forfeited, rep.Elapsed)
	fmt.Printf("observed visit rate: %.6f\n", rep.VisitRate)
	if verbose && rep.Parallel != nil && spillDir != "" {
		p := rep.Parallel
		fmt.Printf("spill: base %d B | overlay high-water %d entries | %d compactions (%v)\n",
			p.SpillBaseBytes, p.SpillOverlayHWM, p.SpillCompactions, time.Duration(p.SpillCompactNs))
	}
	if rep.Parallel != nil && !quiet {
		fmt.Println("rank\tvertices\tedges0\tedgesN\tops\trestarts")
		for i := range rep.Parallel.RankOps {
			fmt.Printf("%d\t%d\t%d\t%d\t%d\t%d\n", i,
				rep.Parallel.RankVertices[i],
				rep.Parallel.RankInitialEdges[i],
				rep.Parallel.RankFinalEdges[i],
				rep.Parallel.RankOps[i],
				rep.Parallel.RankRestarts[i])
		}
		ab := metrics.AbortRates(rep.Parallel.RankRestarts, rep.Parallel.RankOps)
		lo, hi := ab[0], ab[0]
		for _, r := range ab {
			lo, hi = math.Min(lo, r), math.Max(hi, r)
		}
		fmt.Printf("abort rate per rank: min %.3f max %.3f\n", lo, hi)
	}
	if outPath != "" {
		if err := edgeswitch.SaveGraphFile(outPath, rep.Result); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", outPath)
	}
	return nil
}
