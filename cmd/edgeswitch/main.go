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
	"io"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"edgeswitch"
	"edgeswitch/internal/core"
	"edgeswitch/internal/gen/pergen"
	"edgeswitch/internal/metrics"
)

// options carries every edgeswitch flag.
type options struct {
	inPath, dataset  string
	scale            float64
	genMod           string
	genN, genD       int
	outPath          string
	tOps             int64
	x                float64
	ranks            int
	scheme, algo     string
	steps            int64
	seed             uint64
	useTCP           bool
	quiet, verbose   bool
	spillDir         string
	cpuProf, memProf string
}

func main() {
	var o options
	flag.StringVar(&o.inPath, "in", "", "input edge-list file (text, or binary with .bin extension)")
	flag.StringVar(&o.dataset, "dataset", "", "generate a dataset stand-in instead of reading a file (one of: miami newyork losangeles flickr livejournal smallworld erdosrenyi pa)")
	flag.Float64Var(&o.scale, "scale", 1, "dataset scale multiplier (with -dataset)")
	flag.StringVar(&o.genMod, "gen", "", "counter-based generator model (pa, contact): with -p>1 every rank generates only its own partition — no rank-0 materialization, no scatter")
	flag.IntVar(&o.genN, "n", 100000, "vertex count (with -gen)")
	flag.IntVar(&o.genD, "d", 10, "degree parameter (with -gen: pa edges per vertex, contact average degree)")
	flag.StringVar(&o.outPath, "out", "", "write the switched graph to this file")
	flag.Int64Var(&o.tOps, "t", 0, "number of edge switch operations (0: derive from -x)")
	flag.Float64Var(&o.x, "x", 1, "target visit rate in (0,1] used when -t is 0")
	flag.IntVar(&o.ranks, "p", 1, "number of parallel ranks (1: sequential algorithm)")
	flag.StringVar(&o.scheme, "scheme", "CP", "partitioning scheme: CP, HP-D, HP-M, HP-U")
	flag.StringVar(&o.algo, "algo", "edge-switch", "randomization algorithm: edge-switch, curveball (curveball: -t counts global trade rounds and -steps is ignored)")
	flag.Int64Var(&o.steps, "steps", 1, "number of steps (parallel; step size = t/steps)")
	flag.Uint64Var(&o.seed, "seed", 1, "random seed")
	flag.BoolVar(&o.useTCP, "tcp", false, "route parallel messages over loopback TCP")
	flag.BoolVar(&o.quiet, "q", false, "suppress the per-rank table")
	flag.BoolVar(&o.verbose, "v", false, "print extra run counters (spill/compaction stats with -spill-dir)")
	flag.StringVar(&o.spillDir, "spill-dir", "", "spill each parallel rank's partition to an mmap'd segment under this directory (tiered out-of-core store; bounded memory)")
	flag.StringVar(&o.cpuProf, "cpuprofile", "", "write a CPU profile of the whole run to this file (read it with go tool pprof)")
	flag.StringVar(&o.memProf, "memprofile", "", "write an allocation profile to this file when the run ends")
	flag.Parse()

	if err := profiled(o.cpuProf, o.memProf, func() error { return run(o, os.Stdout) }); err != nil {
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

// run loads or generates the graph, switches it and writes the report
// to w.
func run(o options, w io.Writer) error {
	var g *edgeswitch.Graph
	var spec *edgeswitch.GenSpec
	var err error
	switch {
	case o.inPath != "" && o.dataset != "" || o.genMod != "" && (o.inPath != "" || o.dataset != ""):
		return fmt.Errorf("use exactly one of -in, -dataset, -gen")
	case o.genMod != "":
		var sp edgeswitch.GenSpec
		if sp, err = pergen.SpecFor(o.genMod, o.genN, o.genD, o.seed); err != nil {
			return err
		}
		if o.ranks > 1 {
			spec = &sp
		} else {
			// Sequential runs materialize the (identical) graph anyway; do
			// it here so the budget derives from its exact edge count, as
			// the facade's does.
			g, err = edgeswitch.GenerateSpec(sp)
		}
	case o.inPath != "":
		g, err = edgeswitch.LoadGraphFile(o.inPath, o.seed)
	case o.dataset != "":
		g, err = edgeswitch.Generate(o.dataset, o.scale, o.seed)
	default:
		return fmt.Errorf("need -in FILE, -dataset NAME (datasets: %v) or -gen MODEL", edgeswitch.Datasets())
	}
	if err != nil {
		return err
	}

	// With a distributed-generation spec there is no materialized graph
	// here: the budget derives from the spec's deterministic edge bound,
	// exactly as every rank's does.
	var mEdges int64
	if g != nil {
		mEdges = g.M()
		fmt.Fprintf(w, "graph: n=%d m=%d | p=%d scheme=%s\n", g.N(), mEdges, o.ranks, o.scheme)
	} else {
		mEdges = spec.MaxEdges()
		fmt.Fprintf(w, "graph: gen=%s n=%d m<=%d (distributed, no rank materializes it) | p=%d scheme=%s\n",
			o.genMod, o.genN, mEdges, o.ranks, o.scheme)
	}
	t, targetX, err := core.Budget(core.Algorithm(o.algo), mEdges, o.tOps, o.x)
	if err != nil {
		return err
	}
	stepSize := int64(0)
	if o.steps > 1 {
		stepSize = (t + o.steps - 1) / o.steps
	}
	fmt.Fprintf(w, "budget: algo=%s t=%d step-size=%d stop-at=%g\n", o.algo, t, stepSize, targetX)

	// Pass the raw -t/-x through: the facade derives the same budget with
	// the same core.Budget, and a curveball run derived from -x keeps its
	// early-stop target only that way.
	rep, err := edgeswitch.Run(g, edgeswitch.Options{
		Ops:       o.tOps,
		VisitRate: o.x,
		Algorithm: edgeswitch.Algorithm(o.algo),
		Ranks:     o.ranks,
		Scheme:    edgeswitch.Scheme(o.scheme),
		StepSize:  stepSize,
		Seed:      o.seed,
		UseTCP:    o.useTCP,
		Gen:       spec,
		SpillDir:  o.spillDir,
	})
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "completed %d ops (%d restarts, %d forfeited) in %v\n",
		rep.Ops, rep.Restarts, rep.Forfeited, rep.Elapsed)
	fmt.Fprintf(w, "observed visit rate: %.6f\n", rep.VisitRate)
	if o.verbose && rep.Parallel != nil && o.spillDir != "" {
		p := rep.Parallel
		fmt.Fprintf(w, "spill: base %d B | overlay high-water %d entries | %d compactions (%v)\n",
			p.SpillBaseBytes, p.SpillOverlayHWM, p.SpillCompactions, time.Duration(p.SpillCompactNs))
	}
	if rep.Parallel != nil && !o.quiet {
		fmt.Fprintln(w, "rank\tvertices\tedges0\tedgesN\tops\trestarts")
		for i := range rep.Parallel.RankOps {
			fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%d\t%d\n", i,
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
		fmt.Fprintf(w, "abort rate per rank: min %.3f max %.3f\n", lo, hi)
	}
	if o.outPath != "" {
		if err := edgeswitch.SaveGraphFile(o.outPath, rep.Result); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s\n", o.outPath)
	}
	return nil
}
