// Command edgeswitch switches edges in a graph: load an edge-list file
// (or generate a dataset stand-in or a counter-based model), perform t
// operations or hit a target visit rate, and optionally write the result.
// It is the paper's one program at every rank count: -p N runs N
// goroutine ranks in this process (-p 1: the sequential algorithm); with
// -coordinator set this process is rank -rank of a -p-process TCP world
// whose ranks share nothing but the wire, and -spawn has rank 0 start the
// others locally. With -checkpoint-dir such a world checkpoints every
// step boundary and rolls back to the last committed checkpoint when a
// peer is lost (DESIGN.md "Checkpoints & recovery"); rank 0 respawns its
// own lost children, and an external replacement joins with the lost
// rank's -rank and -restore.
//
//	edgeswitch -dataset miami -scale 0.1 -x 1 -p 8 -scheme HP-U
//	edgeswitch -in graph.txt -t 1000000 -p 16 -steps 100 -out shuffled.txt
//	edgeswitch -gen pa -n 1000000 -d 10 -p 8   # no rank holds the whole graph
//	edgeswitch -gen pa -n 50000 -p 2 -x 0.9 -cpuprofile cpu.prof   # then: go tool pprof -top cpu.prof
//	edgeswitch -in g.txt -p 4 -coordinator 127.0.0.1:9870 -spawn -checkpoint-dir ck/
//	edgeswitch -in g.txt -p 4 -rank 2 -coordinator 127.0.0.1:9870 -checkpoint-dir ck/ -restore
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"time"

	"edgeswitch"
	"edgeswitch/internal/core"
	"edgeswitch/internal/gen/pergen"
	"edgeswitch/internal/metrics"
	"edgeswitch/internal/mpi"
)

// options carries every flag: one value describes the whole process, and
// childArgs rebuilds spawned ranks' command lines from it.
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
	steps, ckEvery   int64
	seed             uint64
	useTCP, quiet    bool
	spillDir, ckDir  string
	cpuProf, memProf string
	// The multi-process world (-coordinator set).
	coord            string
	rank             int
	spawn, restore   bool
	timeout, writeTO time.Duration
	maxRollbacks     int
}

// bind registers every flag on a new flag set writing into o.
func bind(o *options) *flag.FlagSet {
	fs := flag.NewFlagSet("edgeswitch", flag.ContinueOnError)
	fs.StringVar(&o.inPath, "in", "", "input edge-list file (text, or binary with .bin extension)")
	fs.StringVar(&o.dataset, "dataset", "", "generate a dataset stand-in instead of reading a file (one of: miami newyork losangeles flickr livejournal smallworld erdosrenyi pa)")
	fs.Float64Var(&o.scale, "scale", 1, "dataset scale multiplier (with -dataset)")
	fs.StringVar(&o.genMod, "gen", "", "counter-based generator model (pa, contact): with -p>1 every rank generates only its own partition — no rank-0 materialization, no scatter")
	fs.IntVar(&o.genN, "n", 100000, "vertex count (with -gen)")
	fs.IntVar(&o.genD, "d", 10, "degree parameter (with -gen: pa edges per vertex, contact average degree)")
	fs.StringVar(&o.outPath, "out", "", "write the switched graph to this file (rank 0)")
	fs.Int64Var(&o.tOps, "t", 0, "number of edge switch operations (0: derive from -x)")
	fs.Float64Var(&o.x, "x", 1, "target visit rate in (0,1] used when -t is 0")
	fs.IntVar(&o.ranks, "p", 1, "number of ranks: goroutines in this process (1: sequential algorithm), or processes with -coordinator")
	fs.StringVar(&o.scheme, "scheme", "CP", "partitioning scheme: CP, HP-D, HP-M, HP-U")
	fs.StringVar(&o.algo, "algo", "edge-switch", "randomization algorithm: edge-switch, curveball (curveball: -t counts global trade rounds and -steps is ignored)")
	fs.Int64Var(&o.steps, "steps", 1, "number of steps (parallel; step size = t/steps)")
	fs.Uint64Var(&o.seed, "seed", 1, "random seed (with -gen it defines the graph)")
	fs.BoolVar(&o.useTCP, "tcp", false, "route this process's parallel messages over loopback TCP")
	fs.BoolVar(&o.quiet, "q", false, "suppress the per-rank table")
	fs.StringVar(&o.spillDir, "spill-dir", "", "spill each parallel rank's partition to an mmap'd segment under this directory (tiered out-of-core store; bounded memory; ranks may share it)")
	fs.StringVar(&o.ckDir, "checkpoint-dir", "", "directory for coordinated step-boundary checkpoints of a parallel run (empty: checkpointing off)")
	fs.Int64Var(&o.ckEvery, "checkpoint-every", 1, "checkpoint every k-th step boundary (with -checkpoint-dir)")
	fs.StringVar(&o.cpuProf, "cpuprofile", "", "write a CPU profile of the whole run to this file (<path>.rank<N> with -coordinator)")
	fs.StringVar(&o.memProf, "memprofile", "", "write an allocation profile to this file when the run ends (<path>.rank<N> with -coordinator)")
	fs.StringVar(&o.coord, "coordinator", "", "run as rank -rank of a -p-process TCP world whose rank 0 listens on this address")
	fs.IntVar(&o.rank, "rank", 0, "this process's rank (with -coordinator)")
	fs.BoolVar(&o.spawn, "spawn", false, "rank 0 spawns ranks 1..p-1 as local child processes (with -coordinator)")
	fs.BoolVar(&o.restore, "restore", false, "resume from the newest restorable checkpoint in -checkpoint-dir before switching (with -coordinator)")
	fs.DurationVar(&o.timeout, "timeout", 30*time.Second, "coordinator dial timeout (with -coordinator)")
	fs.DurationVar(&o.writeTO, "write-timeout", 30*time.Second, "transport write deadline: a dead peer surfaces within this (with -coordinator)")
	fs.IntVar(&o.maxRollbacks, "max-rollbacks", 3, "lost-peer rollback recoveries to attempt before failing (with -coordinator and -checkpoint-dir)")
	return fs
}

// coordinatorOnly names the flags that mean nothing without -coordinator.
var coordinatorOnly = []string{"rank", "spawn", "restore", "timeout", "write-timeout", "max-rollbacks"}

// parse reads a command line, refusing flags the run would silently
// ignore; edgeswitch.Run refuses those a sequential run cannot honour.
func parse(args []string) (options, error) {
	var o options
	fs := bind(&o)
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	switch {
	case fs.NArg() > 0:
		return o, fmt.Errorf("unexpected arguments %q", fs.Args())
	case o.ranks < 1:
		return o, fmt.Errorf("-p %d: need at least one rank", o.ranks)
	case o.steps < 1:
		return o, fmt.Errorf("-steps %d: need at least one step", o.steps)
	case o.restore && o.ckDir == "":
		return o, fmt.Errorf("-restore needs -checkpoint-dir")
	case set["checkpoint-every"] && o.ckDir == "":
		return o, fmt.Errorf("-checkpoint-every needs -checkpoint-dir")
	case o.ckEvery < 1:
		return o, fmt.Errorf("-checkpoint-every %d: need at least 1", o.ckEvery)
	case o.coord != "" && o.useTCP:
		return o, fmt.Errorf("-tcp with -coordinator: a coordinator world is always TCP")
	case o.coord != "" && anyPort(o.coord) && o.ranks > 1 && !o.spawn:
		return o, fmt.Errorf("-coordinator %s: the other ranks cannot find port 0; name a port, or -spawn them", o.coord)
	}
	if o.coord == "" {
		for _, name := range coordinatorOnly {
			if set[name] {
				return o, fmt.Errorf("-%s needs -coordinator", name)
			}
		}
	}
	return o, nil
}

// anyPort reports whether addr asks the listener to pick a port.
func anyPort(addr string) bool {
	_, port, err := net.SplitHostPort(addr)
	return err == nil && port == "0"
}

func main() {
	o, err := parse(os.Args[1:])
	switch {
	case errors.Is(err, flag.ErrHelp):
		return
	case err != nil:
		fmt.Fprintln(os.Stderr, "edgeswitch:", err)
		os.Exit(2)
	}
	if err := profiled(o, func() error { return run(o, os.Stdout) }); err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", o.name(), err)
		os.Exit(1)
	}
}

// name is how this process signs its messages on stderr.
func (o options) name() string {
	if o.coord == "" {
		return "edgeswitch"
	}
	return fmt.Sprintf("edgeswitch[%d]", o.rank)
}

// profiled runs fn under the profiles asked for (an empty path skips
// one); with -coordinator every process writes its own <path>.rank<N>.
// The CPU profile covers all of fn, rollbacks included; the allocation
// profile (what `go test -memprofile` writes) is taken once fn returns.
func profiled(o options, fn func() error) (err error) {
	suffix := ""
	if o.coord != "" {
		suffix = ".rank" + strconv.Itoa(o.rank)
	}
	if o.cpuProf != "" {
		cpu, cerr := os.Create(o.cpuProf + suffix)
		if cerr != nil {
			return cerr
		}
		if cerr := pprof.StartCPUProfile(cpu); cerr != nil {
			return errors.Join(cerr, cpu.Close())
		}
		defer func() {
			pprof.StopCPUProfile()
			err = errors.Join(err, cpu.Close())
		}()
	}
	if err := fn(); err != nil || o.memProf == "" {
		return err
	}
	mem, err := os.Create(o.memProf + suffix)
	if err != nil {
		return err
	}
	runtime.GC()
	return errors.Join(pprof.Lookup("allocs").WriteTo(mem, 0), mem.Close())
}

// run loads or generates the graph, switches it — in this process's
// goroutine ranks, or as one rank of the -coordinator world — and has
// rank 0 report to w.
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
		if o.ranks > 1 || o.coord != "" {
			spec = &sp
		} else {
			// A sequential run materializes the (identical) graph anyway; do
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

	// With a generator spec the budget derives from the spec's
	// deterministic edge bound, as every rank's does, with no collective.
	var mEdges int64
	var desc string
	if g != nil {
		mEdges = g.M()
		desc = fmt.Sprintf("n=%d m=%d", g.N(), mEdges)
	} else {
		mEdges = spec.MaxEdges()
		desc = fmt.Sprintf("gen=%s n=%d m<=%d (distributed, no rank materializes it)", o.genMod, o.genN, mEdges)
	}
	t, targetX, err := core.Budget(core.Algorithm(o.algo), mEdges, o.tOps, o.x)
	if err != nil {
		return err
	}
	stepSize := int64(0)
	if o.steps > 1 {
		stepSize = (t + o.steps - 1) / o.steps
	}
	if o.rank == 0 {
		fmt.Fprintf(w, "graph: %s | p=%d scheme=%s\n", desc, o.ranks, o.scheme)
		fmt.Fprintf(w, "budget: algo=%s t=%d step-size=%d stop-at=%g\n", o.algo, t, stepSize, targetX)
	}

	cfg := core.Config{
		Ranks:           o.ranks,
		Algorithm:       core.Algorithm(o.algo),
		Scheme:          core.Scheme(o.scheme),
		StepSize:        stepSize,
		Seed:            o.seed,
		UseTCP:          o.useTCP,
		SpillDir:        o.spillDir,
		DistributedGen:  spec,
		CheckpointDir:   o.ckDir,
		CheckpointEvery: o.ckEvery,
		Restore:         o.restore,
	}
	var res *core.Result
	if o.coord == "" {
		// Pass the raw -t/-x through: the facade derives the same budget
		// with the same core.Budget, and a curveball run derived from -x
		// keeps its early-stop target only that way.
		rep, err := edgeswitch.Run(g, edgeswitch.Options{Config: cfg, Ops: o.tOps, VisitRate: o.x})
		if err != nil {
			return err
		}
		if res = rep.Parallel; res == nil {
			res = &core.Result{Graph: rep.Result, Ops: rep.Ops, Restarts: rep.Restarts,
				VisitRate: rep.VisitRate, Elapsed: rep.Elapsed}
		}
	} else {
		cfg.TargetVisitRate = targetX
		if res, err = runWorld(g, t, cfg, o); err != nil || o.rank != 0 {
			return err
		}
	}
	return report(w, o, res)
}

// report writes rank 0's account of the run to w and saves the result.
func report(w io.Writer, o options, res *core.Result) error {
	if res.RestoredStep > 0 {
		fmt.Fprintf(w, "resumed from checkpoint at step %d\n", res.RestoredStep)
	}
	fmt.Fprintf(w, "completed %d ops (%d restarts, %d forfeited) in %v\n",
		res.Ops, res.Restarts, res.Forfeited, res.Elapsed)
	fmt.Fprintf(w, "observed visit rate: %.6f\n", res.VisitRate)
	if o.spillDir != "" {
		fmt.Fprintf(w, "spill: base %d B | overlay high-water %d entries | %d compactions (%v)\n",
			res.SpillBaseBytes, res.SpillOverlayHWM, res.SpillCompactions, time.Duration(res.SpillCompactNs))
	}
	if len(res.RankOps) > 0 && !o.quiet {
		abort := metrics.AbortRates(res.RankRestarts, res.RankOps)
		fmt.Fprintln(w, "rank\tvertices\tedges0\tedgesN\tops\trestarts\tabort\tmsgs")
		for i := range res.RankOps {
			fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%d\t%d\t%.3f\t%d\n", i, res.RankVertices[i], res.RankInitialEdges[i],
				res.RankFinalEdges[i], res.RankOps[i], res.RankRestarts[i], abort[i], res.RankMessages[i])
		}
	}
	if o.outPath != "" {
		if err := edgeswitch.SaveGraphFile(o.outPath, res.Graph); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s\n", o.outPath)
	}
	return nil
}

// runWorld runs this process's rank of the -coordinator world; only rank
// 0's result is non-nil. Every process runs the rollback loop: a lost peer
// with checkpointing armed rolls the world back instead of failing it, so
// the survivors tear down, rejoin a restarted world on the same
// coordinator address and resume from the agreed checkpoint, and rank 0
// replaces its lost children.
func runWorld(g *edgeswitch.Graph, t int64, cfg core.Config, o options) (*core.Result, error) {
	if o.rank == 0 && anyPort(o.coord) {
		// Pick the port now: the children dial it, and a restarted
		// coordinator listens on it again.
		ln, err := net.Listen("tcp", o.coord)
		if err != nil {
			return nil, err
		}
		o.coord = ln.Addr().String()
		if err := ln.Close(); err != nil {
			return nil, err
		}
	}
	children := map[int]*exec.Cmd{}
	if o.spawn && o.rank == 0 {
		if err := spawnChildren(o, children); err != nil {
			_ = reapChildren(children, true)
			return nil, err
		}
	}
	for attempt := 0; ; attempt++ {
		res, lost, err := runRank(g, t, cfg, o)
		if err == nil {
			// A child may still have failed on its own (its stderr went to
			// ours): report the first such failure.
			return res, reapChildren(children, false)
		}
		if o.ckDir == "" || !errors.Is(err, mpi.ErrPeerLost) || attempt >= o.maxRollbacks {
			_ = reapChildren(children, true)
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "%s: peer lost (%v); rolling back to the last checkpoint (attempt %d of %d)\n",
			o.name(), err, attempt+1, o.maxRollbacks)
		cfg.Restore = true
		if o.spawn && o.rank == 0 {
			if err := respawnLost(o, children, lost); err != nil {
				_ = reapChildren(children, true)
				return nil, err
			}
		}
	}
}

// childArgs builds spawned rank r's command line: every flag this process
// was given but -rank, -spawn and -restore. Every rank must derive the
// same budget, so the raw -t/-x travel (a derived t would disarm a
// child's visit-rate early stop and deadlock it), as does the generator
// spec, which IS the graph. With restore set the child resumes from the
// checkpoint directory (a replacement for a lost rank, or a restart).
func childArgs(o options, r int, restore bool) []string {
	var c options
	fs := bind(&c)
	c = o
	c.rank, c.spawn, c.restore = r, false, restore
	var args []string
	fs.VisitAll(func(f *flag.Flag) {
		if v := f.Value.String(); v != f.DefValue {
			args = append(args, "-"+f.Name+"="+v)
		}
	})
	return args
}

// spawnChildren starts ranks 1..p-1 as local processes, recording them
// in children. On a start failure the ranks started so far remain
// recorded, so the caller can reap them.
func spawnChildren(o options, children map[int]*exec.Cmd) error {
	for r := 1; r < o.ranks; r++ {
		cmd, err := startChild(o, r, o.restore)
		if err != nil {
			return fmt.Errorf("spawning rank %d: %w", r, err)
		}
		children[r] = cmd
	}
	return nil
}

// respawnLost replaces the lost ranks with fresh children joining in
// restore mode. The dead process (if it was ours) is reaped first — it
// is already gone or wedged in the faulted world, and its slot must be
// free before the replacement dials in.
func respawnLost(o options, children map[int]*exec.Cmd, lost []int) error {
	for _, r := range lost {
		if r == o.rank {
			continue
		}
		if old := children[r]; old != nil {
			_ = old.Process.Kill()
			_ = old.Wait()
			delete(children, r)
		}
		cmd, err := startChild(o, r, true)
		if err != nil {
			return fmt.Errorf("respawning lost rank %d: %w", r, err)
		}
		children[r] = cmd
	}
	return nil
}

// startChild starts rank r as a local process running this executable.
func startChild(o options, r int, restore bool) (*exec.Cmd, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, childArgs(o, r, restore)...)
	cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
	return cmd, cmd.Start()
}

// reapChildren waits for every spawned rank. With kill set it terminates
// them first (the rank-0 failure path: children must not be orphaned) and
// their exit statuses are not reported — the caller already holds the
// root cause. Without kill it reports the first child failure by rank
// order.
func reapChildren(children map[int]*exec.Cmd, kill bool) error {
	if kill {
		for _, cmd := range children {
			_ = cmd.Process.Kill()
		}
	}
	ranks := make([]int, 0, len(children))
	for r := range children {
		ranks = append(ranks, r)
	}
	sort.Ints(ranks)
	var firstErr error
	for _, r := range ranks {
		if err := children[r].Wait(); err != nil && !kill && firstErr == nil {
			firstErr = fmt.Errorf("child rank %d failed: %w", r, err)
		}
	}
	return firstErr
}

// runRank joins the world once and runs this rank on it. The ranks this
// process observed as lost come back alongside any error, for the
// rollback loop's respawn decision.
func runRank(g *edgeswitch.Graph, t int64, cfg core.Config, o options) (res *core.Result, lost []int, err error) {
	pw, err := mpi.JoinDistributed(o.rank, o.ranks, o.coord, o.timeout, mpi.WithWriteTimeout(o.writeTO))
	if err != nil {
		return nil, nil, err
	}
	defer func() {
		// Close returns once the coordinator has read this rank's
		// departure, so the fault record read after it holds every loss
		// this rank reported. Teardown errors surface transport faults
		// recorded while the world was live but must not mask the run's
		// own error.
		cerr := pw.Close()
		lost = pw.LostRanks()
		if cerr != nil && err == nil {
			err = cerr
		}
	}()
	err = pw.Run(func(c *mpi.Comm) error {
		r, err := core.RunRank(c, g, t, cfg)
		res = r
		return err
	})
	return res, nil, err
}
