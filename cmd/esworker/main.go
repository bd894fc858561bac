// Command esworker runs one rank of a fully distributed parallel
// edge-switch job: each OS process hosts one rank, rank 0 doubles as the
// TCP coordinator, and every process loads the graph file and keeps only
// its own partition. This is the multi-process counterpart of the
// in-process `edgeswitch -p N` mode — ranks share nothing but the wire.
//
// Launch a 4-rank job on one machine:
//
//	esworker -graph g.txt -size 4 -rank 0 -coordinator 127.0.0.1:9870 -x 1 &
//	esworker -graph g.txt -size 4 -rank 1 -coordinator 127.0.0.1:9870 -x 1 &
//	esworker -graph g.txt -size 4 -rank 2 -coordinator 127.0.0.1:9870 -x 1 &
//	esworker -graph g.txt -size 4 -rank 3 -coordinator 127.0.0.1:9870 -x 1 &
//
// or let rank 0 spawn its peers locally:
//
//	esworker -graph g.txt -size 4 -rank 0 -coordinator 127.0.0.1:9870 -x 1 -spawn
//
// With -gen (models pa, contact) no graph file exists at all: every rank
// derives its own partition from the shared (model, n, d, seed) spec via
// the counter-based generator — the communication-free bootstrap. The
// resulting graph is identical at every -size for the same seed.
//
//	esworker -gen pa -n 10000000 -d 10 -size 8 -rank 0 -coordinator 127.0.0.1:9870 -spawn
//
// With -checkpoint-dir the world writes a coordinated checkpoint at every
// step boundary (see DESIGN.md "Checkpoints & recovery"). A rank that
// observes a lost peer then rolls the world back to the last committed
// checkpoint instead of faulting the job: every surviving process rejoins
// a restarted world on the same coordinator address and resumes from its
// own snapshot. With -spawn, rank 0 respawns the lost ranks itself (with
// -restore appended); externally launched replacements join with the lost
// rank's id and -restore:
//
//	esworker -graph g.txt -size 4 -rank 2 -coordinator 127.0.0.1:9870 \
//	    -checkpoint-dir ck/ -restore
package main

import (
	"errors"
	"flag"
	"fmt"
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
	"edgeswitch/internal/graph"
	"edgeswitch/internal/mpi"
)

// workerOpts carries every esworker flag; one value describes the whole
// process so the spawn/rollback paths can rebuild child command lines
// from it verbatim.
type workerOpts struct {
	graphPath    string
	genMod       string
	genN, genD   int
	size, rank   int
	coord        string
	tOps         int64
	x            float64
	scheme, algo string
	steps        int64
	seed         uint64
	outPath      string
	spawn        bool
	timeout      time.Duration
	writeTO      time.Duration
	ckDir        string
	ckEvery      int64
	restore      bool
	maxRollbacks int
	spillDir     string
	cpuProf      string // rank N profiles to <cpuProf>.rank<N>, and so for memProf
	memProf      string
}

func main() {
	var o workerOpts
	flag.StringVar(&o.graphPath, "graph", "", "edge-list file every rank loads (text, or binary with .bin)")
	flag.StringVar(&o.genMod, "gen", "", "generate instead of loading: counter-based model (pa, contact); each rank builds only its own partition")
	flag.IntVar(&o.genN, "n", 100000, "vertex count (with -gen)")
	flag.IntVar(&o.genD, "d", 10, "degree parameter (with -gen: pa edges per vertex, contact average degree)")
	flag.IntVar(&o.size, "size", 1, "total number of ranks")
	flag.IntVar(&o.rank, "rank", 0, "this process's rank")
	flag.StringVar(&o.coord, "coordinator", "127.0.0.1:9870", "rank 0's listen address")
	flag.Int64Var(&o.tOps, "t", 0, "edge switch operations (0: derive from -x)")
	flag.Float64Var(&o.x, "x", 1, "target visit rate when -t is 0")
	flag.StringVar(&o.scheme, "scheme", "HP-U", "partitioning scheme: CP, HP-D, HP-M, HP-U")
	flag.StringVar(&o.algo, "algo", "edge-switch", "randomization algorithm: edge-switch, curveball (curveball: -t counts global trade rounds, -steps is ignored; must match across ranks)")
	flag.Int64Var(&o.steps, "steps", 1, "number of steps")
	flag.Uint64Var(&o.seed, "seed", 1, "random seed (must match across ranks; with -gen it defines the graph)")
	flag.StringVar(&o.outPath, "out", "", "rank 0 writes the switched graph here")
	flag.BoolVar(&o.spawn, "spawn", false, "rank 0 spawns ranks 1..size-1 as local child processes")
	flag.DurationVar(&o.timeout, "timeout", 30*time.Second, "coordinator dial timeout")
	flag.DurationVar(&o.writeTO, "write-timeout", 30*time.Second, "transport write deadline (a dead peer surfaces within this)")
	flag.StringVar(&o.ckDir, "checkpoint-dir", "", "directory for coordinated step-boundary checkpoints (empty: checkpointing off)")
	flag.Int64Var(&o.ckEvery, "checkpoint-every", 1, "checkpoint every k-th step boundary (with -checkpoint-dir)")
	flag.BoolVar(&o.restore, "restore", false, "resume from the newest restorable checkpoint in -checkpoint-dir before switching")
	flag.IntVar(&o.maxRollbacks, "max-rollbacks", 3, "lost-peer rollback recoveries to attempt before failing (with -checkpoint-dir)")
	flag.StringVar(&o.spillDir, "spill-dir", "", "spill this rank's partition to an mmap'd segment under this directory (tiered out-of-core store; safe to share across ranks — each uses its own subdirectory)")
	flag.StringVar(&o.cpuProf, "cpuprofile", "", "write a CPU profile of this process's whole run to <path>.rank<N>")
	flag.StringVar(&o.memProf, "memprofile", "", "write an allocation profile to <path>.rank<N> when this process's run ends")
	flag.Parse()
	if err := profiled(o.cpuProf, o.memProf, o.rank, func() error { return run(o) }); err != nil {
		fmt.Fprintf(os.Stderr, "esworker[%d]: %v\n", o.rank, err)
		os.Exit(1)
	}
}

// profiled runs fn under the profiles asked for (an empty path skips
// one), as edgeswitch's flags of the same names do, except that every
// process writes its own <path>.rank<N>. The CPU profile covers all of fn,
// rollbacks included; the allocation profile is taken once fn returns.
func profiled(cpuPath, memPath string, rank int, fn func() error) (err error) {
	suffix := ".rank" + strconv.Itoa(rank)
	if cpuPath != "" {
		cpu, cerr := os.Create(cpuPath + suffix)
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
	if err := fn(); err != nil || memPath == "" {
		return err
	}
	mem, err := os.Create(memPath + suffix)
	if err != nil {
		return err
	}
	runtime.GC()
	return errors.Join(pprof.Lookup("allocs").WriteTo(mem, 0), mem.Close())
}

func run(o workerOpts) error {
	if o.restore && o.ckDir == "" {
		return fmt.Errorf("-restore needs -checkpoint-dir")
	}
	var g *graph.Graph
	var spec *pergen.Spec
	var mEdges int64
	var err error
	switch {
	case o.graphPath != "" && o.genMod != "":
		return fmt.Errorf("use either -graph or -gen, not both")
	case o.genMod != "":
		sp, err := pergen.SpecFor(o.genMod, o.genN, o.genD, o.seed)
		if err != nil {
			return err
		}
		spec, mEdges = &sp, sp.MaxEdges()
	case o.graphPath != "":
		if g, err = edgeswitch.LoadGraphFile(o.graphPath, o.seed); err != nil {
			return err
		}
		mEdges = g.M()
	default:
		return fmt.Errorf("need -graph FILE or -gen MODEL")
	}
	// Every rank derives the same budget from the same flags — with -gen
	// this needs no collective because MaxEdges is deterministic in the
	// spec.
	t, targetX, err := core.Budget(core.Algorithm(o.algo), mEdges, o.tOps, o.x)
	if err != nil {
		return err
	}
	stepSize := int64(0)
	if o.steps > 1 {
		stepSize = (t + o.steps - 1) / o.steps
	}
	if o.rank == 0 {
		fmt.Printf("budget: algo=%s t=%d step-size=%d stop-at=%g\n", o.algo, t, stepSize, targetX)
	}

	children := map[int]*exec.Cmd{}
	if o.spawn && o.rank == 0 {
		// Forward the RAW -t flag, not the derived t: a child that gets an
		// explicit t skips the derivation above and would never arm the
		// visit-rate early stop, diverging from this rank at the stop
		// boundary (a guaranteed deadlock for a curveball -x run). With
		// tOps=0 every rank re-derives the same t from the same flags.
		if err := spawnChildren(o, children); err != nil {
			_ = reapChildren(children, true)
			return err
		}
	}

	// The rollback loop: a lost peer with checkpointing armed rolls the
	// world back instead of failing it. Every process — rank 0 and
	// spawned or external workers alike — runs this same loop, so the
	// survivors of a fault all tear down, rejoin a restarted world on the
	// same coordinator address, and resume from the agreed checkpoint;
	// rank 0 additionally replaces its lost children.
	restore := o.restore
	for attempt := 0; ; attempt++ {
		lost, err := runRank(g, spec, o, t, targetX, stepSize, restore)
		if err == nil {
			break
		}
		if o.ckDir == "" || !errors.Is(err, mpi.ErrPeerLost) || attempt >= o.maxRollbacks {
			_ = reapChildren(children, true)
			return err
		}
		fmt.Fprintf(os.Stderr, "esworker[%d]: peer lost (%v); rolling back to the last checkpoint (attempt %d of %d)\n",
			o.rank, err, attempt+1, o.maxRollbacks)
		restore = true
		if o.spawn && o.rank == 0 {
			if rerr := respawnLost(o, children, lost); rerr != nil {
				_ = reapChildren(children, true)
				return rerr
			}
		}
	}
	// Rank 0 succeeded; a child may still have failed on its own (its
	// stderr went to ours). Report the first such failure.
	return reapChildren(children, false)
}

// childArgs builds the command line for spawned rank r. Every rank must
// derive identical (t, targetX, stepSize) from identical flags, so the
// caller forwards the RAW -t/-x flag values verbatim — never a derived
// t, which would suppress the child's visit-rate early stop and deadlock
// it against ranks that do stop. With restore set the child resumes from
// the shared checkpoint directory (a replacement for a lost rank, or a
// world-wide restart).
func childArgs(o workerOpts, r int, restore bool) []string {
	args := []string{
		"-size", strconv.Itoa(o.size),
		"-rank", strconv.Itoa(r),
		"-coordinator", o.coord,
		"-t", strconv.FormatInt(o.tOps, 10),
		"-x", strconv.FormatFloat(o.x, 'g', -1, 64),
		"-scheme", o.scheme,
		"-algo", o.algo,
		"-steps", strconv.FormatInt(o.steps, 10),
		"-seed", strconv.FormatUint(o.seed, 10),
		"-timeout", o.timeout.String(),
		"-write-timeout", o.writeTO.String(),
	}
	if o.genMod != "" {
		// The generation spec must reach every rank verbatim — the
		// seed and parameters ARE the graph.
		args = append(args, "-gen", o.genMod, "-n", strconv.Itoa(o.genN), "-d", strconv.Itoa(o.genD))
	} else {
		args = append(args, "-graph", o.graphPath)
	}
	if o.ckDir != "" {
		args = append(args,
			"-checkpoint-dir", o.ckDir,
			"-checkpoint-every", strconv.FormatInt(o.ckEvery, 10),
			"-max-rollbacks", strconv.Itoa(o.maxRollbacks))
	}
	if o.spillDir != "" {
		args = append(args, "-spill-dir", o.spillDir)
	}
	if o.cpuProf != "" {
		args = append(args, "-cpuprofile", o.cpuProf)
	}
	if o.memProf != "" {
		args = append(args, "-memprofile", o.memProf)
	}
	if restore {
		args = append(args, "-restore")
	}
	return args
}

// spawnChildren starts ranks 1..size-1 as local processes running this
// executable, recording them in children. On a start failure the ranks
// started so far remain recorded, so the caller can reap them.
func spawnChildren(o workerOpts, children map[int]*exec.Cmd) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	for r := 1; r < o.size; r++ {
		cmd := exec.Command(exe, childArgs(o, r, o.restore)...)
		cmd.Stdout = os.Stdout
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
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
func respawnLost(o workerOpts, children map[int]*exec.Cmd, lost []int) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	for _, r := range lost {
		if r == o.rank {
			continue
		}
		if old := children[r]; old != nil {
			_ = old.Process.Kill()
			_ = old.Wait()
			delete(children, r)
		}
		cmd := exec.Command(exe, childArgs(o, r, true)...)
		cmd.Stdout = os.Stdout
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			return fmt.Errorf("respawning lost rank %d: %w", r, err)
		}
		children[r] = cmd
	}
	return nil
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

// runRank joins the distributed world, runs this rank, and (on rank 0)
// reports and saves the result. Exactly one of g (loaded graph) and spec
// (distributed generation) is non-nil. The ranks this process observed
// as lost are returned alongside any error, for the rollback loop's
// respawn decision.
func runRank(g *graph.Graph, spec *pergen.Spec, o workerOpts, t int64, targetX float64,
	stepSize int64, restore bool) (lost []int, err error) {

	pw, err := mpi.JoinDistributed(o.rank, o.size, o.coord, o.timeout, mpi.WithWriteTimeout(o.writeTO))
	if err != nil {
		return nil, err
	}
	defer func() {
		// Capture the fault record before teardown discards it; teardown
		// errors surface transport faults recorded while the world was
		// live but must not mask the run's own error.
		lost = pw.LostRanks()
		if cerr := pw.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()

	var res *core.Result
	err = pw.Run(func(c *mpi.Comm) error {
		r, err := core.RunRank(c, g, t, core.Config{
			Scheme:          core.Scheme(o.scheme),
			StepSize:        stepSize,
			Seed:            o.seed,
			Algorithm:       core.Algorithm(o.algo),
			TargetVisitRate: targetX,
			DistributedGen:  spec,
			CheckpointDir:   o.ckDir,
			CheckpointEvery: o.ckEvery,
			Restore:         restore,
			SpillDir:        o.spillDir,
		})
		if err != nil {
			return err
		}
		res = r
		return nil
	})
	if err != nil {
		return lost, err
	}

	if o.rank == 0 {
		if res.RestoredStep > 0 {
			fmt.Printf("resumed from checkpoint at step %d\n", res.RestoredStep)
		}
		fmt.Printf("distributed run complete: %d ops (%d restarts, %d forfeited) in %v across %d processes\n",
			res.Ops, res.Restarts, res.Forfeited, res.Elapsed, o.size)
		fmt.Printf("observed visit rate: %.6f\n", res.VisitRate)
		for i := range res.RankOps {
			fmt.Printf("rank %d: %d ops, %d->%d edges, %d msgs\n", i,
				res.RankOps[i], res.RankInitialEdges[i], res.RankFinalEdges[i], res.RankMessages[i])
		}
		if o.outPath != "" {
			if err := edgeswitch.SaveGraphFile(o.outPath, res.Graph); err != nil {
				return lost, err
			}
			fmt.Printf("wrote %s\n", o.outPath)
		}
	}
	return lost, nil
}
