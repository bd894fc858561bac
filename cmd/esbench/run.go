package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"slices"
	"syscall"
	"time"

	"edgeswitch/internal/core"
	"edgeswitch/internal/gen/pergen"
	"edgeswitch/internal/graph"
	"edgeswitch/internal/mpi"
)

// minReps is the fewest timed reps a run reports a median over, however
// short -seconds is.
const minReps = 3

// rep is the outcome of one randomization: generator spec → EdgeHash.
type rep struct {
	wall time.Duration // world creation through teardown
	res  *core.Result
	comm mpi.CommStats
	err  error
}

// setup is the part of the rep that is not switching: world creation and
// teardown, generation, partition build, store load, the stats gather.
func (r rep) setup() time.Duration { return r.wall - r.res.Elapsed }

// runRep does what core.Parallel does, but keeps World.Stats.
func runRep(cfg core.Config, t int64) rep {
	start := time.Now()
	var opts []mpi.Option
	if cfg.UseTCP {
		opts = append(opts, mpi.WithTCP())
	}
	world, err := mpi.NewWorld(cfg.Ranks, opts...)
	if err != nil {
		return rep{err: err}
	}
	var res *core.Result
	err = world.Run(func(c *mpi.Comm) error {
		r, err := core.RunRank(c, nil, t, cfg)
		if c.Rank() == 0 {
			res = r
		}
		return err
	})
	comm := world.Stats()
	if cerr := world.Close(); err == nil {
		err = cerr
	}
	return rep{wall: time.Since(start), res: res, comm: comm, err: err}
}

// check says why a rep counts as failed, or nil. Forfeited operations are
// not failures: a TargetVisitRate early stop also leaves Ops < t.
func (r rep) check(algo core.Algorithm) error {
	switch {
	case r.err != nil:
		return r.err
	case r.res == nil:
		return fmt.Errorf("no result on rank 0")
	case r.comm.Faults > 0:
		return fmt.Errorf("%d transport faults", r.comm.Faults)
	}
	x := r.res.VisitRate
	if algo == core.AlgoCurveball {
		if x < targetX {
			return fmt.Errorf("visit rate %.4f below target %.2f", x, targetX)
		}
	} else if math.Abs(x-targetX) > 0.01 {
		// t is an expectation for edge-switching, so the observed rate
		// scatters around the target (0.8996–0.9010 measured).
		return fmt.Errorf("visit rate %.4f not within 0.01 of target %.2f", x, targetX)
	}
	return nil
}

// runner holds what one workload's process needs across its phases.
type runner struct {
	w      workload
	seed   uint64
	outDir string
	spec   pergen.Spec
	t      int64 // operation budget

	attempted int
	failures  []string

	reps  []rep // successful timed reps
	e2e   *table
	layer *table
	proc  procDelta // over the timed reps
}

func newRunner(w workload, seed uint64, outDir string) (*runner, error) {
	sp := w.spec(seed)
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	t, err := core.OpsForVisitRateAlgo(w.algo, sp.MaxEdges(), targetX)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(outDir, 0o777); err != nil {
		return nil, err
	}
	return &runner{w: w, seed: seed, outDir: outDir, spec: sp, t: t,
		e2e: newTable(), layer: newTable()}, nil
}

func (r *runner) fail(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

// rep runs randomization number i of the ensemble (Config.Seed = seed+1+i)
// for t operations (r.t, or 0 for a bootstrap-only run); spill reps get a
// fresh directory that is removed before returning.
func (r *runner) rep(i int, t int64, skipResult, spill bool) rep {
	cfg := r.w.config(&r.spec, r.seed+1+uint64(i), r.t)
	cfg.SkipResult = skipResult
	if spill {
		dir, err := os.MkdirTemp(r.outDir, "spill-")
		if err != nil {
			return rep{err: err}
		}
		defer os.RemoveAll(dir)
		cfg.SpillDir = dir
	}
	return runRep(cfg, t)
}

// timedReps runs back-to-back randomizations of the one generated input
// until budget has passed (and at least minReps), recording nothing
// inside a rep but its outer timer.
func (r *runner) timedReps(budget time.Duration) {
	if r.w.memLimitMiB > 0 {
		defer debug.SetMemoryLimit(debug.SetMemoryLimit(r.w.memLimitMiB << 20))
	}
	// One untimed rep first: a fresh process pays for heap growth and
	// first-touch page faults (2 µs a page on this kind of host, more
	// after the machine has idled) that a standing ensemble loop does not.
	r.attempted++
	if err := r.rep(0, r.t, true, r.w.spill).check(r.w.algo); err != nil {
		r.fail("warm-up rep: %v", err)
	}
	before := readProc()
	start := time.Now()
	for i := 0; i < minReps || time.Since(start) < budget; i++ {
		rp := r.rep(i, r.t, true, r.w.spill)
		r.attempted++
		if err := rp.check(r.w.algo); err != nil {
			r.fail("rep %d: %v", i, err)
			continue
		}
		r.reps = append(r.reps, rp)
		m := float64(sum(rp.res.RankInitialEdges))
		r.e2e.add("setup_s", "s", rp.setup().Seconds())
		r.e2e.add("randomize_s", "s", rp.wall.Seconds())
		r.e2e.add("visits_per_s", "1/s", rp.res.VisitRate*m/rp.res.Elapsed.Seconds())
	}
	r.proc = readProc().sub(before)
}

// runMetrics derives the per-layer numbers that come from the timed
// reps' Result and World.Stats, one sample per rep.
func (r *runner) runMetrics() {
	l := r.layer
	var allOps float64
	for _, rp := range r.reps {
		res := rp.res
		allOps += float64(res.Ops)
		m := float64(sum(res.RankInitialEdges))
		ops := math.Max(float64(res.Ops), 1)
		el := res.Elapsed.Seconds()
		l.add("core.switch_s", "s", el)
		l.add("core.ops_per_s", "1/s", float64(res.Ops)/el)
		l.add("core.steps", "count", float64(res.Steps))
		l.add("core.visit_rate", "ratio", res.VisitRate)
		l.add("core.restart_ratio", "ratio", float64(res.Restarts)/math.Max(float64(res.Ops+res.Restarts), 1))
		l.add("core.msgs_per_op", "ratio", float64(sum(res.RankMessages))/ops)
		l.add("core.flushes_per_step", "ratio", float64(sum(res.RankFlushes))/math.Max(float64(res.Steps), 1))
		l.add("core.rank_imbalance", "ratio", float64(slices.Max(res.RankOps))*float64(len(res.RankOps))/math.Max(float64(sum(res.RankOps)), 1))
		l.add("core.forfeited_ops", "count", float64(res.Forfeited))
		l.add("mpi.sends_per_op", "ratio", float64(rp.comm.Sends)/ops)
		l.add("mpi.bytes_per_op", "B", float64(rp.comm.Bytes)/ops)
		l.add("mpi.faults", "count", float64(rp.comm.Faults))
		l.add("store.overlay_hwm_share", "ratio", float64(res.SpillOverlayHWM)/m)
		l.add("store.compactions", "count", float64(res.SpillCompactions))
		l.add("store.compact_share", "ratio", float64(res.SpillCompactNs)/1e9/(ranks*el))
		l.add("store.base_bytes_per_edge", "B", float64(res.SpillBaseBytes)/m)
	}
	n := math.Max(float64(len(r.reps)), 1)
	p := r.proc
	l.add("proc.peak_rss_mib", "MiB", p.peakRSSMiB)
	var over float64
	if r.w.memLimitMiB > 0 {
		over = p.peakRSSMiB / float64(r.w.memLimitMiB)
	}
	l.add("proc.rss_over_limit", "ratio", over)
	l.add("proc.alloc_mib_per_rep", "MiB", p.allocBytes/(1<<20)/n)
	l.add("proc.mallocs_per_op", "ratio", p.mallocs/math.Max(allOps, 1))
	l.add("proc.gc_cpu_share", "ratio", p.gcCPU/math.Max(p.totalCPU, 1e-9))
	l.add("proc.cpu_s_per_rep", "s", p.procCPU/n)
}

// verify is the correctness gate: one untimed rep with the graph
// reassembled, checked against the generator's own output, plus the
// EdgeHash checks curveball's determinism allows. It returns the rep so
// the traced pass can report the reassembly time.
func (r *runner) verify() rep {
	r.attempted++
	rp := r.rep(0, r.t, false, r.w.spill)
	if err := rp.check(r.w.algo); err != nil {
		r.fail("verify rep: %v", err)
		return rp
	}
	gn, err := pergen.New(r.spec)
	if err != nil {
		r.fail("verify: %v", err)
		return rp
	}
	ref, err := gn.Full()
	if err != nil {
		r.fail("verify: %v", err)
		return rp
	}
	if err := checkGraph(rp.res, ref); err != nil {
		r.fail("verify rep: %v", err)
	}
	if r.w.algo != core.AlgoCurveball || len(r.reps) == 0 {
		return rp
	}
	// Curveball is deterministic: the verify rep repeats timed rep 0's
	// seed, and the tiered store must not change a single edge.
	want := r.reps[0].res.EdgeHash
	if rp.res.EdgeHash != want {
		r.fail("verify rep: EdgeHash %#x differs from timed rep 0's %#x for the same seed", rp.res.EdgeHash, want)
	}
	if r.w.spill {
		r.attempted++
		mem := r.rep(0, r.t, true, false)
		if err := mem.check(r.w.algo); err != nil {
			r.fail("in-memory twin: %v", err)
		} else if mem.res.EdgeHash != want {
			r.fail("in-memory twin: EdgeHash %#x differs from the spill run's %#x for the same seed", mem.res.EdgeHash, want)
		}
	}
	return rp
}

// checkGraph holds a reassembled result against the generated input:
// same edge count and degree sequence, still simple, and Result.EdgeHash
// describes the graph that was returned.
func checkGraph(res *core.Result, ref *graph.Graph) error {
	g := res.Graph
	if g == nil {
		return fmt.Errorf("no reassembled graph")
	}
	if g.N() != ref.N() || g.M() != ref.M() {
		return fmt.Errorf("size changed: n %d→%d, m %d→%d", ref.N(), g.N(), ref.M(), g.M())
	}
	if err := g.CheckSimple(); err != nil {
		return fmt.Errorf("not simple: %w", err)
	}
	want, got := ref.Degrees(), g.Degrees()
	for v := range want {
		if want[v] != got[v] {
			return fmt.Errorf("degree of vertex %d changed: %d→%d", v, want[v], got[v])
		}
	}
	if h := edgeHash(g); h != res.EdgeHash {
		return fmt.Errorf("EdgeHash %#x does not describe the returned graph (%#x)", res.EdgeHash, h)
	}
	return nil
}

// edgeHash recomputes core's Result.EdgeHash from a whole graph: the sum
// over edges of SplitMix64's finalizer applied to (u, v, original).
func edgeHash(g *graph.Graph) uint64 {
	var h uint64
	for u := 0; u < g.N(); u++ {
		g.WalkReduced(graph.Vertex(u), func(v graph.Vertex, orig bool) bool {
			x := uint64(u)<<33 | uint64(v)<<1
			if orig {
				x |= 1
			}
			x ^= x >> 30
			x *= 0xbf58476d1ce4e5b9
			x ^= x >> 27
			x *= 0x94d049bb133111eb
			x ^= x >> 31
			h += x
			return true
		})
	}
	return h
}

// procDelta is what the process spent between two readProc calls;
// peakRSSMiB is the high-water mark at the later one.
type procDelta struct {
	peakRSSMiB float64
	procCPU    float64 // user+system seconds
	allocBytes float64
	mallocs    float64
	gcCPU      float64 // seconds, as the runtime estimates them
	totalCPU   float64
}

func readProc() procDelta {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return procDelta{
		peakRSSMiB: float64(ru.Maxrss) / 1024, // Linux reports KiB
		procCPU:    tv(ru.Utime) + tv(ru.Stime),
		allocBytes: float64(ms.TotalAlloc),
		mallocs:    float64(ms.Mallocs),
		gcCPU:      s[0].Value.Float64(),
		totalCPU:   s[1].Value.Float64(),
	}
}

func (p procDelta) sub(q procDelta) procDelta {
	return procDelta{p.peakRSSMiB, p.procCPU - q.procCPU, p.allocBytes - q.allocBytes,
		p.mallocs - q.mallocs, p.gcCPU - q.gcCPU, p.totalCPU - q.totalCPU}
}

func sum(xs []int64) (s int64) {
	for _, x := range xs {
		s += x
	}
	return s
}
