package main

import (
	"fmt"
	"io"
	"time"

	"edgeswitch/internal/core"
	"edgeswitch/internal/gen/pergen"
	"edgeswitch/internal/partition"
	"edgeswitch/internal/rng"
)

// tracedPass produces the per-layer numbers the timed reps cannot: it
// wraps the harness's own calls into each package in spans — a
// bootstrap-only run, one extra randomization, the verify rep, the
// sequential reference, and the kernels on the workload's rank-0
// partition — and writes the spans out. It runs after the timed reps and
// never overlaps them.
func (r *runner) tracedPass(attribution io.Writer) error {
	tr := newTracer(r.w.name)
	k := &kernels{tr: tr, layer: r.layer, rnd: rng.Split(r.seed, 1<<24)}
	root := tr.begin("esbench", "traced pass")

	boots := make([]time.Duration, kernelRounds)
	for i := range boots {
		id := tr.begin("core", "bootstrap (t=0 run)")
		rp := r.rep(0, 0, true, r.w.spill)
		tr.end(id, 0)
		if rp.err != nil {
			return fmt.Errorf("bootstrap run: %w", rp.err)
		}
		boots[i] = rp.wall
	}
	boot := medianDur(boots)
	r.layer.add("core.bootstrap_s", "s", boot.Seconds())

	id := tr.begin("core", "randomization")
	r.attempted++
	rp := r.rep(len(r.reps), r.t, true, r.w.spill)
	if err := rp.check(r.w.algo); err != nil {
		r.fail("traced rep: %v", err)
		tr.end(id, 0)
	} else {
		tr.end(id, rp.res.Ops)
	}

	id = tr.begin("core", "verify rep (reassembled)")
	v := r.verify()
	tr.end(id, 1)
	if v.res != nil {
		r.layer.add("core.reassemble_s", "s", (v.setup() - boot).Seconds())
	}

	gn, err := pergen.New(r.spec)
	if err != nil {
		return err
	}
	ops, d, hash, err := k.sequential(gn, r.w.algo, int64(r.reps[0].res.Steps), r.seed+1)
	if err != nil {
		return fmt.Errorf("sequential reference: %w", err)
	}
	if want := r.reps[0].res.EdgeHash; r.w.algo == core.AlgoCurveball && hash != want {
		// Curveball is p-invariant: the reference repeats timed rep 0's
		// seed and must end on the same edge set, flags included.
		r.fail("sequential reference: EdgeHash %#x differs from timed rep 0's %#x", hash, want)
	}
	switchS := median(r.layer.index["core.switch_s"].samples)
	r.layer.add("core.seq_ops_per_s", "1/s", float64(ops)/d.Seconds())
	r.layer.add("core.speedup_vs_seq", "ratio", d.Seconds()/switchS)

	cfg := r.w.config(&r.spec, r.seed+1, r.t)
	pt, err := partitioner(gn, cfg.Scheme)
	if err != nil {
		return err
	}
	k.genKernels(gn, pt)
	k.rngKernels()
	p := loadPart(gn, pt, 0)
	k.graphKernels(p)
	if err := k.storeKernels(p, r.outDir); err != nil {
		return fmt.Errorf("store kernels: %w", err)
	}
	if err := k.mpiKernels(r.w.tcp, max(cfg.StepSize, 1), r.seed); err != nil {
		return fmt.Errorf("mpi kernels: %w", err)
	}

	r.attribute(attribution)
	tr.end(root, 0)
	return tr.write(r.outDir)
}

// partitioner builds the workload's partitioner the way core's
// distributed-generation bootstrap does for the two schemes in use.
func partitioner(gn *pergen.Gen, scheme core.Scheme) (partition.Partitioner, error) {
	switch scheme {
	case core.SchemeCP:
		return partition.NewCPFromReduced(gn.ReducedDegrees(), ranks)
	case core.SchemeHPD:
		return partition.NewHPD(ranks)
	}
	return nil, fmt.Errorf("esbench: no partitioner for scheme %q", scheme)
}

// attribute multiplies per-rep work counts from the timed reps by the
// kernels' unit costs, using the operation mix of DESIGN.md §4 (README,
// "Attribution"), and reports what the products do not cover as
// core.unattributed_share instead of hiding it. Costs are rank-seconds;
// the whole is ranks × core.switch_s.
func (r *runner) attribute(w io.Writer) {
	med := func(name string) float64 { return median(r.layer.index[name].samples) }
	var ops, restarts, steps, sends, bytes, edges, compactS float64
	if n := len(r.reps); n > 0 {
		mid := func(f func(rep) float64) float64 {
			xs := make([]float64, n)
			for i, rp := range r.reps {
				xs[i] = f(rp)
			}
			return median(xs)
		}
		ops = mid(func(rp rep) float64 { return float64(rp.res.Ops) })
		restarts = mid(func(rp rep) float64 { return float64(rp.res.Restarts) })
		steps = mid(func(rp rep) float64 { return float64(rp.res.Steps) })
		sends = mid(func(rp rep) float64 { return float64(rp.comm.Sends) })
		bytes = mid(func(rp rep) float64 { return float64(rp.comm.Bytes) })
		edges = mid(func(rp rep) float64 { return float64(sum(rp.res.RankInitialEdges)) })
		compactS = mid(func(rp rep) float64 { return float64(rp.res.SpillCompactNs) / 1e9 })
	}
	type row struct {
		layer, what string
		count, unit float64 // unit cost in ns
	}
	transport := []row{
		{"mpi", "transport sends × half a 64 B round trip", sends, med("mpi.pingpong_us") * 1e3 / 2},
		{"mpi", "payload bytes ÷ stream rate", bytes, 1e3 / med("mpi.stream_mb_per_s")},
	}
	var rows []row
	if r.w.algo == core.AlgoCurveball {
		scan := med("store.mem_scan_ns_per_edge")
		if r.w.spill {
			scan = med("store.tiered_scan_ns_per_edge")
		}
		rows = append([]row{
			{"store", "edges drained and rebuilt (m × rounds)", edges * steps, scan},
			{"store", "compaction (Result.SpillCompactNs, measured)", 1, compactS * 1e9},
			{"rng", "one Stream.At per redistributed edge (m × rounds)", edges * steps, med("rng.stream_at_ns")},
			{"mpi", "round boundaries × 2 allreduces", 2 * steps, med("mpi.allreduce_us") * 1e3},
		}, transport...)
	} else {
		// One attempt = a completed or a restarted operation: two edge
		// selections (Int64n, Fenwick find, Kth, Delete, Fenwick add),
		// two reservation probes (Contains), two inserts (the new edges,
		// or the old ones put back; Uint32 priority, Insert, Fenwick
		// add), four owner lookups.
		attempts := ops + restarts
		rows = append([]row{
			{"rng", "4 draws per attempt", 4 * attempts, med("rng.int64n_ns")},
			{"graph", "2 Fenwick finds per attempt", 2 * attempts, med("graph.fenwick_find_ns")},
			{"graph", "4 Fenwick adds per attempt", 4 * attempts, med("graph.fenwick_add_ns")},
			{"graph", "2 treap Kth per attempt", 2 * attempts, med("graph.treap_kth_ns")},
			{"graph", "2 treap Contains per attempt", 2 * attempts, med("graph.treap_contains_ns")},
			{"graph", "2 treap Delete+Insert per attempt", 2 * attempts, med("graph.treap_insdel_ns") - med("graph.treap_kth_ns")},
			{"partition", "4 Owner per attempt", 4 * attempts, med("partition.owner_ns")},
			{"randvar", "steps × ParallelMultinomialGathered × ranks", steps * ranks, med("randvar.parallel_multinomial_us") * 1e3},
			{"mpi", "steps × step exchange (≈ one allreduce) × ranks", steps * ranks, med("mpi.allreduce_us") * 1e3},
		}, transport...)
	}
	whole := ranks * med("core.switch_s")
	var covered float64
	fmt.Fprintf(w, "attribution of %d × core.switch_s = %.3f rank-seconds per rep (%s):\n", ranks, whole, r.w.name)
	fmt.Fprintf(w, "  %-10s %-52s %12s %10s %9s %7s\n", "layer", "work", "count", "ns each", "seconds", "share")
	for _, rw := range rows {
		s := rw.count * rw.unit / 1e9
		covered += s
		fmt.Fprintf(w, "  %-10s %-52s %12.0f %10.1f %9.3f %6.1f%%\n", rw.layer, rw.what, rw.count, rw.unit, s, 100*s/whole)
	}
	un := 1 - covered/whole
	fmt.Fprintf(w, "  %-10s %-52s %12s %10s %9.3f %6.1f%%\n", "core", "unattributed (protocol, codec, waiting, scheduling)", "", "", whole-covered, 100*un)
	r.layer.add("core.unattributed_share", "ratio", un)
}
