package core

import (
	"fmt"
	"math"
	"time"

	"edgeswitch/internal/clock"
	"edgeswitch/internal/gen/pergen"
	"edgeswitch/internal/graph"
	"edgeswitch/internal/mpi"
	"edgeswitch/internal/partition"
	"edgeswitch/internal/rng"
)

// Scheme selects the partitioning strategy (§4.3, §5.1).
type Scheme string

// The four partitioning schemes evaluated in the paper.
const (
	SchemeCP  Scheme = "CP"   // consecutive, edge-balanced
	SchemeHPD Scheme = "HP-D" // division hash v mod p
	SchemeHPM Scheme = "HP-M" // multiplication hash
	SchemeHPU Scheme = "HP-U" // universal hash
)

// Schemes lists all partitioning schemes in presentation order.
func Schemes() []Scheme { return []Scheme{SchemeCP, SchemeHPD, SchemeHPM, SchemeHPU} }

// Config parameterises a parallel randomization run.
type Config struct {
	// Ranks is the number of processors p (goroutine ranks). Must be >= 1.
	Ranks int
	// Algorithm selects the randomization process run behind the
	// Randomizer seam (see randomizer.go): AlgoEdgeSwitch (the default,
	// also selected by "") runs the paper's conversation protocol where t
	// counts switch operations; AlgoCurveball runs global curveball
	// trades where t counts global rounds and StepSize is ignored (every
	// step is exactly one round).
	Algorithm Algorithm
	// TargetVisitRate, when > 0, stops the run at the first step boundary
	// where the observed global visit rate (computed from the originals
	// count fused into the step exchange, identically on every rank)
	// reaches the target; t then acts as a ceiling. Useful with
	// AlgoCurveball, whose per-round visit rate is bounded conservatively
	// (see CurveballRoundsForVisitRate), so runs end as soon as the
	// target is actually met instead of completing the worst-case round
	// count. Must lie in [0, 1]; 0 disables the early stop.
	TargetVisitRate float64
	// Scheme selects the partitioning scheme. Default SchemeCP.
	Scheme Scheme
	// StepSize is the number of operations per step (§4.5); operations
	// are re-distributed by multinomial sampling and the probability
	// vector is refreshed between steps. 0 means a single step.
	//
	// The rule (§4.7): one step for the HP schemes (Table 3), about t/100
	// for CP (Figs. 8–11), whose one-step error rate is several times the
	// sequential baseline. harness.TestTable3Verdict asserts both.
	StepSize int64
	// Seed drives every random choice of the run.
	Seed uint64
	// UseTCP routes all engine traffic over loopback TCP sockets instead
	// of in-process mailboxes.
	UseTCP bool
	// SkipResult suppresses gathering and reassembling the final graph,
	// for benchmark runs that only need timing and counters.
	SkipResult bool
	// CheckInvariants runs the engine under the invariant sanitizer (see
	// sanitize.go and stepsync.go): at every step boundary, each rank
	// re-verifies simplicity, ownership and Fenwick consistency of its
	// partition, and all ranks jointly verify degree conservation through
	// a degree fingerprint summed in the step-boundary exchange (no extra
	// collective); the full degree sequence is re-checked against the
	// pre-switching baseline at the end of the run and at any boundary
	// whose fingerprint is off, and the reassembled result graph is
	// checked too. Costs O(n + m/p) work per step plus two O(n)
	// allreduces per run; meant for tests and checked production runs,
	// off by default.
	CheckInvariants bool
	// SpillDir, when set, gives every rank's partition store a directory
	// (internal/store, DESIGN.md §7): an immutable mmap'd base segment under
	// SpillDir/rank-NNNN holds the partition on disk, an in-memory
	// overlay holds only vertices touched since the last compaction, and
	// step boundaries fold an overlay of more than max(|E_local|/4, 4096)
	// entries into a new base segment. Results are bit-identical to
	// in-memory runs wherever the run is deterministic. It bounds no
	// peak: edge switching at the paper's visit rates touches most slots
	// within a step, so the overlay comes to hold most of the partition,
	// and curveball carries its partition as in-memory lists, writing the
	// store only where something reads it; measured spill runs peak near
	// their in-memory runs. Multi-process ranks need distinct or shared
	// directories — each rank uses only its own subdirectory.
	SpillDir string
	// DistributedGen, when non-nil, switches the bootstrap to parallel
	// generation (internal/gen/pergen): no rank materializes the whole
	// graph and nothing is scattered — every rank resolves one share of
	// the spec's edges, about m/p of them, and routes each edge to the
	// owner of its minimum endpoint in one chunked exchange (a contact
	// share also sums its within-community count, one scalar allreduce,
	// before its cross slots). RunRank must
	// then be called with a nil graph; the resulting edge set is
	// byte-identical to pergen.New(spec).Full() at every rank count.
	DistributedGen *pergen.Spec
	// CheckpointDir, when set, enables step-boundary checkpointing: every
	// CheckpointEvery-th completed step, each rank writes its partition
	// to a segment file in this directory (CRC32C trailer, atomic rename)
	// and sends rank 0 its record — segment identity, RNG position,
	// randomizer cursor, counters — and rank 0 commits a CRC32C-sealed
	// manifest holding every record only when all ranks sent one, so a
	// crash at any point leaves the previous checkpoint restorable. All
	// ranks must see the same directory (a shared filesystem, or one
	// machine). See DESIGN.md §6.
	CheckpointDir string
	// CheckpointEvery is the number of completed steps between
	// checkpoints. 0 means 1 (every boundary) when CheckpointDir is set;
	// ignored otherwise.
	CheckpointEvery int64
	// Restore resumes the run from the newest checkpoint in CheckpointDir
	// that every rank can restore, agreed through an OpMin collective; if
	// no common restorable checkpoint exists the run bootstraps fresh.
	// The restored world re-derives the global degree sequence and checks
	// its CRC against the manifest before switching resumes. Requires
	// CheckpointDir.
	Restore bool

	// checkpointKeep is the number of most recent checkpoints retained
	// after each commit: 0 means 2 (the newly committed one plus its
	// predecessor), negative keeps every one. restoreStep, when > 0 with
	// Restore, demands the checkpoint of that exact step instead of the
	// newest restorable one, and fails with the reason when it cannot be
	// honored. Unexported: only this package's restore-equivalence tests,
	// which restore every boundary of a run, turn either.
	checkpointKeep int
	restoreStep    int64

	// overlayBudget, when > 0 with SpillDir, replaces the derived overlay
	// budget. Unexported: only this package's spill tests, which want a
	// compaction at every boundary, set it.
	overlayBudget int64
}

// Result reports a parallel run.
type Result struct {
	// Graph is the switched graph, reassembled on rank 0 (nil with
	// Config.SkipResult).
	Graph *graph.Graph
	// Algorithm echoes the randomization algorithm that ran.
	Algorithm string
	// Ops is the number of completed operations: switches for
	// edge-switching (== t − Forfeited), executed trades for curveball.
	Ops int64
	// Restarts counts rejected selections across all ranks.
	Restarts int64
	// Forfeited counts operations abandoned because a rank's partition
	// ran out of edges with no active peers left to replenish it (only
	// reachable on degenerate tiny inputs; see DESIGN.md).
	Forfeited int64
	// Steps is the number of steps executed (curveball: rounds). A
	// Config.TargetVisitRate early stop can make this smaller than
	// ⌈t/StepSize⌉.
	Steps int
	// VisitRate is the observed visit rate, computed from the per-rank
	// originals counters the engines maintain — populated even with
	// SkipResult, where no graph is reassembled to count from.
	VisitRate float64
	// RankOps[i] is the number of operations initiated by rank i (the
	// workload of Figs. 19–21).
	RankOps []int64
	// RankRestarts[i] is per-rank restart counts.
	RankRestarts []int64
	// RankVertices[i] and RankInitialEdges[i] describe the partition
	// (Figs. 16–17); RankFinalEdges[i] the edge distribution after the
	// run (Fig. 18).
	RankVertices     []int64
	RankInitialEdges []int64
	RankFinalEdges   []int64
	// RankMessages[i] counts protocol messages sent by rank i. For
	// edge-switching these are records to peers, as many as the placement
	// of an operation's edges demands: none when all of them live on the
	// initiator (so every count is 0 at p=1), 2–4 through a partner
	// owning both replacement edges or a last agent, up to 5 through a
	// relay chain when two ranks other than the partner own them (the
	// relay is then the initiator); end-of-step signals add O(p)
	// per step. For curveball: one per routed adjacency entry (drained,
	// forwarded or settled), whether it stays on the rank or rides a run
	// to a peer — about three times the degrees a trade trades.
	RankMessages []int64
	// RankFlushes[i] counts message-plane flushes forced by rank i's
	// step loop blocking (batches pushed out before a Recv wait).
	RankFlushes []int64
	// RestoredStep is the step boundary this run resumed from (0 when it
	// started fresh rather than from a checkpoint).
	RestoredStep int64
	// EdgeHash is an order-independent fingerprint of the final edge set
	// (with original flags): each rank sums a mixed hash of its local
	// (u, v, orig) triples and rank 0 folds the per-rank sums. Invariant
	// under rank count and storage tier, so spill and in-memory runs of
	// a deterministic configuration can be compared bit-for-bit without
	// reassembling the graph (SkipResult runs under memory caps).
	EdgeHash uint64
	// SpillBaseBytes totals the ranks' base-segment file sizes at the end
	// of the run (0 without Config.SpillDir).
	SpillBaseBytes int64
	// SpillOverlayHWM totals the ranks' overlay entry high-water marks —
	// the peak treap entries resident between compactions.
	SpillOverlayHWM int64
	// SpillCompactions totals base-segment rewrites across ranks: overlay
	// compactions, and the streamed rewrite of a drained partition —
	// curveball's fill of its carried settled list at the end of the run
	// and at each checkpoint or sanitized boundary.
	SpillCompactions int64
	// SpillCompactNs totals wall-clock nanoseconds ranks spent compacting
	// (for a streamed rewrite, finalizing the segment).
	SpillCompactNs int64
	// Elapsed is the wall-clock time of the switching phase (excludes
	// graph partitioning and reassembly).
	Elapsed time.Duration
	// SchemeName echoes the partitioning scheme used.
	SchemeName string
}

// NewPartitioner builds the partitioner for a scheme. HP-U coefficients
// are derived deterministically from seed.
func NewPartitioner(g *graph.Graph, scheme Scheme, p int, seed uint64) (partition.Partitioner, error) {
	return graphSource(g).partitioner(nil, scheme, p, seed)
}

// source is what the bootstrap frame needs to know about where a run's
// graph comes from — a graph handed in whole, or a generator spec every
// rank resolves for itself (Config.DistributedGen).
type source struct {
	n int
	// m is the global edge count, or -1 when only the load can tell (the
	// contact generator's duplicates collapse at their owning rank): the
	// frame then allreduces the sorted counts.
	m int64
	// cp builds scheme CP's boundaries over p ranks from the reduced
	// degrees; a generated source sums them over c (nil outside a world).
	cp func(c *mpi.Comm, p int) (*partition.CP, error)
	// edges returns the entries of e's partition, in any order.
	edges func(e *rankEngine) ([]slotEdge, error)
	// collapseDup says a repeated entry is the generator's to collapse
	// rather than an error (see sortSlotEdges).
	collapseDup bool
	// baseline is the fingerprint SanitizeGraph checks the reassembled
	// result against.
	baseline func(e *rankEngine) *Baseline
}

// graphSource hands a whole graph to the ranks: each walks the reduced
// adjacencies of the vertices it owns.
func graphSource(g *graph.Graph) *source {
	return &source{
		n:  g.N(),
		m:  g.M(),
		cp: func(_ *mpi.Comm, p int) (*partition.CP, error) { return partition.NewCP(g, p) },
		edges: func(e *rankEngine) ([]slotEdge, error) {
			cnt := 0
			for _, u := range e.verts {
				cnt += g.ReducedDegree(u)
			}
			ents := make([]slotEdge, 0, cnt)
			for li, u := range e.verts {
				g.WalkReduced(u, func(v graph.Vertex, orig bool) bool {
					ents = append(ents, slotEdge{slot: int32(li), v: v, orig: orig})
					return true
				})
			}
			return ents, nil
		},
		baseline: func(*rankEngine) *Baseline { return NewBaseline(g) },
	}
}

// partitioner builds the partitioner for a scheme over src; c is the
// bootstrap's communicator, or nil outside a world.
func (src *source) partitioner(c *mpi.Comm, scheme Scheme, p int, seed uint64) (partition.Partitioner, error) {
	switch scheme {
	case SchemeCP, "":
		return src.cp(c, p)
	case SchemeHPD:
		return partition.NewHPD(p)
	case SchemeHPM:
		return partition.NewHPM(p)
	case SchemeHPU:
		return partition.NewHPU(p, rng.Split(seed, 1<<20))
	default:
		return nil, fmt.Errorf("core: unknown scheme %q", scheme)
	}
}

// Parallel performs t edge switch operations on a copy of g distributed
// over cfg.Ranks goroutine ranks, following §4–§5: the graph is
// partitioned by the configured scheme; each step's operations are
// spread over ranks by a multinomial keyed to the current per-partition
// edge counts, which every rank draws identically; each operation runs the
// conversation protocol, its replacement edges checked as potential edges
// and committed by a last agent or a relay chain. The input graph g is
// not modified.
//
// For true multi-process distribution, run one RunRank per process over
// an mpi.ProcWorld instead (see edgeswitch -coordinator).
func Parallel(g *graph.Graph, t int64, cfg Config) (*Result, error) {
	if cfg.Ranks < 1 {
		return nil, fmt.Errorf("core: Ranks must be >= 1, got %d", cfg.Ranks)
	}
	var opts []mpi.Option
	if cfg.UseTCP {
		opts = append(opts, mpi.WithTCP())
	}
	world, err := mpi.NewWorld(cfg.Ranks, opts...)
	if err != nil {
		return nil, err
	}
	defer world.Close()

	var res *Result
	runErr := world.Run(func(c *mpi.Comm) error {
		r, err := RunRank(c, g, t, cfg)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			res = r
		}
		return nil
	})
	if runErr != nil {
		return nil, runErr
	}
	return res, nil
}

// RunRank executes the parallel edge-switch algorithm as one rank of an
// existing communicator: every rank of c must call RunRank with an
// identical graph, operation count, and configuration (cfg.Ranks and
// cfg.UseTCP are ignored; the communicator decides both). Rank 0 returns
// the assembled Result; other ranks return nil. This is the entry point
// for multi-process distributed runs, where each process loads the graph
// (or, with Config.DistributedGen and a nil graph, generates it) and
// keeps only its own partition.
func RunRank(c *mpi.Comm, g *graph.Graph, t int64, cfg Config) (*Result, error) {
	if t < 0 {
		return nil, fmt.Errorf("core: negative operation count %d", t)
	}
	if _, err := cfg.algorithm(); err != nil {
		return nil, err
	}
	if math.IsNaN(cfg.TargetVisitRate) || cfg.TargetVisitRate < 0 || cfg.TargetVisitRate > 1 {
		return nil, fmt.Errorf("core: TargetVisitRate %v outside [0, 1]", cfg.TargetVisitRate)
	}
	var src *source
	switch {
	case cfg.DistributedGen != nil && g != nil:
		return nil, fmt.Errorf("core: RunRank with Config.DistributedGen takes a nil graph (ranks generate their own partitions)")
	case cfg.DistributedGen != nil:
		var err error
		if src, err = genSource(*cfg.DistributedGen); err != nil {
			return nil, err
		}
	case g == nil:
		return nil, fmt.Errorf("core: RunRank needs a graph (or Config.DistributedGen)")
	default:
		src = graphSource(g)
	}
	eng, err := bootstrap(c, src, t, cfg)
	if err != nil {
		return nil, err
	}
	// Only the baseline outlives the bootstrap: holding src would keep a
	// generated source's tables and any cached share alive for the run.
	baseline := src.baseline
	return runEngine(eng, t, cfg, func() *Baseline { return baseline(eng) })
}

// bootstrap is the one frame around every way a rank engine comes to
// hold its partition: partitioner, checkpointer, empty engine, then the
// rollback collective or — when the world agrees there is nothing to
// restore — the source's entries, both sorted by sortSlotEdges and handed
// to the randomizer by finishLoad. The engine
// owns a live store from newEmptyRankEngine on, so every failure after it
// closes the store here (a tiered one holds a mapping and a spill
// directory); on success runEngine takes the store over.
func bootstrap(c *mpi.Comm, src *source, t int64, cfg Config) (*rankEngine, error) {
	pt, err := src.partitioner(c, cfg.Scheme, c.Size(), cfg.Seed)
	if err != nil {
		return nil, err
	}
	ck, err := newCheckpointer(c, cfg)
	if err != nil {
		return nil, err
	}
	e, err := newEmptyRankEngine(c, pt, src.n, cfg)
	if err != nil {
		return nil, err
	}
	e.ckpt = ck
	if err := e.fill(src, t, cfg); err != nil {
		_ = e.adj.Close()
		return nil, err
	}
	return e, nil
}

// fill is bootstrap's restore-or-load step on the empty engine.
func (e *rankEngine) fill(src *source, t int64, cfg Config) error {
	restored := false
	if cfg.Restore {
		var err error
		if restored, err = e.ckpt.restore(e, src.m, cfg); err != nil {
			return err
		}
	}
	if !restored {
		ents, err := src.edges(e)
		if err != nil {
			return err
		}
		if ents, err = e.sortSlotEdges(ents, nil, src.collapseDup); err != nil {
			return err
		}
		m := src.m
		if m < 0 {
			total, err := e.c.AllreduceInt64s([]int64{int64(len(ents))}, mpi.OpSum)
			if err != nil {
				return err
			}
			m = total[0]
		}
		if err := e.finishLoad(m, ents, cfg); err != nil {
			return err
		}
	}
	if e.m < 2 && t > 0 {
		return fmt.Errorf("core: need at least 2 edges to switch, have %d", e.m)
	}
	return nil
}

// runEngine drives a loaded rank engine through the switching run and
// the result gathering, and closes its store. baseline supplies the
// invariant fingerprint SanitizeGraph checks the reassembled result
// against.
func runEngine(eng *rankEngine, t int64, cfg Config, baseline func() *Baseline) (*Result, error) {
	c, pt := eng.c, eng.pt
	p := c.Size()
	defer eng.adj.Close()
	algo, err := cfg.algorithm()
	if err != nil {
		return nil, err
	}
	stepSize := cfg.StepSize
	if algo == AlgoCurveball {
		// A curveball step is one global round by construction: the round
		// boundary is where the pairing permutation changes and every
		// adjacency has settled, so larger step sizes have no meaning.
		stepSize = 1
	} else if stepSize <= 0 || stepSize > t {
		stepSize = t
	}
	if eng.restoredStep > 0 && eng.ckpt != nil && eng.ckpt.restoredStepSize != stepSize {
		// The resume offset is stepsRun × stepSize: a different step size
		// would replay or skip operations, so it is part of the identity.
		return nil, fmt.Errorf("core: restored checkpoint was taken with step size %d, this run uses %d", eng.ckpt.restoredStepSize, stepSize)
	}
	start := clock.Now()
	if err := eng.run(t, stepSize); err != nil {
		return nil, err
	}
	elapsed := clock.Since(start)

	// Gather statistics at rank 0. The spill counters and the edge-set
	// fingerprint ride the same collective, so spill observability and
	// bit-identity checks cost no extra communication.
	ss := eng.adj.Stats()
	stats := []int64{eng.opsInitiated, eng.restarts, eng.forfeited,
		int64(len(eng.verts)), eng.initialEdges, eng.localEdges(), eng.msgsSent,
		eng.flushes, eng.origLocal,
		ss.BaseBytes, ss.OverlayHWM, ss.Compactions, ss.CompactNs,
		int64(eng.edgeHash())}
	gathered, err := c.Gather(0, mpi.Int64sToBytes(stats))
	if err != nil {
		return nil, err
	}
	var res *Result
	var origSum int64
	if c.Rank() == 0 {
		res = &Result{
			SchemeName:       pt.Name(),
			Algorithm:        string(algo),
			Elapsed:          elapsed,
			RankOps:          make([]int64, p),
			RankRestarts:     make([]int64, p),
			RankVertices:     make([]int64, p),
			RankInitialEdges: make([]int64, p),
			RankFinalEdges:   make([]int64, p),
			RankMessages:     make([]int64, p),
			RankFlushes:      make([]int64, p),
		}
		for rank, payload := range gathered {
			vs, err := mpi.BytesToInt64s(payload)
			if err != nil {
				return nil, err
			}
			res.RankOps[rank] = vs[0]
			res.RankRestarts[rank] = vs[1]
			res.Forfeited += vs[2]
			res.RankVertices[rank] = vs[3]
			res.RankInitialEdges[rank] = vs[4]
			res.RankFinalEdges[rank] = vs[5]
			res.RankMessages[rank] = vs[6]
			res.RankFlushes[rank] = vs[7]
			origSum += vs[8]
			res.SpillBaseBytes += vs[9]
			res.SpillOverlayHWM += vs[10]
			res.SpillCompactions += vs[11]
			res.SpillCompactNs += vs[12]
			res.EdgeHash += uint64(vs[13])
			res.Ops += vs[0]
			res.Restarts += vs[1]
		}
		res.Steps = int(eng.stepsRun)
		res.RestoredStep = eng.restoredStep
		res.VisitRate = VisitRate(origSum, eng.m)
	}
	if cfg.SkipResult {
		return res, nil
	}

	// Ship the partition to rank 0 in the segment codec and reassemble.
	var payload []byte
	for li := range eng.verts {
		payload = eng.adj.AppendList(payload, li)
	}
	parts, err := c.Gather(0, payload)
	if err != nil {
		return nil, err
	}
	if c.Rank() != 0 {
		return nil, nil
	}
	out, err := reassemble(eng.n, pt, parts, cfg.Seed)
	if err != nil {
		return nil, err
	}
	if out.M() != eng.m {
		return nil, fmt.Errorf("core: edge count changed: %d -> %d", eng.m, out.M())
	}
	if cfg.CheckInvariants {
		if vs := SanitizeGraph(out, baseline()); len(vs) > 0 {
			return nil, fmt.Errorf("core: reassembled graph fails invariant sanitizer: %s", summarize(vs))
		}
		if int64(out.Originals()) != origSum {
			return nil, fmt.Errorf("core: reassembled originals %d disagree with engine counters %d", out.Originals(), origSum)
		}
	}
	res.Graph = out
	res.VisitRate = VisitRate(out.Originals(), eng.m)
	return res, nil
}
