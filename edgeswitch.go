// Package edgeswitch provides parallel and sequential edge switching
// (edge swap / rewiring) for massive simple graphs, reproducing
// "Parallel Algorithms for Switching Edges in Heterogeneous Graphs"
// (Bhuiyan, Khan, Chen, Marathe; JPDC 2016 — the extended version of the
// ICPP 2014 paper "Fast Parallel Algorithms for Edge-Switching to Achieve
// a Target Visit Rate in Heterogeneous Graphs").
//
// An edge switch replaces two random edges (u1,v1), (u2,v2) with
// (u1,v2), (u2,v1) (or (u1,u2), (v1,v2)), preserving every vertex degree.
// Repeated switches randomize a graph within its degree sequence — the
// standard tool for generating random graphs with a prescribed degree
// sequence, studying dynamic networks, and building null models.
//
// The package offers:
//
//   - Run: sequential (Algorithm 1) or distributed-memory parallel (§4–§5)
//     switching, with a target operation count or target visit rate.
//   - Four partitioning schemes (CP, HP-D, HP-M, HP-U) for the parallel
//     engine, with per-rank workload statistics.
//   - Graph generation for all evaluation datasets (Table 2 stand-ins),
//     Havel–Hakimi construction, and RandomGraph — the headline
//     application: a uniform-ish random graph with a given degree sequence.
//   - Graph I/O, clustering/path-length/error-rate metrics re-exported
//     from the internal packages for downstream use.
//
// The parallel engine runs ranks as goroutines over a from-scratch
// message-passing runtime (in-process mailboxes or real loopback TCP),
// preserving the distributed-memory discipline of the paper's MPI
// implementation: ranks own disjoint graph partitions and communicate
// only by message.
package edgeswitch

import (
	"fmt"
	"io"
	"os"
	"time"

	"edgeswitch/internal/core"
	"edgeswitch/internal/gen"
	"edgeswitch/internal/gen/pergen"
	"edgeswitch/internal/graph"
	"edgeswitch/internal/metrics"
	"edgeswitch/internal/rng"
	"edgeswitch/internal/tune"
)

// Re-exported fundamental types.
type (
	// Graph is a simple undirected graph with reduced adjacency lists.
	Graph = graph.Graph
	// Edge is an undirected edge; normalized form has U < V.
	Edge = graph.Edge
	// Vertex is a dense integer vertex label.
	Vertex = graph.Vertex
	// Scheme selects the parallel partitioning scheme.
	Scheme = core.Scheme
	// Algorithm selects the randomization protocol (edge switching or
	// global curveball trades) behind the core engine's Randomizer seam.
	Algorithm = core.Algorithm
	// GenSpec describes a graph for counter-based, communication-free
	// parallel generation (internal/gen/pergen): the graph is a pure,
	// p-invariant function of the spec, so parallel ranks can each build
	// exactly their own partition with no rank-0 materialization and no
	// scatter.
	GenSpec = pergen.Spec
	// GenModel names a pergen-capable generator model.
	GenModel = pergen.Model
	// ContactConfig parameterises the contact/community generators.
	ContactConfig = gen.ContactConfig
)

// Counter-based generator models for GenSpec.Model.
const (
	// GenPA is preferential attachment by recomputation.
	GenPA = pergen.ModelPA
	// GenContact is the community contact network by recomputation.
	GenContact = pergen.ModelContact
)

// Partitioning schemes for Options.Scheme.
const (
	CP  = core.SchemeCP
	HPD = core.SchemeHPD
	HPM = core.SchemeHPM
	HPU = core.SchemeHPU
)

// Randomization algorithms for Options.Algorithm.
const (
	// EdgeSwitch is the paper's protocol: each operation switches the
	// endpoints of two random edges (the default).
	EdgeSwitch = core.AlgoEdgeSwitch
	// Curveball runs global curveball trades: each operation count unit
	// is one global round pairing every vertex and trading the disjoint
	// parts of the paired adjacency lists.
	Curveball = core.AlgoCurveball
)

// Options configures a Run.
type Options struct {
	// Ops is the operation count t: edge switch operations, or global
	// rounds when Algorithm is Curveball. If zero, it is derived from
	// VisitRate.
	Ops int64
	// VisitRate is the target fraction x of edges to modify, used when
	// Ops is zero (t = E[T]/2 per §3.1 for edge switching; the
	// conservative per-round bound of core.CurveballRoundsForVisitRate
	// for curveball, with the run stopping early once the observed rate
	// reaches x). Defaults to 1.
	VisitRate float64
	// Algorithm selects the randomization protocol: EdgeSwitch (the
	// default) or Curveball.
	Algorithm Algorithm
	// Ranks is the number of parallel ranks p. 0 or 1 selects the
	// sequential algorithm.
	Ranks int
	// Scheme is the partitioning scheme for parallel runs (default CP).
	Scheme Scheme
	// StepSize is the parallel step size s (0 = single step; the HP
	// schemes are accurate in one step, CP wants t/100 or so — §5.2).
	StepSize int64
	// Seed makes runs reproducible; same seed, same sequential result.
	Seed uint64
	// UseTCP routes parallel engine traffic over loopback TCP.
	UseTCP bool
	// InPlace lets the sequential path mutate g directly instead of a
	// clone (saves memory on large graphs).
	InPlace bool
	// Gen, when non-nil, generates the input graph from a counter-based
	// spec instead of taking one: Run must then be called with a nil
	// graph. With Ranks > 1 the bootstrap is fully distributed — each
	// rank generates only its own partition (core.Config.DistributedGen)
	// and no rank ever holds the whole graph; sequential runs materialize
	// the identical graph in-process. When Ops is zero, the operation
	// count derives from the spec's deterministic MaxEdges bound, so all
	// ranks agree on t without a collective.
	Gen *GenSpec
	// SpillDir, when non-empty, switches parallel ranks to the tiered
	// out-of-core edge store: each rank keeps its partition in an mmap'd
	// base segment under SpillDir/rank-NNNN plus a bounded in-memory
	// delta overlay of at most max(|E_local|/4, 4096) entries, compacted
	// at step boundaries. Results are bit-identical to in-memory runs
	// wherever those are deterministic. No effect on sequential runs.
	SpillDir string
}

// Report summarizes a Run.
type Report struct {
	// Result is the switched graph.
	Result *Graph
	// Ops, Restarts, Forfeited are operation counters: switches performed
	// for EdgeSwitch, trades executed for Curveball (Restarts and
	// Forfeited are curveball-free concepts and stay 0 there; Forfeited
	// is always 0 except on degenerate tiny inputs).
	Ops, Restarts, Forfeited int64
	// VisitRate is the observed visit rate.
	VisitRate float64
	// Elapsed is the switching wall-clock time.
	Elapsed time.Duration
	// Parallel carries per-rank detail for parallel runs, nil otherwise.
	Parallel *core.Result
}

// TargetOps converts a visit rate into an edge-switch operation count
// (t = E[T]/2).
func TargetOps(m int64, visitRate float64) (int64, error) {
	return core.OpsForVisitRate(m, visitRate)
}

// TargetOpsFor converts a visit rate into the operation count of the
// given algorithm: switch operations for EdgeSwitch, global rounds for
// Curveball.
func TargetOpsFor(algo Algorithm, m int64, visitRate float64) (int64, error) {
	return core.OpsForVisitRateAlgo(algo, m, visitRate)
}

// Run switches edges on g according to opt and returns a report. The
// input graph is never modified unless opt.InPlace is set on a
// sequential run.
func Run(g *Graph, opt Options) (*Report, error) {
	m := int64(0)
	var spec *GenSpec
	switch {
	case opt.Gen != nil && g != nil:
		return nil, fmt.Errorf("edgeswitch: pass either a graph or Options.Gen, not both")
	case opt.Gen != nil && opt.Ranks > 1:
		// The graph is never materialized whole — every rank generates its
		// own partition (see core.Config.DistributedGen).
		sp := *opt.Gen
		if err := sp.Validate(); err != nil {
			return nil, err
		}
		spec, m = &sp, sp.MaxEdges()
	case opt.Gen != nil:
		// Sequential: materialize the identical graph in one piece.
		pg, err := pergen.New(*opt.Gen)
		if err != nil {
			return nil, err
		}
		if g, err = pg.Full(); err != nil {
			return nil, err
		}
		opt.InPlace = true // the materialized graph is ours to mutate
		m = g.M()
	case g == nil:
		return nil, fmt.Errorf("edgeswitch: need a graph or Options.Gen")
	default:
		m = g.M()
	}
	t, targetX, err := targetOps(m, opt)
	if err != nil {
		return nil, err
	}
	if opt.Ranks <= 1 {
		work := g
		if !opt.InPlace {
			work = g.Clone(rng.Split(opt.Seed, 0))
		}
		start := time.Now()
		var st core.SeqStats
		switch opt.Algorithm {
		case Curveball:
			st, err = core.SequentialCurveball(work, t, opt.Seed)
		case EdgeSwitch, "":
			st, err = core.Sequential(work, t, rng.Split(opt.Seed, 1))
		default:
			err = fmt.Errorf("edgeswitch: unknown algorithm %q", opt.Algorithm)
		}
		if err != nil {
			return nil, err
		}
		return &Report{
			Result:    work,
			Ops:       st.Ops,
			Restarts:  st.Restarts,
			VisitRate: st.VisitRate,
			Elapsed:   time.Since(start),
		}, nil
	}
	// With spec set g is nil: the ranks bootstrap from the generator.
	res, err := core.Parallel(g, t, core.Config{
		Ranks:           opt.Ranks,
		Scheme:          opt.Scheme,
		StepSize:        opt.StepSize,
		Seed:            opt.Seed,
		UseTCP:          opt.UseTCP,
		Algorithm:       core.Algorithm(opt.Algorithm),
		TargetVisitRate: targetX,
		DistributedGen:  spec,
		SpillDir:        opt.SpillDir,
	})
	if err != nil {
		return nil, err
	}
	return &Report{
		Result:    res.Graph,
		Ops:       res.Ops,
		Restarts:  res.Restarts,
		Forfeited: res.Forfeited,
		VisitRate: res.VisitRate,
		Elapsed:   res.Elapsed,
		Parallel:  res,
	}, nil
}

// targetOps resolves the operation count from Options (explicit Ops, or
// the per-algorithm visit-rate derivation over m edges). For
// visit-rate-driven curveball runs it also returns the rate as an
// early-stop target: the round bound is conservative, so the engine
// should quit at the first round boundary where the observed rate
// reaches it rather than run the full bound.
func targetOps(m int64, opt Options) (int64, float64, error) {
	if opt.Ops != 0 {
		return opt.Ops, 0, nil
	}
	x := opt.VisitRate
	if x == 0 {
		x = 1
	}
	t, err := core.OpsForVisitRateAlgo(core.Algorithm(opt.Algorithm), m, x)
	if err != nil {
		return 0, 0, err
	}
	if opt.Algorithm == Curveball {
		return t, x, nil
	}
	return t, 0, nil
}

// GenerateSpec materializes the counter-based generator's graph in one
// piece — byte-identical to what any rank count of the distributed
// bootstrap produces for the same spec.
func GenerateSpec(spec GenSpec) (*Graph, error) {
	pg, err := pergen.New(spec)
	if err != nil {
		return nil, err
	}
	return pg.Full()
}

// RunConnected performs t connectivity-preserving edge switch operations
// on a copy of the connected graph g (sequentially): switches that would
// disconnect the graph are rejected and retried, the constrained variant
// §1 mentions (NetworkX's connected double-edge swap). If t is zero it is
// derived from a full visit rate.
func RunConnected(g *Graph, t int64, seed uint64) (*Report, error) {
	if t == 0 {
		var err error
		t, err = core.OpsForVisitRate(g.M(), 1)
		if err != nil {
			return nil, err
		}
	}
	start := time.Now()
	out, st, err := core.SequentialConnected(g, t, rng.Split(seed, 3))
	if err != nil {
		return nil, err
	}
	return &Report{
		Result:   out,
		Ops:      st.Ops,
		Restarts: st.Restarts,
		Elapsed:  time.Since(start),
	}, nil
}

// RunBipartite performs t bipartition-preserving switches (only cross
// switches between side-crossing edges) on a copy of g, whose vertices
// 0..leftSize-1 form one side. This randomizes a bipartite graph within
// its degree sequence — the paper's application [6]. t = 0 derives the
// full-visit-rate operation count.
func RunBipartite(g *Graph, leftSize int, t int64, seed uint64) (*Report, error) {
	if t == 0 {
		var err error
		t, err = core.OpsForVisitRate(g.M(), 1)
		if err != nil {
			return nil, err
		}
	}
	work := g.Clone(rng.Split(seed, 4))
	start := time.Now()
	st, err := core.SequentialBipartite(work, leftSize, t, rng.Split(seed, 5))
	if err != nil {
		return nil, err
	}
	return &Report{
		Result:    work,
		Ops:       st.Ops,
		Restarts:  st.Restarts,
		VisitRate: st.VisitRate,
		Elapsed:   time.Since(start),
	}, nil
}

// RunJointDegree performs t switches preserving the joint degree
// distribution (the multiset of endpoint-degree pairs over edges) on a
// copy of g — the MCMC move of the paper's application [7].
func RunJointDegree(g *Graph, t int64, seed uint64) (*Report, error) {
	work := g.Clone(rng.Split(seed, 6))
	start := time.Now()
	st, err := core.SequentialJointDegree(work, t, rng.Split(seed, 7))
	if err != nil {
		return nil, err
	}
	return &Report{
		Result:    work,
		Ops:       st.Ops,
		Restarts:  st.Restarts,
		VisitRate: st.VisitRate,
		Elapsed:   time.Since(start),
	}, nil
}

// JointDegreeDistribution reports the multiset of endpoint-degree pairs
// over edges (the RunJointDegree invariant), keyed by (min,max) degree.
func JointDegreeDistribution(g *Graph) map[[2]int]int64 {
	return core.JointDegreeDistribution(g)
}

// RandomGraph generates a uniform-ish random simple graph with the given
// degree sequence: Havel–Hakimi construction followed by full edge-switch
// randomization (visit rate 1), the application motivating the paper
// (§1). Set ranks > 1 to randomize in parallel.
func RandomGraph(degrees []int, seed uint64, ranks int) (*Graph, error) {
	if !gen.IsGraphical(degrees) {
		return nil, fmt.Errorf("edgeswitch: degree sequence is not graphical")
	}
	g, err := gen.HavelHakimi(rng.Split(seed, 2), degrees)
	if err != nil {
		return nil, err
	}
	rep, err := Run(g, Options{VisitRate: 1, Ranks: ranks, Seed: seed, InPlace: true})
	if err != nil {
		return nil, err
	}
	return rep.Result, nil
}

// Generate builds one of the paper's evaluation graphs by dataset name
// (miami, newyork, losangeles, flickr, livejournal, smallworld,
// erdosrenyi, pa) at the given scale multiplier.
func Generate(dataset string, scale float64, seed uint64) (*Graph, error) {
	return gen.Dataset(rng.New(seed), dataset, scale)
}

// Datasets lists the available dataset names.
func Datasets() []string { return gen.DatasetNames() }

// TuneStepSize runs the paper's §4.7 step-size selection procedure: it
// probes candidate step sizes on g with the real engines and returns the
// largest one whose error rate against the sequential process stays at
// the sequential noise floor, along with the measured error rates. Tune
// on a representative subsample when g is huge.
func TuneStepSize(g *Graph, t int64, ranks int, scheme Scheme, seed uint64) (*tune.Result, error) {
	return tune.StepSize(g, t, tune.Options{Ranks: ranks, Scheme: scheme, Seed: seed})
}

// ErrorRate measures the paper's similarity metric between two resultant
// graphs (§4.6, eqs. 6–7): both vertex sets are cut into blocks
// consecutive-label blocks and the per-block-pair edge counts compared;
// the result is a percentage of 2m. Use it to compare a parallel result
// against a sequential one — a value near the ER of two independent
// sequential runs means the processes are statistically similar.
func ErrorRate(a, b *Graph, blocks int) (float64, error) {
	return metrics.ErrorRate(a, b, blocks)
}

// ClusteringCoefficient computes the exact average local clustering
// coefficient.
func ClusteringCoefficient(g *Graph) float64 { return metrics.ClusteringCoefficient(g) }

// SampledClusteringCoefficient estimates the average local clustering
// coefficient from a uniform vertex sample, deterministically per seed.
func SampledClusteringCoefficient(g *Graph, samples int, seed uint64) float64 {
	return metrics.SampledClusteringCoefficient(g, samples, rng.New(seed))
}

// AvgShortestPath estimates the average shortest-path distance from
// `sources` BFS samples, deterministically per seed.
func AvgShortestPath(g *Graph, sources int, seed uint64) float64 {
	return metrics.AvgShortestPath(g, sources, rng.New(seed))
}

// SampleSubgraph returns the subgraph induced by k uniform random
// vertices of g, densely relabeled — a representative subsample for
// tuning or metric estimation on huge graphs.
func SampleSubgraph(g *Graph, k int, seed uint64) *Graph {
	return graph.SampleSubgraph(g, k, rng.Split(seed, 8))
}

// NewGraph builds a graph on n vertices from an edge list.
func NewGraph(n int, edges []Edge, seed uint64) (*Graph, error) {
	return graph.FromEdges(n, edges, rng.New(seed))
}

// ReadGraph loads a text edge list (see WriteGraph for the format).
func ReadGraph(r io.Reader, seed uint64) (*Graph, error) {
	return graph.ReadEdgeList(r, rng.New(seed))
}

// WriteGraph writes a graph as a text edge list ("# n m" header plus one
// "u v" line per edge).
func WriteGraph(w io.Writer, g *Graph) error { return graph.WriteEdgeList(w, g) }

// LoadGraphFile reads an edge-list file (binary format if the extension
// is .bin, text otherwise).
func LoadGraphFile(path string, seed uint64) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if len(path) > 4 && path[len(path)-4:] == ".bin" {
		return graph.ReadBinary(f, rng.New(seed))
	}
	return graph.ReadEdgeList(f, rng.New(seed))
}

// SaveGraphFile writes an edge-list file (binary if the extension is
// .bin, text otherwise).
func SaveGraphFile(path string, g *Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if len(path) > 4 && path[len(path)-4:] == ".bin" {
		return graph.WriteBinary(f, g)
	}
	return graph.WriteEdgeList(f, g)
}
