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
	// GenSpec describes a graph for counter-based parallel generation
	// (internal/gen/pergen): the graph is a pure, p-invariant function of
	// the spec, so parallel ranks generate one share of it each and route
	// the edges to their owners, with no rank-0 materialization and no
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

// Partitioning schemes for Config.Scheme.
const (
	CP  = core.SchemeCP
	HPD = core.SchemeHPD
	HPM = core.SchemeHPM
	HPU = core.SchemeHPU
)

// Randomization algorithms for Config.Algorithm.
const (
	// EdgeSwitch is the paper's protocol: each operation switches the
	// endpoints of two random edges (the default).
	EdgeSwitch = core.AlgoEdgeSwitch
	// Curveball runs global curveball trades: each operation count unit
	// is one global round pairing every vertex and trading the disjoint
	// parts of the paired adjacency lists.
	Curveball = core.AlgoCurveball
)

// Config configures the parallel engine (core.Config): ranks, scheme,
// step size, seed, transport, algorithm, distributed generation, and the
// spill and checkpoint directories.
type Config = core.Config

// Options configures a Run: the engine Config plus the run budget.
type Options struct {
	// Config configures the engine; Run derives its TargetVisitRate from
	// Ops and VisitRate. Ranks 0 or 1 selects the sequential algorithm,
	// which materializes a DistributedGen graph in one piece and refuses
	// UseTCP, SpillDir and checkpointing. With DistributedGen set Run takes
	// a nil graph.
	Config
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
	// InPlace lets the sequential path mutate g directly instead of a
	// clone (saves memory on large graphs).
	InPlace bool
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

// Run switches edges on g according to opt and returns a report. The
// input graph is never modified unless opt.InPlace is set on a
// sequential run.
func Run(g *Graph, opt Options) (*Report, error) {
	spec, sequential := opt.DistributedGen, opt.Ranks <= 1
	var err error
	switch {
	case (spec == nil) == (g == nil):
		return nil, fmt.Errorf("edgeswitch: pass exactly one of a graph and Config.DistributedGen")
	case sequential && (opt.UseTCP || opt.SpillDir != "" || opt.CheckpointDir != "" || opt.Restore):
		return nil, fmt.Errorf("edgeswitch: UseTCP, SpillDir and checkpointing need Ranks > 1")
	case spec != nil && sequential:
		// Materialize the identical graph in one piece, ours to mutate.
		g, err = GenerateSpec(*spec)
		opt.InPlace = true
	case spec != nil:
		// Every rank generates its own partition; no one holds the whole.
		err = spec.Validate()
	}
	if err != nil {
		return nil, err
	}
	m := int64(0)
	if g != nil {
		m = g.M()
	} else {
		m = spec.MaxEdges()
	}
	x := opt.VisitRate
	if x == 0 {
		x = 1
	}
	t, targetX, err := core.Budget(opt.Algorithm, m, opt.Ops, x)
	if err != nil {
		return nil, err
	}
	if sequential {
		work := g
		if !opt.InPlace {
			work = g.Clone(rng.Split(opt.Seed, 0))
		}
		start := time.Now()
		var st core.SeqStats
		if opt.Algorithm == Curveball {
			st, err = core.SequentialCurveballUntil(work, t, opt.Seed, targetX)
		} else {
			st, err = core.Sequential(work, t, rng.Split(opt.Seed, 1))
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
	opt.TargetVisitRate = targetX
	res, err := core.Parallel(g, t, opt.Config)
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
	rep, err := Run(g, Options{Config: Config{Ranks: ranks, Seed: seed}, VisitRate: 1, InPlace: true})
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
