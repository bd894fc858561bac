package core

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"edgeswitch/internal/graph"
	"edgeswitch/internal/rng"
)

// The degree sequence (2,2,2,2) on four labeled vertices has exactly
// three realizations, the three labeled 4-cycles:
//
//	A: 01 12 23 03    B: 02 12 13 03    C: 01 13 02 23
//
// The edge-switch Markov chain must converge to the uniform distribution
// over {A, B, C} — the property that makes switching a valid random-graph
// sampler. These tests check it for the sequential chain (tight
// chi-square) and the parallel process (looser tolerance).

func cycleID(t *testing.T, g *graph.Graph) string {
	t.Helper()
	key := ""
	for _, e := range g.Edges() {
		key += fmt.Sprintf("%d%d", e.U, e.V)
	}
	switch key {
	case "01031223": // edges 01 03 12 23
		return "A"
	case "02031213":
		return "B"
	case "01021323":
		return "C"
	default:
		t.Fatalf("unexpected C4 realization %q", key)
		return ""
	}
}

func startCycle(t *testing.T, r *rng.RNG) *graph.Graph {
	t.Helper()
	g, err := graph.FromEdges(4, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 0, V: 3}}, r)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestSequentialUniformOverDegreeClass(t *testing.T) {
	r := rng.New(123)
	g := startCycle(t, r)
	counts := map[string]int{}
	const samples = 30000
	const spacing = 6
	for i := 0; i < samples; i++ {
		if _, err := Sequential(g, spacing, r); err != nil {
			t.Fatal(err)
		}
		counts[cycleID(t, g)]++
	}
	expected := float64(samples) / 3
	chi2 := 0.0
	for _, id := range []string{"A", "B", "C"} {
		d := float64(counts[id]) - expected
		chi2 += d * d / expected
	}
	// Samples along one chain are slightly correlated, so allow more
	// slack than the iid 2-dof 99.9% value (13.8).
	if chi2 > 25 {
		t.Fatalf("chain not uniform over degree class: chi2=%.1f counts=%v", chi2, counts)
	}
}

// TestSequentialStationaryFromEachStart: starting from any of the three
// realizations, one switch leads to each other realization with equal
// probability (the chain's transition symmetry).
func TestSequentialTransitionSymmetry(t *testing.T) {
	r := rng.New(9)
	counts := map[string]int{}
	const trials = 20000
	for i := 0; i < trials; i++ {
		g := startCycle(t, r)
		if _, err := Sequential(g, 1, r); err != nil {
			t.Fatal(err)
		}
		counts[cycleID(t, g)]++
	}
	// One switch from A lands on B or C (never back on A: a completed
	// switch always changes the edge set).
	if counts["A"] != 0 {
		t.Fatalf("a completed switch left the graph unchanged: %v", counts)
	}
	ratio := float64(counts["B"]) / float64(counts["C"])
	if math.Abs(ratio-1) > 0.1 {
		t.Fatalf("asymmetric transitions: %v", counts)
	}
}

// Curveball (Carstens et al., arXiv:1804.08487) samples the same
// distribution as edge switching: its trade kernel is symmetric, so the
// chain is uniform over a degree class. C4 alone cannot show a biased
// trade: every trade there has one free neighbour per side, and the
// random order of a trade's pair already makes a coin flip of any fixed
// rule. The class (3,2,2,1,1,1), with 15 labelled realizations, has
// trades with one free neighbour on one side and two on the other, where
// a redistribution that is not uniform over the pool shows as a
// stationary distribution that is not uniform.
var (
	cycleDegrees  = []int{2, 2, 2, 2}
	skewedDegrees = []int{3, 2, 2, 1, 1, 1}
)

// degreeClass enumerates every labelled simple graph with the degree
// sequence deg: the realizations in a fixed order, and the index of each
// by classKey.
func degreeClass(deg []int) ([][]graph.Edge, map[string]int) {
	var pairs []graph.Edge
	for u := range deg {
		for v := u + 1; v < len(deg); v++ {
			pairs = append(pairs, graph.Edge{U: graph.Vertex(u), V: graph.Vertex(v)})
		}
	}
	var reals [][]graph.Edge
	index := map[string]int{}
	for mask := 0; mask < 1<<len(pairs); mask++ {
		d := make([]int, len(deg))
		var es []graph.Edge
		for i, e := range pairs {
			if mask>>i&1 == 1 {
				d[e.U]++
				d[e.V]++
				es = append(es, e)
			}
		}
		if slices.Equal(d, deg) {
			index[fmt.Sprint(es)] = len(reals)
			reals = append(reals, es)
		}
	}
	return reals, index
}

// classKey is the realization g is, as degreeClass indexes it.
func classKey(t *testing.T, g *graph.Graph, index map[string]int) int {
	t.Helper()
	es := g.Edges()
	for i := range es {
		es[i] = es[i].Norm()
	}
	slices.SortFunc(es, func(a, b graph.Edge) int {
		if a.U != b.U {
			return int(a.U) - int(b.U)
		}
		return int(a.V) - int(b.V)
	})
	k, ok := index[fmt.Sprint(es)]
	if !ok {
		t.Fatalf("%v is not in the degree class", es)
	}
	return k
}

func realization(t *testing.T, deg []int, es []graph.Edge) *graph.Graph {
	t.Helper()
	g, err := graph.FromEdges(len(deg), es, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// uniformChi2 runs a chain of samples steps from the first realization
// of deg, counts the realizations it visits, and returns the chi-square
// statistic against the uniform distribution and its degrees of freedom.
func uniformChi2(t *testing.T, deg []int, samples int, step func(g *graph.Graph, seed uint64) *graph.Graph) (chi2 float64, dof int) {
	t.Helper()
	reals, index := degreeClass(deg)
	counts := make([]int, len(reals))
	g := realization(t, deg, reals[0])
	for i := 0; i < samples; i++ {
		g = step(g, uint64(i+1))
		counts[classKey(t, g, index)]++
	}
	expected := float64(samples) / float64(len(reals))
	for _, c := range counts {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	return chi2, len(reals) - 1
}

// chi2Bound is eight standard deviations above the mean of a chi-square
// with dof degrees of freedom: a correct chain stays under it, and a
// biased one over the classes above lands far past it.
func chi2Bound(dof int) float64 { return float64(dof) + 8*math.Sqrt(2*float64(dof)) }

// cbRounds is the curveball rounds between two samples: enough that
// consecutive samples are nearly independent on these small classes.
const cbRounds = 4

func TestSequentialCurveballUniformOverDegreeClass(t *testing.T) {
	for _, deg := range [][]int{cycleDegrees, skewedDegrees} {
		chi2, dof := uniformChi2(t, deg, 3000, func(g *graph.Graph, seed uint64) *graph.Graph {
			if _, err := SequentialCurveball(g, cbRounds, seed); err != nil {
				t.Fatal(err)
			}
			return g
		})
		t.Logf("degrees %v: chi2=%.1f (dof %d)", deg, chi2, dof)
		if chi2 > chi2Bound(dof) {
			t.Errorf("degrees %v: curveball not uniform over the class: chi2=%.1f, bound %.1f", deg, chi2, chi2Bound(dof))
		}
	}
}

// TestParallelCurveballUniformOverDegreeClass runs the same chain through
// the distributed engine at p=2. Each step must also equal the sequential
// reference from the same graph and seed, so the sequential tests'
// kernel is the one the engine runs.
func TestParallelCurveballUniformOverDegreeClass(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("400 small parallel runs")
	}
	chi2, dof := uniformChi2(t, skewedDegrees, 400, func(g *graph.Graph, seed uint64) *graph.Graph {
		res, err := Parallel(g, cbRounds, Config{Ranks: 2, Algorithm: AlgoCurveball, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := SequentialCurveball(g, cbRounds, seed); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(res.Graph.Edges(), g.Edges()) {
			t.Fatalf("seed %d: p=2 result %v differs from the sequential %v", seed, res.Graph.Edges(), g.Edges())
		}
		return res.Graph
	})
	// 400 samples carry less power than the sequential chain's 3000, so
	// the bound is tighter than chi2Bound: a chi-square with 14 degrees
	// of freedom exceeds 45 with probability 4e-5, and 1000 seeded
	// chains of this length peaked at 38.6.
	t.Logf("chi2=%.1f (dof %d)", chi2, dof)
	if chi2 > 45 {
		t.Errorf("p=2 curveball not uniform over the class: chi2=%.1f (dof %d), bound 45", chi2, dof)
	}
}

// The parallel edge-switch chain is sampled every esSpacing operations,
// in steps of esStepSize, so the step quotas and the partner odds follow
// the edge counts closely.
const (
	esSpacing  = 20
	esStepSize = 4
)

// parallelSwitchChi2 is uniformChi2 for the edge-switch chain run through
// the distributed engine at p ranks (HP-D).
func parallelSwitchChi2(t *testing.T, p int, deg []int, samples int) (chi2 float64, dof int) {
	t.Helper()
	return uniformChi2(t, deg, samples, func(g *graph.Graph, seed uint64) *graph.Graph {
		res, err := Parallel(g, esSpacing, Config{Ranks: p, Scheme: SchemeHPD, StepSize: esStepSize, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		return res.Graph
	})
}

// TestParallelUniformOverDegreeClass runs the edge-switch chain through
// the distributed engine over C4 and the skewed class, at p = 2 and at
// p = 4, where a switch whose replacement edges have two remote owners
// commits through a relay chain. Each sample continues from the last.
//
// The bounds come from 20 runs of this chain, each with every seed
// shifted by k·10⁶, on this engine and on the two-phase-commit engine it
// replaced. Three are chi2Bound. The fourth is
// a band: at p = 2 the chain over C4 is not uniform, on either engine
// (chi2 22–79 over 1000 samples). The partner is drawn with odds |E_j|/m
// but takes e2 from the m_j − 1 edges e1 left, so a pair inside one
// partition is drawn m_j/(m_j − 1) times as often as across two. At
// p = 2 one of the two switches out of two of the three 4-cycles is such
// a pair; at p = 4 none is.
func TestParallelUniformOverDegreeClass(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("2900 small parallel runs")
	}
	for _, tc := range []struct {
		p       int
		deg     []int
		samples int
		bound   float64
	}{
		{2, cycleDegrees, 1000, 120},
		{2, skewedDegrees, 600, chi2Bound(14)},
		{4, cycleDegrees, 1000, chi2Bound(2)},
		{4, skewedDegrees, 300, chi2Bound(14)},
	} {
		chi2, dof := parallelSwitchChi2(t, tc.p, tc.deg, tc.samples)
		t.Logf("p=%d degrees %v: chi2=%.1f (dof %d), bound %.1f", tc.p, tc.deg, chi2, dof, tc.bound)
		if chi2 > tc.bound {
			t.Errorf("p=%d degrees %v: switching not uniform over the class: chi2=%.1f, bound %.1f", tc.p, tc.deg, chi2, tc.bound)
		}
	}
}

// TestSequentialCurveballTransitionSymmetry: from every realization, one
// round leads to each other realization as often as the reverse round
// leads back (the kernel is symmetric, which is what makes the uniform
// distribution stationary).
func TestSequentialCurveballTransitionSymmetry(t *testing.T) {
	reals, index := degreeClass(skewedDegrees)
	const trials = 1000
	counts := make([][]int, len(reals))
	for a, es := range reals {
		counts[a] = make([]int, len(reals))
		for i := 0; i < trials; i++ {
			g := realization(t, skewedDegrees, es)
			if _, err := SequentialCurveball(g, 1, uint64(a*trials+i+1)); err != nil {
				t.Fatal(err)
			}
			counts[a][classKey(t, g, index)]++
		}
	}
	// Each pair's forward and backward counts are equal in expectation:
	// sum their squared differences, normalized, into a chi-square.
	var chi2 float64
	dof := 0
	for a := range reals {
		for b := a + 1; b < len(reals); b++ {
			if n := counts[a][b] + counts[b][a]; n > 0 {
				d := float64(counts[a][b] - counts[b][a])
				chi2 += d * d / float64(n)
				dof++
			}
		}
	}
	t.Logf("chi2=%.1f over %d pairs", chi2, dof)
	if chi2 > chi2Bound(dof) {
		t.Fatalf("asymmetric curveball transitions: chi2=%.1f over %d pairs, bound %.1f", chi2, dof, chi2Bound(dof))
	}
}
