package core

import (
	"math"
	"testing"

	"edgeswitch/internal/gen"
	"edgeswitch/internal/graph"
	"edgeswitch/internal/metrics"
	"edgeswitch/internal/rng"
)

func testGraph(t testing.TB, seed uint64, n int, m int64) *graph.Graph {
	t.Helper()
	g, err := gen.ErdosRenyi(rng.New(seed), n, m)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// checkRun asserts the invariants every parallel run must satisfy.
func checkRun(t *testing.T, g *graph.Graph, res *Result, tOps int64) {
	t.Helper()
	if res.Ops+res.Forfeited != tOps {
		t.Fatalf("ops %d + forfeited %d != t %d", res.Ops, res.Forfeited, tOps)
	}
	if res.Graph == nil {
		t.Fatal("no result graph")
	}
	if res.Graph.N() != g.N() || res.Graph.M() != g.M() {
		t.Fatalf("shape changed: n %d->%d m %d->%d", g.N(), res.Graph.N(), g.M(), res.Graph.M())
	}
	if err := res.Graph.CheckSimple(); err != nil {
		t.Fatalf("result not simple: %v", err)
	}
	if !sameDegrees(degreeMultiset(g), degreeMultiset(res.Graph)) {
		t.Fatal("degree multiset changed")
	}
	var sumOps int64
	for _, o := range res.RankOps {
		sumOps += o
	}
	if sumOps != res.Ops {
		t.Fatalf("rank ops sum %d != total %d", sumOps, res.Ops)
	}
	var sumEdges int64
	for _, c := range res.RankFinalEdges {
		sumEdges += c
	}
	if sumEdges != g.M() {
		t.Fatalf("final rank edges sum %d != m %d", sumEdges, g.M())
	}
}

func TestParallelSingleRank(t *testing.T) {
	g := testGraph(t, 1, 1000, 5000)
	res, err := Parallel(g, 2000, Config{Ranks: 1, Seed: 42, CheckInvariants: true})
	if err != nil {
		t.Fatal(err)
	}
	checkRun(t, g, res, 2000)
	if res.Forfeited != 0 {
		t.Fatalf("forfeited %d on healthy graph", res.Forfeited)
	}
	if res.VisitRate <= 0.3 {
		t.Fatalf("visit rate %v suspiciously low after 2000 ops on 5000 edges", res.VisitRate)
	}
}

func TestParallelAllSchemes(t *testing.T) {
	g := testGraph(t, 2, 2000, 12000)
	for _, scheme := range Schemes() {
		for _, p := range []int{2, 4, 7} {
			res, err := Parallel(g, 3000, Config{Ranks: p, Scheme: scheme, Seed: 7, StepSize: 1000, CheckInvariants: true})
			if err != nil {
				t.Fatalf("%s p=%d: %v", scheme, p, err)
			}
			checkRun(t, g, res, 3000)
			if res.Forfeited != 0 {
				t.Fatalf("%s p=%d: forfeited %d", scheme, p, res.Forfeited)
			}
			if res.Steps != 3 {
				t.Fatalf("%s p=%d: steps %d, want 3", scheme, p, res.Steps)
			}
			if res.SchemeName != string(scheme) {
				t.Fatalf("scheme echoed as %q", res.SchemeName)
			}
		}
	}
}

func TestParallelSingleStep(t *testing.T) {
	g := testGraph(t, 3, 1500, 9000)
	res, err := Parallel(g, 2500, Config{Ranks: 5, Scheme: SchemeHPU, Seed: 11, CheckInvariants: true})
	if err != nil {
		t.Fatal(err)
	}
	checkRun(t, g, res, 2500)
	if res.Steps != 1 {
		t.Fatalf("steps = %d, want 1", res.Steps)
	}
}

func TestParallelOverTCP(t *testing.T) {
	g := testGraph(t, 4, 800, 4000)
	res, err := Parallel(g, 1000, Config{Ranks: 3, Scheme: SchemeHPD, Seed: 13, UseTCP: true, CheckInvariants: true})
	if err != nil {
		t.Fatal(err)
	}
	checkRun(t, g, res, 1000)
}

func TestParallelZeroOps(t *testing.T) {
	g := testGraph(t, 5, 200, 800)
	res, err := Parallel(g, 0, Config{Ranks: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops != 0 || res.Steps != 0 {
		t.Fatalf("zero-op run: %+v", res)
	}
	// Graph must round-trip unchanged, flags intact.
	if res.Graph.Originals() != g.M() {
		t.Fatalf("originals %d, want %d", res.Graph.Originals(), g.M())
	}
}

func TestParallelConfigValidation(t *testing.T) {
	g := testGraph(t, 6, 100, 300)
	if _, err := Parallel(g, 10, Config{Ranks: 0}); err == nil {
		t.Fatal("Ranks=0 accepted")
	}
	if _, err := Parallel(g, -1, Config{Ranks: 2}); err == nil {
		t.Fatal("negative t accepted")
	}
	if _, err := Parallel(g, 10, Config{Ranks: 2, Scheme: "bogus"}); err == nil {
		t.Fatal("bogus scheme accepted")
	}
	tiny := testGraph(t, 7, 5, 1)
	if _, err := Parallel(tiny, 10, Config{Ranks: 2}); err == nil {
		t.Fatal("single-edge graph accepted")
	}
}

func TestParallelInputUnmodified(t *testing.T) {
	g := testGraph(t, 8, 500, 2500)
	before := g.Edges()
	if _, err := Parallel(g, 1000, Config{Ranks: 4, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	after := g.Edges()
	if len(before) != len(after) {
		t.Fatal("input graph mutated")
	}
	for i := range before {
		if before[i] != after[i] {
			t.Fatal("input graph mutated")
		}
	}
}

// TestParallelVisitRate runs the visit-rate pipeline end to end in
// parallel: t derived from x must yield an observed rate near x.
func TestParallelVisitRate(t *testing.T) {
	g := testGraph(t, 9, 3000, 30000)
	for _, x := range []float64{0.5, 1.0} {
		ops, err := OpsForVisitRate(g.M(), x)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Parallel(g, ops, Config{Ranks: 6, Scheme: SchemeHPU, Seed: uint64(17 + int(x*10)), StepSize: ops / 10})
		if err != nil {
			t.Fatal(err)
		}
		checkRun(t, g, res, ops)
		if math.Abs(res.VisitRate-x) > 0.02 {
			t.Fatalf("x=%v: observed %v", x, res.VisitRate)
		}
	}
}

// TestParallelSimilarToSequential is the §4.6 similarity experiment in
// miniature: ER(seq, par) should be comparable to ER(seq, seq). Besides
// p=8 HP-U, it judges p=2 HP-D, where most switches commit through a
// last agent, and p=2 CP, where most complete inline, each in one step
// and in ten.
func TestParallelSimilarToSequential(t *testing.T) {
	base := testGraph(t, 10, 2000, 16000)
	tOps := int64(8000)
	const rBlocks = 10

	seqRun := func(seed uint64) *graph.Graph {
		r := rng.New(seed)
		g := base.Clone(r)
		if _, err := Sequential(g, tOps, r); err != nil {
			t.Fatal(err)
		}
		return g
	}
	s1 := seqRun(100)
	s2 := seqRun(200)
	baseline, err := metrics.ErrorRate(s1, s2, rBlocks)
	if err != nil {
		t.Fatal(err)
	}

	for _, cfg := range []Config{
		{Ranks: 8, Scheme: SchemeHPU, StepSize: tOps / 10},
		{Ranks: 2, Scheme: SchemeHPD},
		{Ranks: 2, Scheme: SchemeHPD, StepSize: tOps / 10},
		{Ranks: 2, Scheme: SchemeCP},
		{Ranks: 2, Scheme: SchemeCP, StepSize: tOps / 10},
	} {
		cfg.Seed = 300
		res, err := Parallel(base, tOps, cfg)
		if err != nil {
			t.Fatal(err)
		}
		er, err := metrics.ErrorRate(s1, res.Graph, rBlocks)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("p=%d %s steps of %d: ER(seq,par) = %.3f, ER(seq,seq) = %.3f", cfg.Ranks, cfg.Scheme, cfg.StepSize, er, baseline)
		// The parallel process must look like another sequential run: its
		// error rate against a sequential result should be within a factor
		// of the seq-vs-seq baseline (generous factor for a small graph).
		if er > 2.5*baseline+0.5 {
			t.Errorf("p=%d %s steps of %d: ER(seq,par) = %f far above baseline ER(seq,seq) = %f",
				cfg.Ranks, cfg.Scheme, cfg.StepSize, er, baseline)
		}
	}
}

// TestParallelTinyGraphTerminates exercises the restart and stall paths:
// dense traffic on a minuscule graph across several ranks must terminate,
// possibly with forfeits, and preserve invariants.
func TestParallelTinyGraphTerminates(t *testing.T) {
	r := rng.New(11)
	g, err := graph.FromEdges(8, []graph.Edge{
		{U: 0, V: 1}, {U: 2, V: 3}, {U: 4, V: 5}, {U: 6, V: 7}, {U: 1, V: 4},
	}, r)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{2, 4, 8} {
		res, err := Parallel(g, 200, Config{Ranks: p, Scheme: SchemeHPD, Seed: uint64(p), StepSize: 50, CheckInvariants: true})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		if res.Ops+res.Forfeited != 200 {
			t.Fatalf("p=%d: ops %d + forfeits %d != 200", p, res.Ops, res.Forfeited)
		}
		if err := res.Graph.CheckSimple(); err != nil {
			t.Fatal(err)
		}
		if !sameDegrees(degreeMultiset(g), degreeMultiset(res.Graph)) {
			t.Fatalf("p=%d: degrees changed", p)
		}
	}
}

// TestParallelMoreRanksThanEdges stresses partitions that start empty.
func TestParallelMoreRanksThanEdges(t *testing.T) {
	r := rng.New(12)
	g, err := graph.FromEdges(30, []graph.Edge{
		{U: 0, V: 1}, {U: 2, V: 3}, {U: 4, V: 5}, {U: 10, V: 20},
	}, r)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Parallel(g, 50, Config{Ranks: 10, Scheme: SchemeHPM, Seed: 5, StepSize: 10, CheckInvariants: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Graph.CheckSimple(); err != nil {
		t.Fatal(err)
	}
	if res.Ops+res.Forfeited != 50 {
		t.Fatalf("accounting: %+v", res)
	}
}

func TestParallelSkipResult(t *testing.T) {
	g := testGraph(t, 13, 500, 2500)
	res, err := Parallel(g, 500, Config{Ranks: 4, Seed: 9, SkipResult: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Graph != nil {
		t.Fatal("SkipResult returned a graph")
	}
	if res.Ops+res.Forfeited != 500 {
		t.Fatalf("accounting: %+v", res)
	}
}

// TestParallelWorkloadRoughlyProportional: on a balanced random graph,
// the per-rank operation counts should be roughly equal (multinomial
// sampling with near-equal probabilities).
func TestParallelWorkloadRoughlyProportional(t *testing.T) {
	g := testGraph(t, 14, 4000, 40000)
	const p = 8
	tOps := int64(8000)
	res, err := Parallel(g, tOps, Config{Ranks: p, Scheme: SchemeHPU, Seed: 21, StepSize: 2000})
	if err != nil {
		t.Fatal(err)
	}
	want := float64(tOps) / p
	for rank, ops := range res.RankOps {
		if math.Abs(float64(ops)-want)/want > 0.25 {
			t.Fatalf("rank %d did %d ops, want ~%f (all: %v)", rank, ops, want, res.RankOps)
		}
	}
}

// TestParallelDifferentSeedsDifferentResults: randomization sanity.
func TestParallelSeedsMatter(t *testing.T) {
	g := testGraph(t, 15, 500, 3000)
	r1, err := Parallel(g, 1000, Config{Ranks: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Parallel(g, 1000, Config{Ranks: 2, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	e1, e2 := r1.Graph.Edges(), r2.Graph.Edges()
	same := 0
	for i := range e1 {
		if i < len(e2) && e1[i] == e2[i] {
			same++
		}
	}
	if same == len(e1) {
		t.Fatal("different seeds produced identical graphs")
	}
}

func BenchmarkParallel8Ranks(b *testing.B) {
	g, err := gen.ErdosRenyi(rng.New(30), 20000, 200000)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Parallel(g, 50000, Config{Ranks: 8, Scheme: SchemeHPU, Seed: uint64(i), SkipResult: true}); err != nil {
			b.Fatal(err)
		}
	}
}
