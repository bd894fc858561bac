package core

import (
	"math"
	"testing"

	"edgeswitch/internal/gen"
	"edgeswitch/internal/graph"
	"edgeswitch/internal/rng"
)

func degreeMultiset(g *graph.Graph) map[int]int {
	out := map[int]int{}
	for _, d := range g.Degrees() {
		out[d]++
	}
	return out
}

func sameDegrees(a, b map[int]int) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

func TestReplacement(t *testing.T) {
	e1 := graph.Edge{U: 1, V: 5}
	e2 := graph.Edge{U: 3, V: 8}
	a, b := replacement(e1, e2, Cross)
	if a != (graph.Edge{U: 1, V: 8}) || b != (graph.Edge{U: 3, V: 5}) {
		t.Fatalf("cross: %v %v", a, b)
	}
	a, b = replacement(e1, e2, Straight)
	if a != (graph.Edge{U: 1, V: 3}) || b != (graph.Edge{U: 5, V: 8}) {
		t.Fatalf("straight: %v %v", a, b)
	}
	// Normalization when endpoints come out reversed.
	a, _ = replacement(graph.Edge{U: 7, V: 9}, graph.Edge{U: 1, V: 2}, Cross)
	if a.U > a.V {
		t.Fatalf("replacement not normalized: %v", a)
	}
}

func TestSwitchInvalid(t *testing.T) {
	cases := []struct {
		e1, e2 graph.Edge
		want   bool
	}{
		{graph.Edge{U: 1, V: 2}, graph.Edge{U: 3, V: 4}, false},
		{graph.Edge{U: 1, V: 2}, graph.Edge{U: 1, V: 4}, true}, // shared U
		{graph.Edge{U: 1, V: 2}, graph.Edge{U: 3, V: 2}, true}, // shared V
		{graph.Edge{U: 1, V: 2}, graph.Edge{U: 2, V: 4}, true}, // e1.V == e2.U
		{graph.Edge{U: 3, V: 4}, graph.Edge{U: 1, V: 3}, true}, // e1.U == e2.V
		{graph.Edge{U: 1, V: 2}, graph.Edge{U: 1, V: 2}, true}, // same edge
	}
	for _, c := range cases {
		if got := switchInvalid(c.e1, c.e2); got != c.want {
			t.Fatalf("switchInvalid(%v,%v) = %v, want %v", c.e1, c.e2, got, c.want)
		}
	}
}

func TestSequentialPreservesInvariants(t *testing.T) {
	r := rng.New(1)
	g, err := gen.ErdosRenyi(r, 2000, 10000)
	if err != nil {
		t.Fatal(err)
	}
	before := degreeMultiset(g)
	st, err := Sequential(g, 5000, r)
	if err != nil {
		t.Fatal(err)
	}
	if st.Ops != 5000 {
		t.Fatalf("ops = %d", st.Ops)
	}
	if g.M() != 10000 {
		t.Fatalf("edge count changed: %d", g.M())
	}
	if err := g.CheckSimple(); err != nil {
		t.Fatal(err)
	}
	if !sameDegrees(before, degreeMultiset(g)) {
		t.Fatal("degree multiset changed")
	}
}

// TestSequentialDegreePreservationProperty drives many small random runs.
func TestSequentialDegreePreservationProperty(t *testing.T) {
	for trial := 0; trial < 25; trial++ {
		r := rng.New(uint64(1000 + trial))
		n := 20 + r.Intn(80)
		m := int64(n) + r.Int64n(int64(n)*2)
		g, err := gen.ErdosRenyi(r, n, m)
		if err != nil {
			t.Fatal(err)
		}
		before := degreeMultiset(g)
		if _, err := Sequential(g, 50+r.Int64n(200), r); err != nil {
			t.Fatal(err)
		}
		if err := g.CheckSimple(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !sameDegrees(before, degreeMultiset(g)) {
			t.Fatalf("trial %d: degrees changed", trial)
		}
	}
}

func TestSequentialZeroOps(t *testing.T) {
	r := rng.New(2)
	g, _ := gen.ErdosRenyi(r, 100, 300)
	st, err := Sequential(g, 0, r)
	if err != nil || st.Ops != 0 || st.VisitRate != 0 {
		t.Fatalf("zero ops: %+v err %v", st, err)
	}
}

func TestSequentialErrors(t *testing.T) {
	r := rng.New(3)
	g, _ := gen.ErdosRenyi(r, 10, 1)
	if _, err := Sequential(g, 5, r); err == nil {
		t.Fatal("single-edge graph accepted")
	}
	g2, _ := gen.ErdosRenyi(r, 10, 20)
	if _, err := Sequential(g2, -1, r); err == nil {
		t.Fatal("negative t accepted")
	}
}

// TestSequentialVisitRateAccuracy is the Table 1 / Fig. 2 experiment in
// miniature: the observed visit rate must track the desired rate closely.
func TestSequentialVisitRateAccuracy(t *testing.T) {
	for _, x := range []float64{0.2, 0.5, 0.8, 1.0} {
		r := rng.New(uint64(100 * (1 + int(10*x))))
		g, err := gen.ErdosRenyi(r, 3000, 30000)
		if err != nil {
			t.Fatal(err)
		}
		st, err := SequentialVisitRate(g, x, r)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(st.VisitRate-x) > 0.02 {
			t.Fatalf("x=%v: observed %v", x, st.VisitRate)
		}
	}
}

// TestSequentialMixes checks the chain actually moves: after enough
// switches, the edge set differs substantially from the start.
func TestSequentialMixes(t *testing.T) {
	r := rng.New(7)
	g, err := gen.ErdosRenyi(r, 1000, 5000)
	if err != nil {
		t.Fatal(err)
	}
	orig := map[graph.Edge]bool{}
	for _, e := range g.Edges() {
		orig[e] = true
	}
	if _, err := Sequential(g, 20000, r); err != nil {
		t.Fatal(err)
	}
	same := 0
	for _, e := range g.Edges() {
		if orig[e] {
			same++
		}
	}
	if same > 1000 {
		t.Fatalf("%d/5000 edges unchanged after heavy switching", same)
	}
}

// TestSequentialUselessAndRestartCounting: on a graph where most pairs
// collide (a star), restarts must be recorded.
func TestSequentialRestartsCounted(t *testing.T) {
	r := rng.New(8)
	// Star plus one far edge: nearly every pair shares the hub.
	edges := []graph.Edge{}
	for v := 1; v <= 20; v++ {
		edges = append(edges, graph.Edge{U: 0, V: graph.Vertex(v)})
	}
	edges = append(edges, graph.Edge{U: 21, V: 22})
	g, err := graph.FromEdges(23, edges, r)
	if err != nil {
		t.Fatal(err)
	}
	st, err := Sequential(g, 10, r)
	if err != nil {
		t.Fatal(err)
	}
	if st.Restarts == 0 {
		t.Fatal("expected restarts on star graph")
	}
	if err := g.CheckSimple(); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSequential(b *testing.B) {
	r := rng.New(9)
	g, err := gen.ErdosRenyi(r, 50000, 500000)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Sequential(g, 100000, r); err != nil {
			b.Fatal(err)
		}
	}
}

// TestSequentialDeterministic pins Algorithm 1's output for one graph and
// seed: two runs must agree with each other and with the recorded edge
// fingerprint and counters. Every other sequential test checks a property
// (degrees, simplicity, visit rate) that a different but valid chain also
// has; this one fails when any draw stops coming from the seeded stream,
// or when a change moves that stream's position.
func TestSequentialDeterministic(t *testing.T) {
	const wantHash = uint64(0xa2cfe7f766f7305e)
	wantStats := SeqStats{Ops: 3000, Restarts: 122, VisitRate: 0.9455}
	run := func() (uint64, SeqStats) {
		g, err := gen.ErdosRenyi(rng.New(11), 500, 2000)
		if err != nil {
			t.Fatal(err)
		}
		st, err := Sequential(g, 3000, rng.New(12))
		if err != nil {
			t.Fatal(err)
		}
		return graphEdgeHash(g), st
	}
	h1, st1 := run()
	h2, st2 := run()
	if h1 != h2 || st1 != st2 {
		t.Fatalf("two runs differ: %016x %+v vs %016x %+v", h1, st1, h2, st2)
	}
	if h1 != wantHash || st1 != wantStats {
		t.Fatalf("got hash %016x, %+v; want %016x, %+v", h1, st1, wantHash, wantStats)
	}
}
