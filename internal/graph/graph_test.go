package graph

import (
	"bytes"
	"math"
	"testing"

	"edgeswitch/internal/rng"
)

// path5 builds the path 0-1-2-3-4.
func path5(t *testing.T) *Graph {
	t.Helper()
	r := rng.New(1)
	g, err := FromEdges(5, []Edge{{0, 1}, {1, 2}, {2, 3}, {3, 4}}, r)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestFromEdgesBasic(t *testing.T) {
	g := path5(t)
	if g.N() != 5 || g.M() != 4 {
		t.Fatalf("n=%d m=%d", g.N(), g.M())
	}
	if !g.HasEdge(Edge{1, 0}) || !g.HasEdge(Edge{0, 1}) {
		t.Fatal("HasEdge should normalize")
	}
	if g.HasEdge(Edge{0, 2}) || g.HasEdge(Edge{4, 4}) {
		t.Fatal("phantom edge")
	}
	if err := g.CheckSimple(); err != nil {
		t.Fatal(err)
	}
}

func TestFromEdgesRejectsLoop(t *testing.T) {
	r := rng.New(1)
	if _, err := FromEdges(3, []Edge{{1, 1}}, r); err == nil {
		t.Fatal("loop accepted")
	}
}

func TestFromEdgesRejectsDuplicate(t *testing.T) {
	r := rng.New(1)
	if _, err := FromEdges(3, []Edge{{0, 1}, {1, 0}}, r); err == nil {
		t.Fatal("duplicate accepted")
	}
}

func TestFromEdgesRejectsOutOfRange(t *testing.T) {
	r := rng.New(1)
	if _, err := FromEdges(3, []Edge{{0, 3}}, r); err == nil {
		t.Fatal("out-of-range accepted")
	}
}

func TestAddRemove(t *testing.T) {
	r := rng.New(2)
	g := New(4)
	if !g.AddEdge(Edge{2, 0}, r) {
		t.Fatal("add failed")
	}
	if g.AddEdge(Edge{0, 2}, r) {
		t.Fatal("duplicate add succeeded")
	}
	if g.M() != 1 || g.Originals() != 1 {
		t.Fatalf("m=%d originals=%d", g.M(), g.Originals())
	}
	g.AddModified(Edge{1, 3}, r)
	if g.Originals() != 1 || g.M() != 2 {
		t.Fatal("modified edge counted as original")
	}
	found, orig := g.RemoveEdge(Edge{0, 2})
	if !found || !orig {
		t.Fatalf("remove = (%v,%v)", found, orig)
	}
	found, orig = g.RemoveEdge(Edge{3, 1})
	if !found || orig {
		t.Fatalf("remove modified = (%v,%v)", found, orig)
	}
	if g.M() != 0 || g.Originals() != 0 {
		t.Fatal("counts wrong after removals")
	}
	if err := g.CheckSimple(); err != nil {
		t.Fatal(err)
	}
}

func TestDegrees(t *testing.T) {
	g := path5(t)
	want := []int{1, 2, 2, 2, 1}
	got := g.Degrees()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Degrees()[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	if g.ReducedDegree(0) != 1 || g.ReducedDegree(4) != 0 {
		t.Fatal("reduced degrees wrong")
	}
}

func TestFullAdjacency(t *testing.T) {
	g := path5(t)
	full := g.FullAdjacency()
	if len(full[0]) != 1 || full[0][0] != 1 {
		t.Fatalf("full[0] = %v", full[0])
	}
	if len(full[2]) != 2 || full[2][0] != 1 || full[2][1] != 3 {
		t.Fatalf("full[2] = %v", full[2])
	}
}

func TestEdgesSortedNormalized(t *testing.T) {
	r := rng.New(3)
	g, err := FromEdges(4, []Edge{{3, 1}, {2, 0}, {1, 0}}, r)
	if err != nil {
		t.Fatal(err)
	}
	es := g.Edges()
	want := []Edge{{0, 1}, {0, 2}, {1, 3}}
	if len(es) != len(want) {
		t.Fatalf("edges %v", es)
	}
	for i := range want {
		if es[i] != want[i] {
			t.Fatalf("Edges()[%d] = %v, want %v", i, es[i], want[i])
		}
	}
}

// TestRandomEdgeUniform draws many edges from a small graph and checks the
// empirical distribution is uniform (chi-square).
func TestRandomEdgeUniform(t *testing.T) {
	r := rng.New(4)
	edges := []Edge{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {2, 3}, {1, 4}, {3, 4}}
	g, err := FromEdges(5, edges, r)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[Edge]int{}
	const draws = 70000
	for i := 0; i < draws; i++ {
		counts[g.RandomEdge(r)]++
	}
	expected := float64(draws) / float64(len(edges))
	chi2 := 0.0
	for _, e := range edges {
		d := float64(counts[e.Norm()]) - expected
		chi2 += d * d / expected
	}
	// 6 dof, 99.9% critical value ~22.46.
	if chi2 > 22.46 {
		t.Fatalf("RandomEdge not uniform: chi2=%f counts=%v", chi2, counts)
	}
}

// TestRandomEdgeAfterMutation ensures sampling stays uniform over the
// *current* edge set after inserts and deletes.
func TestRandomEdgeAfterMutation(t *testing.T) {
	r := rng.New(5)
	g, err := FromEdges(6, []Edge{{0, 1}, {1, 2}, {2, 3}}, r)
	if err != nil {
		t.Fatal(err)
	}
	g.RemoveEdge(Edge{1, 2})
	g.AddModified(Edge{4, 5}, r)
	g.AddModified(Edge{0, 5}, r)
	present := map[Edge]bool{{0, 1}: true, {2, 3}: true, {4, 5}: true, {0, 5}: true}
	counts := map[Edge]int{}
	const draws = 40000
	for i := 0; i < draws; i++ {
		e := g.RandomEdge(r)
		if !present[e] {
			t.Fatalf("sampled non-existent edge %v", e)
		}
		counts[e]++
	}
	expected := float64(draws) / 4
	for e, c := range counts {
		if math.Abs(float64(c)-expected)/expected > 0.1 {
			t.Fatalf("edge %v count %d deviates from %f", e, c, expected)
		}
	}
}

func TestRandomEdgePanicsEmpty(t *testing.T) {
	r := rng.New(6)
	g := New(3)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	g.RandomEdge(r)
}

func TestOriginalsTracking(t *testing.T) {
	g := path5(t)
	r := rng.New(7)
	if g.Originals() != 4 {
		t.Fatalf("originals %d", g.Originals())
	}
	g.RemoveEdge(Edge{0, 1})
	g.AddModified(Edge{0, 1}, r) // same endpoints, now modified
	if g.Originals() != 3 {
		t.Fatalf("originals %d after replace, want 3", g.Originals())
	}
}

func TestClonePreservesEverything(t *testing.T) {
	r := rng.New(8)
	g := path5(t)
	g.RemoveEdge(Edge{1, 2})
	g.AddModified(Edge{0, 4}, r)
	c := g.Clone(r)
	if c.N() != g.N() || c.M() != g.M() || c.Originals() != g.Originals() {
		t.Fatal("clone shape mismatch")
	}
	ge, ce := g.Edges(), c.Edges()
	for i := range ge {
		if ge[i] != ce[i] {
			t.Fatal("clone edges mismatch")
		}
	}
	// Mutating the clone must not affect the original.
	c.RemoveEdge(Edge{0, 4})
	if !g.HasEdge(Edge{0, 4}) {
		t.Fatal("clone shares state with original")
	}
}

func TestEdgeNorm(t *testing.T) {
	if (Edge{3, 1}).Norm() != (Edge{1, 3}) {
		t.Fatal("Norm failed")
	}
	if (Edge{1, 3}).Norm() != (Edge{1, 3}) {
		t.Fatal("Norm changed ordered edge")
	}
	if !(Edge{2, 2}).IsLoop() || (Edge{1, 2}).IsLoop() {
		t.Fatal("IsLoop wrong")
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	r := rng.New(9)
	g := path5(t)
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadEdgeList(&buf, r)
	if err != nil {
		t.Fatal(err)
	}
	if g2.N() != g.N() || g2.M() != g.M() {
		t.Fatalf("round trip shape: n=%d m=%d", g2.N(), g2.M())
	}
	e1, e2 := g.Edges(), g2.Edges()
	for i := range e1 {
		if e1[i] != e2[i] {
			t.Fatal("round trip edges differ")
		}
	}
}

func TestReadEdgeListNoHeader(t *testing.T) {
	r := rng.New(10)
	g, err := ReadEdgeList(bytes.NewBufferString("0 1\n2 1\n"), r)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 3 || g.M() != 2 {
		t.Fatalf("inferred n=%d m=%d", g.N(), g.M())
	}
}

func TestReadEdgeListMalformed(t *testing.T) {
	r := rng.New(11)
	for _, in := range []string{"0\n", "a b\n", "1 x\n"} {
		if _, err := ReadEdgeList(bytes.NewBufferString(in), r); err == nil {
			t.Fatalf("malformed input %q accepted", in)
		}
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	r := rng.New(12)
	g := path5(t)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadBinary(&buf, r)
	if err != nil {
		t.Fatal(err)
	}
	if g2.N() != g.N() || g2.M() != g.M() {
		t.Fatal("binary round trip shape mismatch")
	}
	e1, e2 := g.Edges(), g2.Edges()
	for i := range e1 {
		if e1[i] != e2[i] {
			t.Fatal("binary round trip edges differ")
		}
	}
}

func TestReadBinaryRejectsGarbage(t *testing.T) {
	r := rng.New(13)
	if _, err := ReadBinary(bytes.NewBufferString("not a graph"), r); err == nil {
		t.Fatal("garbage accepted")
	}
}

func BenchmarkRandomEdge(b *testing.B) {
	r := rng.New(14)
	const n = 100000
	g := New(n)
	for i := 0; i < 4*n; i++ {
		e := Edge{Vertex(r.Intn(n)), Vertex(r.Intn(n))}
		if !e.IsLoop() {
			g.AddEdge(e, r)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.RandomEdge(r)
	}
}
