package metrics

import (
	"math"
	"testing"

	"edgeswitch/internal/core"
	"edgeswitch/internal/gen"
	"edgeswitch/internal/graph"
	"edgeswitch/internal/rng"
)

func TestAssortativityStarIsNegative(t *testing.T) {
	// A star is maximally disassortative: hubs connect only to leaves.
	var edges []graph.Edge
	for v := 1; v <= 10; v++ {
		edges = append(edges, graph.Edge{U: 0, V: graph.Vertex(v)})
	}
	g := mustGraph(t, 11, edges)
	if a := Assortativity(g); a != -1 {
		t.Fatalf("star assortativity %f, want -1", a)
	}
}

func TestAssortativityRegularUndefined(t *testing.T) {
	// A cycle is regular: zero degree variance, coefficient defined as 0.
	var edges []graph.Edge
	for v := 0; v < 6; v++ {
		edges = append(edges, graph.Edge{U: graph.Vertex(v), V: graph.Vertex((v + 1) % 6)})
	}
	g := mustGraph(t, 6, edges)
	if a := Assortativity(g); a != 0 {
		t.Fatalf("cycle assortativity %f, want 0", a)
	}
}

func TestAssortativityTinyGraph(t *testing.T) {
	g := mustGraph(t, 3, []graph.Edge{{U: 0, V: 1}})
	if a := Assortativity(g); a != 0 {
		t.Fatalf("single-edge assortativity %f", a)
	}
}

// TestAssortativitySwitchingNeutralizes: edge switching drives
// assortativity toward 0 (the configuration-model value).
func TestAssortativitySwitchingNeutralizes(t *testing.T) {
	r := rng.New(1)
	// An assortative construction: connect similar-degree vertices by
	// wiring two cliques of different sizes plus sparse bridges.
	g, err := gen.Contact(r, gen.ContactConfig{N: 2000, AvgDegree: 16, CommunitySize: 25, WithinFrac: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	before := Assortativity(g)
	work := g.Clone(r)
	tOps, err := core.OpsForVisitRate(work.M(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.Sequential(work, tOps, r); err != nil {
		t.Fatal(err)
	}
	after := Assortativity(work)
	if math.Abs(after) > math.Abs(before) && math.Abs(after) > 0.05 {
		t.Fatalf("switching increased |assortativity|: %f -> %f", before, after)
	}
	if math.Abs(after) > 0.08 {
		t.Fatalf("randomized assortativity %f not near 0", after)
	}
}

func TestTriangles(t *testing.T) {
	cases := []struct {
		n     int
		edges []graph.Edge
		want  int64
	}{
		{3, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 0, V: 2}}, 1},
		{3, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}}, 0},
		// K4 has 4 triangles.
		{4, []graph.Edge{{U: 0, V: 1}, {U: 0, V: 2}, {U: 0, V: 3}, {U: 1, V: 2}, {U: 1, V: 3}, {U: 2, V: 3}}, 4},
	}
	for _, c := range cases {
		g := mustGraph(t, c.n, c.edges)
		if got := Triangles(g); got != c.want {
			t.Fatalf("Triangles = %d, want %d", got, c.want)
		}
	}
}

func TestTrianglesMatchesWedgeCount(t *testing.T) {
	r := rng.New(2)
	g, err := gen.ErdosRenyi(r, 300, 1800)
	if err != nil {
		t.Fatal(err)
	}
	// Cross-check against a brute-force count over vertex triples of the
	// full adjacency.
	full := g.FullAdjacency()
	var brute int64
	for u := 0; u < g.N(); u++ {
		for _, v := range full[u] {
			if v <= graph.Vertex(u) {
				continue
			}
			for _, w := range full[v] {
				if w <= v {
					continue
				}
				if g.HasEdge(graph.Edge{U: graph.Vertex(u), V: w}) {
					brute++
				}
			}
		}
	}
	if got := Triangles(g); got != brute {
		t.Fatalf("Triangles = %d, brute force = %d", got, brute)
	}
}

func TestGlobalClustering(t *testing.T) {
	tri := mustGraph(t, 3, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 0, V: 2}})
	if c := GlobalClustering(tri); math.Abs(c-1) > 1e-12 {
		t.Fatalf("triangle transitivity %f", c)
	}
	path := mustGraph(t, 3, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}})
	if c := GlobalClustering(path); c != 0 {
		t.Fatalf("path transitivity %f", c)
	}
	if c := GlobalClustering(mustGraph(t, 2, nil)); c != 0 {
		t.Fatalf("edgeless transitivity %f", c)
	}
}

func TestDegreeDistributionDistance(t *testing.T) {
	a := mustGraph(t, 4, []graph.Edge{{U: 0, V: 1}, {U: 2, V: 3}})
	if d := DegreeDistributionDistance(a, a); d != 0 {
		t.Fatalf("self distance %f", d)
	}
	// Star vs matching on the same vertex count: different distributions.
	star := mustGraph(t, 4, []graph.Edge{{U: 0, V: 1}, {U: 0, V: 2}, {U: 0, V: 3}})
	if d := DegreeDistributionDistance(a, star); d <= 0 || d > 1 {
		t.Fatalf("distance %f out of (0,1]", d)
	}
	// Symmetry.
	if DegreeDistributionDistance(a, star) != DegreeDistributionDistance(star, a) {
		t.Fatal("distance not symmetric")
	}
}

// TestSwitchingPreservesDegreeDistribution ties the new metric to the
// core invariant.
func TestSwitchingPreservesDegreeDistribution(t *testing.T) {
	r := rng.New(3)
	g, err := gen.PrefAttachment(r, 800, 5)
	if err != nil {
		t.Fatal(err)
	}
	work := g.Clone(r)
	if _, err := core.Sequential(work, 4000, r); err != nil {
		t.Fatal(err)
	}
	if d := DegreeDistributionDistance(g, work); d != 0 {
		t.Fatalf("switching changed the degree distribution: distance %f", d)
	}
}
