package metrics

import (
	"math"
	"testing"

	"edgeswitch/internal/gen"
	"edgeswitch/internal/graph"
	"edgeswitch/internal/rng"
)

func mustGraph(t *testing.T, n int, edges []graph.Edge) *graph.Graph {
	t.Helper()
	g, err := graph.FromEdges(n, edges, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestEdgeDifferenceIdentical(t *testing.T) {
	g := mustGraph(t, 10, []graph.Edge{{U: 0, V: 1}, {U: 2, V: 3}, {U: 8, V: 9}})
	for _, r := range []int{1, 2, 5, 10} {
		ed, err := EdgeDifference(g, g, r)
		if err != nil {
			t.Fatal(err)
		}
		if ed != 0 {
			t.Fatalf("r=%d: ED(g,g) = %d", r, ed)
		}
	}
}

func TestEdgeDifferenceDisjoint(t *testing.T) {
	// g1 has both edges inside block 0; g2 inside block 1 (r=2, n=10).
	g1 := mustGraph(t, 10, []graph.Edge{{U: 0, V: 1}, {U: 2, V: 3}})
	g2 := mustGraph(t, 10, []graph.Edge{{U: 5, V: 6}, {U: 7, V: 8}})
	ed, err := EdgeDifference(g1, g2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if ed != 4 {
		t.Fatalf("ED = %d, want 4", ed)
	}
	er, err := ErrorRate(g1, g2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(er-100) > 1e-9 {
		t.Fatalf("ER = %f, want 100", er)
	}
}

func TestEdgeDifferenceCrossBlocks(t *testing.T) {
	// One cross edge (block 0 – block 1) in g1 vs same-position within
	// edge in g2.
	g1 := mustGraph(t, 4, []graph.Edge{{U: 0, V: 3}})
	g2 := mustGraph(t, 4, []graph.Edge{{U: 0, V: 1}})
	ed, err := EdgeDifference(g1, g2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if ed != 2 {
		t.Fatalf("ED = %d, want 2", ed)
	}
}

func TestEdgeDifferenceValidation(t *testing.T) {
	g1 := mustGraph(t, 4, nil)
	g2 := mustGraph(t, 5, nil)
	if _, err := EdgeDifference(g1, g2, 2); err == nil {
		t.Fatal("size mismatch accepted")
	}
	if _, err := EdgeDifference(g1, g1, 0); err == nil {
		t.Fatal("r=0 accepted")
	}
	if _, err := ErrorRate(g1, g1, 2); err == nil {
		t.Fatal("empty-graph error rate accepted")
	}
}

func TestClusteringTriangle(t *testing.T) {
	g := mustGraph(t, 3, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 0, V: 2}})
	if c := ClusteringCoefficient(g); math.Abs(c-1) > 1e-12 {
		t.Fatalf("triangle clustering %f, want 1", c)
	}
}

func TestClusteringPath(t *testing.T) {
	g := mustGraph(t, 3, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}})
	if c := ClusteringCoefficient(g); c != 0 {
		t.Fatalf("path clustering %f, want 0", c)
	}
}

func TestClusteringTriangleWithTail(t *testing.T) {
	// Triangle 0-1-2 plus pendant 3 attached to 0.
	g := mustGraph(t, 4, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 0, V: 2}, {U: 0, V: 3}})
	// c(0) = 1/3 (one link among 3 neighbour pairs), c(1)=c(2)=1, c(3)=0.
	want := (1.0/3 + 1 + 1 + 0) / 4
	if c := ClusteringCoefficient(g); math.Abs(c-want) > 1e-12 {
		t.Fatalf("clustering %f, want %f", c, want)
	}
}

func TestSampledClusteringConverges(t *testing.T) {
	r := rng.New(2)
	g, err := gen.Contact(r, gen.ContactConfig{N: 3000, AvgDegree: 20, CommunitySize: 30, WithinFrac: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	exact := ClusteringCoefficient(g)
	approx := SampledClusteringCoefficient(g, 1500, rng.New(3))
	if exact == 0 {
		t.Fatal("exact clustering is 0 — degenerate test")
	}
	if math.Abs(approx-exact)/exact > 0.2 {
		t.Fatalf("sampled %f vs exact %f", approx, exact)
	}
	// Oversampling falls back to exact.
	if full := SampledClusteringCoefficient(g, g.N()+5, rng.New(4)); full != exact {
		t.Fatalf("oversampled %f != exact %f", full, exact)
	}
}

func TestAvgShortestPathPath(t *testing.T) {
	// Path 0-1-2: from each source, BFS distances sum over reached pairs.
	g := mustGraph(t, 3, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}})
	got := AvgShortestPath(g, 3, rng.New(5))
	// All-pairs distances: (0,1)=1 (0,2)=2 (1,2)=1 → avg = 4/3. Sampled
	// sources may repeat, but with every BFS the per-source average is
	// within [1, 1.5]; allow the sampling range.
	if got < 1 || got > 1.5 {
		t.Fatalf("avg path %f outside plausible range", got)
	}
}

func TestAvgShortestPathCompleteGraph(t *testing.T) {
	edges := []graph.Edge{}
	for u := 0; u < 6; u++ {
		for v := u + 1; v < 6; v++ {
			edges = append(edges, graph.Edge{U: graph.Vertex(u), V: graph.Vertex(v)})
		}
	}
	g := mustGraph(t, 6, edges)
	if got := AvgShortestPath(g, 6, rng.New(6)); math.Abs(got-1) > 1e-12 {
		t.Fatalf("complete graph avg path %f, want 1", got)
	}
}

func TestAvgShortestPathEmpty(t *testing.T) {
	g := mustGraph(t, 5, nil)
	if got := AvgShortestPath(g, 3, rng.New(7)); got != 0 {
		t.Fatalf("edgeless avg path %f, want 0", got)
	}
}

func TestLoadImbalance(t *testing.T) {
	perfect := LoadImbalance([]int64{10, 10, 10, 10})
	if math.Abs(perfect.MaxOverMean-1) > 1e-12 || perfect.CV != 0 {
		t.Fatalf("perfect balance misreported: %+v", perfect)
	}
	skew := LoadImbalance([]int64{40, 0, 0, 0})
	if math.Abs(skew.MaxOverMean-4) > 1e-12 {
		t.Fatalf("skewed balance misreported: %+v", skew)
	}
	if z := LoadImbalance(nil); z.MaxOverMean != 0 {
		t.Fatalf("empty loads: %+v", z)
	}
	zero := LoadImbalance([]int64{0, 0})
	if zero.MaxOverMean != 1 {
		t.Fatalf("all-zero loads: %+v", zero)
	}
}

// TestErrorRateRandomVsSelf: two random graphs with the same block mass
// should have a small but positive error rate, and ER must be symmetric
// in magnitude.
func TestErrorRateSymmetricRange(t *testing.T) {
	g1, err := gen.ErdosRenyi(rng.New(10), 1000, 5000)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := gen.ErdosRenyi(rng.New(11), 1000, 5000)
	if err != nil {
		t.Fatal(err)
	}
	er12, err := ErrorRate(g1, g2, 20)
	if err != nil {
		t.Fatal(err)
	}
	er21, err := ErrorRate(g2, g1, 20)
	if err != nil {
		t.Fatal(err)
	}
	if er12 != er21 {
		t.Fatalf("ER not symmetric: %f vs %f", er12, er21)
	}
	if er12 <= 0 || er12 > 20 {
		t.Fatalf("ER between independent ER graphs = %f, expected small positive", er12)
	}
}

func BenchmarkClustering(b *testing.B) {
	g, err := gen.Contact(rng.New(1), gen.ContactConfig{N: 5000, AvgDegree: 20, CommunitySize: 30, WithinFrac: 0.8})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SampledClusteringCoefficient(g, 500, rng.New(uint64(i)))
	}
}
