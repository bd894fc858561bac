package gen

import (
	"math"
	"testing"

	"edgeswitch/internal/graph"
	"edgeswitch/internal/rng"
)

func TestErdosRenyiShape(t *testing.T) {
	r := rng.New(1)
	g, err := ErdosRenyi(r, 1000, 5000)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 1000 || g.M() != 5000 {
		t.Fatalf("n=%d m=%d", g.N(), g.M())
	}
	if err := g.CheckSimple(); err != nil {
		t.Fatal(err)
	}
}

func TestErdosRenyiDense(t *testing.T) {
	r := rng.New(2)
	// Complete graph on 20 vertices.
	g, err := ErdosRenyi(r, 20, 190)
	if err != nil {
		t.Fatal(err)
	}
	if g.M() != 190 {
		t.Fatalf("m=%d", g.M())
	}
	if _, err := ErdosRenyi(r, 20, 191); err == nil {
		t.Fatal("overfull m accepted")
	}
}

func TestErdosRenyiDeterministic(t *testing.T) {
	g1, _ := ErdosRenyi(rng.New(7), 200, 800)
	g2, _ := ErdosRenyi(rng.New(7), 200, 800)
	e1, e2 := g1.Edges(), g2.Edges()
	for i := range e1 {
		if e1[i] != e2[i] {
			t.Fatal("same seed produced different graphs")
		}
	}
}

func TestSmallWorldShape(t *testing.T) {
	r := rng.New(3)
	g, err := SmallWorld(r, 1000, 10, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 1000 {
		t.Fatalf("n=%d", g.N())
	}
	// Ring lattice has exactly n*k/2 edges; rewiring preserves or
	// slightly reduces the count (skipped rewires never remove edges).
	if g.M() != 5000 {
		t.Fatalf("m=%d, want 5000", g.M())
	}
	if err := g.CheckSimple(); err != nil {
		t.Fatal(err)
	}
}

func TestSmallWorldValidation(t *testing.T) {
	r := rng.New(4)
	if _, err := SmallWorld(r, 10, 3, 0.1); err == nil {
		t.Fatal("odd k accepted")
	}
	if _, err := SmallWorld(r, 10, 10, 0.1); err == nil {
		t.Fatal("k >= n accepted")
	}
	if _, err := SmallWorld(r, 10, 4, 1.5); err == nil {
		t.Fatal("beta > 1 accepted")
	}
}

func TestSmallWorldBetaZeroIsLattice(t *testing.T) {
	r := rng.New(5)
	g, err := SmallWorld(r, 50, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < 50; u++ {
		for j := 1; j <= 2; j++ {
			if !g.HasEdge(graph.Edge{U: graph.Vertex(u), V: graph.Vertex((u + j) % 50)}) {
				t.Fatalf("lattice edge (%d,%d) missing", u, (u+j)%50)
			}
		}
	}
}

func TestPrefAttachmentShape(t *testing.T) {
	r := rng.New(6)
	g, err := PrefAttachment(r, 2000, 10)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 2000 {
		t.Fatalf("n=%d", g.N())
	}
	// Seed clique d+1 gives d(d+1)/2 edges; every later vertex adds d.
	want := int64(10*11/2 + (2000-11)*10)
	if g.M() != want {
		t.Fatalf("m=%d, want %d", g.M(), want)
	}
	if err := g.CheckSimple(); err != nil {
		t.Fatal(err)
	}
	// Minimum degree is d.
	for _, d := range g.Degrees() {
		if d < 10 {
			t.Fatalf("degree %d below d", d)
		}
	}
}

func TestPrefAttachmentHeavyTail(t *testing.T) {
	r := rng.New(7)
	g, err := PrefAttachment(r, 5000, 5)
	if err != nil {
		t.Fatal(err)
	}
	degs := g.Degrees()
	maxDeg := 0
	for _, d := range degs {
		if d > maxDeg {
			maxDeg = d
		}
	}
	avg := 2 * float64(g.M()) / float64(g.N())
	if float64(maxDeg) < 8*avg {
		t.Fatalf("max degree %d not heavy-tailed (avg %.1f)", maxDeg, avg)
	}
}

func TestPrefAttachmentValidation(t *testing.T) {
	r := rng.New(8)
	if _, err := PrefAttachment(r, 5, 5); err == nil {
		t.Fatal("n <= d accepted")
	}
	if _, err := PrefAttachment(r, 5, 0); err == nil {
		t.Fatal("d < 1 accepted")
	}
}

func TestHolmeKimClustering(t *testing.T) {
	r := rng.New(9)
	plain, err := PrefAttachment(r, 3000, 5)
	if err != nil {
		t.Fatal(err)
	}
	hk, err := HolmeKim(rng.New(9), 3000, 5, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	if err := hk.CheckSimple(); err != nil {
		t.Fatal(err)
	}
	cPlain := roughClustering(plain)
	cHK := roughClustering(hk)
	if cHK < 2*cPlain {
		t.Fatalf("triad formation did not raise clustering: plain %f, hk %f", cPlain, cHK)
	}
}

func TestHolmeKimValidation(t *testing.T) {
	if _, err := HolmeKim(rng.New(1), 100, 3, 1.4); err == nil {
		t.Fatal("pt > 1 accepted")
	}
}

// roughClustering computes the global clustering (transitivity) over a
// sample of vertices — enough for monotone comparisons in tests.
func roughClustering(g *graph.Graph) float64 {
	full := g.FullAdjacency()
	var tri, wedges float64
	for u := range full {
		nb := full[u]
		if len(nb) < 2 {
			continue
		}
		limit := len(nb)
		if limit > 50 {
			limit = 50
		}
		for i := 0; i < limit; i++ {
			for j := i + 1; j < limit; j++ {
				wedges++
				if g.HasEdge(graph.Edge{U: nb[i], V: nb[j]}) {
					tri++
				}
			}
		}
	}
	if wedges == 0 {
		return 0
	}
	return tri / wedges
}

func TestContactShapeAndClustering(t *testing.T) {
	r := rng.New(10)
	g, err := Contact(r, ContactConfig{N: 5000, AvgDegree: 30, CommunitySize: 40, WithinFrac: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 5000 {
		t.Fatalf("n=%d", g.N())
	}
	avg := 2 * float64(g.M()) / float64(g.N())
	if math.Abs(avg-30) > 1.5 {
		t.Fatalf("average degree %f, want ~30", avg)
	}
	if err := g.CheckSimple(); err != nil {
		t.Fatal(err)
	}
	// Community structure must yield visible clustering versus ER.
	er, err := ErdosRenyi(rng.New(10), 5000, g.M())
	if err != nil {
		t.Fatal(err)
	}
	if c, ce := roughClustering(g), roughClustering(er); c < 5*ce {
		t.Fatalf("contact clustering %f not far above ER %f", c, ce)
	}
}

func TestContactValidation(t *testing.T) {
	r := rng.New(11)
	bad := []ContactConfig{
		{N: 2, AvgDegree: 1, CommunitySize: 4, WithinFrac: 0.5},
		{N: 100, AvgDegree: 0, CommunitySize: 4, WithinFrac: 0.5},
		{N: 100, AvgDegree: 200, CommunitySize: 4, WithinFrac: 0.5},
		{N: 100, AvgDegree: 10, CommunitySize: 1, WithinFrac: 0.5},
		{N: 100, AvgDegree: 10, CommunitySize: 4, WithinFrac: 1.5},
	}
	for _, cfg := range bad {
		if _, err := Contact(r, cfg); err == nil {
			t.Fatalf("bad config %+v accepted", cfg)
		}
	}
}

func TestIsGraphical(t *testing.T) {
	cases := []struct {
		ds   []int
		want bool
	}{
		{[]int{}, true},
		{[]int{0}, true},
		{[]int{1}, false},          // odd sum
		{[]int{1, 1}, true},        // single edge
		{[]int{2, 2, 2}, true},     // triangle
		{[]int{3, 3, 3, 3}, true},  // K4
		{[]int{4, 1, 1, 1}, false}, // degree exceeds n-1... (4 > 3)
		{[]int{3, 1, 1, 1}, true},  // star
		{[]int{3, 3, 1, 1}, false}, // fails Erdős–Gallai
		{[]int{2, 2, 1, 1}, true},  // path
	}
	for _, c := range cases {
		if got := IsGraphical(c.ds); got != c.want {
			t.Fatalf("IsGraphical(%v) = %v, want %v", c.ds, got, c.want)
		}
	}
}

func TestHavelHakimiRealizesSequence(t *testing.T) {
	r := rng.New(12)
	seqs := [][]int{
		{2, 2, 2},
		{3, 3, 3, 3},
		{3, 1, 1, 1},
		{2, 2, 1, 1},
		{5, 4, 4, 3, 3, 2, 2, 1},
	}
	for _, ds := range seqs {
		g, err := HavelHakimi(r, ds)
		if err != nil {
			t.Fatalf("HavelHakimi(%v): %v", ds, err)
		}
		if err := g.CheckSimple(); err != nil {
			t.Fatal(err)
		}
		got := g.Degrees()
		for i, d := range ds {
			if got[i] != d {
				t.Fatalf("sequence %v: vertex %d has degree %d", ds, i, got[i])
			}
		}
	}
}

func TestHavelHakimiRejectsNonGraphical(t *testing.T) {
	r := rng.New(13)
	for _, ds := range [][]int{{1}, {3, 3, 1, 1}, {4, 1, 1, 1, 1}} {
		if IsGraphical(ds) {
			continue // only test non-graphical inputs
		}
		if _, err := HavelHakimi(r, ds); err == nil {
			t.Fatalf("non-graphical %v accepted", ds)
		}
	}
}

func TestHavelHakimiMatchesGeneratedGraph(t *testing.T) {
	r := rng.New(14)
	g, err := PrefAttachment(r, 500, 4)
	if err != nil {
		t.Fatal(err)
	}
	ds := g.Degrees()
	if !IsGraphical(ds) {
		t.Fatal("real graph's degree sequence reported non-graphical")
	}
	h, err := HavelHakimi(r, ds)
	if err != nil {
		t.Fatal(err)
	}
	hd := h.Degrees()
	for i := range ds {
		if hd[i] != ds[i] {
			t.Fatalf("vertex %d: degree %d, want %d", i, hd[i], ds[i])
		}
	}
}

func TestAdversarialRelabel(t *testing.T) {
	r := rng.New(15)
	g, err := PrefAttachment(r, 1000, 5)
	if err != nil {
		t.Fatal(err)
	}
	const p, hot = 8, 3
	adv, err := AdversarialRelabel(r, g, p, hot)
	if err != nil {
		t.Fatal(err)
	}
	if adv.N() != g.N() || adv.M() != g.M() {
		t.Fatal("relabel changed graph size")
	}
	// Degree multiset preserved.
	if !sameMultiset(g.Degrees(), adv.Degrees()) {
		t.Fatal("relabel changed degree multiset")
	}
	// The hot rank (labels ≡ hot mod p) must own far more edge mass than
	// an average rank.
	degs := adv.Degrees()
	mass := make([]int64, p)
	for v, d := range degs {
		mass[v%p] += int64(d)
	}
	avgOther := int64(0)
	for k := 0; k < p; k++ {
		if k != hot {
			avgOther += mass[k]
		}
	}
	avgOther /= int64(p - 1)
	if mass[hot] < 2*avgOther {
		t.Fatalf("hot rank mass %d not dominant (others avg %d)", mass[hot], avgOther)
	}
}

func TestAdversarialRelabelValidation(t *testing.T) {
	r := rng.New(16)
	g, _ := ErdosRenyi(r, 50, 100)
	if _, err := AdversarialRelabel(r, g, 1, 0); err == nil {
		t.Fatal("p=1 accepted")
	}
	if _, err := AdversarialRelabel(r, g, 4, 4); err == nil {
		t.Fatal("hotRank out of range accepted")
	}
}

func TestShuffleLabelsPreservesStructure(t *testing.T) {
	r := rng.New(17)
	g, _ := ErdosRenyi(r, 300, 900)
	s, err := ShuffleLabels(r, g)
	if err != nil {
		t.Fatal(err)
	}
	if s.N() != g.N() || s.M() != g.M() {
		t.Fatal("shuffle changed size")
	}
	if !sameMultiset(g.Degrees(), s.Degrees()) {
		t.Fatal("shuffle changed degree multiset")
	}
}

func sameMultiset(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	count := map[int]int{}
	for _, x := range a {
		count[x]++
	}
	for _, x := range b {
		count[x]--
	}
	for _, c := range count {
		if c != 0 {
			return false
		}
	}
	return true
}

func TestRMATShape(t *testing.T) {
	r := rng.New(20)
	g, err := RMAT(r, 10, 5000, 0.57, 0.19, 0.19)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 1024 || g.M() != 5000 {
		t.Fatalf("n=%d m=%d", g.N(), g.M())
	}
	if err := g.CheckSimple(); err != nil {
		t.Fatal(err)
	}
	// Skewed parameters concentrate mass on low labels: the max degree
	// must far exceed the average.
	st := 0
	for _, d := range g.Degrees() {
		if d > st {
			st = d
		}
	}
	avg := 2 * float64(g.M()) / float64(g.N())
	if float64(st) < 4*avg {
		t.Fatalf("R-MAT max degree %d not skewed (avg %.1f)", st, avg)
	}
}

func TestRMATUniformParamsActLikeER(t *testing.T) {
	r := rng.New(21)
	g, err := RMAT(r, 9, 2000, 0.25, 0.25, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	st := 0
	for _, d := range g.Degrees() {
		if d > st {
			st = d
		}
	}
	avg := 2 * float64(g.M()) / float64(g.N())
	// Uniform quadrants should not produce extreme hubs.
	if float64(st) > 6*avg {
		t.Fatalf("uniform R-MAT produced hub of degree %d (avg %.1f)", st, avg)
	}
}

func TestRMATValidation(t *testing.T) {
	r := rng.New(22)
	if _, err := RMAT(r, 0, 10, 0.5, 0.2, 0.2); err == nil {
		t.Fatal("scale 0 accepted")
	}
	if _, err := RMAT(r, 40, 10, 0.5, 0.2, 0.2); err == nil {
		t.Fatal("scale 40 accepted")
	}
	if _, err := RMAT(r, 5, 10, 0.8, 0.2, 0.2); err == nil {
		t.Fatal("probabilities summing over 1 accepted")
	}
	if _, err := RMAT(r, 3, 1000, 0.25, 0.25, 0.25); err == nil {
		t.Fatal("overfull m accepted")
	}
}

func TestDatasetRegistry(t *testing.T) {
	if len(DatasetNames()) != 8 {
		t.Fatalf("expected 8 datasets, got %v", DatasetNames())
	}
	if _, err := LookupDataset("miami"); err != nil {
		t.Fatal(err)
	}
	if _, err := LookupDataset("MIAMI"); err != nil {
		t.Fatal("case-insensitive lookup failed")
	}
	if _, err := LookupDataset("nonexistent"); err == nil {
		t.Fatal("unknown dataset accepted")
	}
	if len(DefaultDatasets()) != 8 {
		t.Fatal("default dataset list wrong")
	}
}

func TestDatasetBuildSmall(t *testing.T) {
	for _, name := range DatasetNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			r := rng.New(100)
			g, err := Dataset(r, name, 0.02)
			if err != nil {
				t.Fatal(err)
			}
			if g.N() < 16 || g.M() == 0 {
				t.Fatalf("%s: n=%d m=%d", name, g.N(), g.M())
			}
			if err := g.CheckSimple(); err != nil {
				t.Fatal(err)
			}
			spec, _ := LookupDataset(name)
			avg := 2 * float64(g.M()) / float64(g.N())
			// Average degree should be in the ballpark of the spec
			// (generous tolerance: tiny scales distort PA cliques etc.)
			if avg < spec.AvgDeg/3 || avg > spec.AvgDeg*3 {
				t.Fatalf("%s: avg degree %f vs spec %f", name, avg, spec.AvgDeg)
			}
		})
	}
}

func BenchmarkPrefAttachment(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := rng.New(uint64(i))
		if _, err := PrefAttachment(r, 20000, 10); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkContact(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := rng.New(uint64(i))
		if _, err := Contact(r, ContactConfig{N: 10000, AvgDegree: 30, CommunitySize: 40, WithinFrac: 0.8}); err != nil {
			b.Fatal(err)
		}
	}
}
