package pergen

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"testing"

	"edgeswitch/internal/gen"
	"edgeswitch/internal/graph"
	"edgeswitch/internal/partition"
	"edgeswitch/internal/rng"
)

func paSpec(seed uint64) Spec {
	return Spec{Model: ModelPA, Seed: seed, N: 3000, D: 4}
}

func contactSpec(seed uint64) Spec {
	return Spec{Model: ModelContact, Seed: seed, N: 3000,
		Contact: gen.ContactConfig{AvgDegree: 8, CommunitySize: 25, WithinFrac: 0.7}}
}

func edgeSet(t *testing.T, g *Gen) map[graph.Edge]bool {
	t.Helper()
	set := make(map[graph.Edge]bool)
	g.Edges(func(e graph.Edge) {
		if e.U >= e.V {
			t.Fatalf("edge %v not normalized", e)
		}
		set[e] = true
	})
	return set
}

func TestValidate(t *testing.T) {
	bad := []Spec{
		{},
		{Model: "rmat", N: 100, D: 2},
		{Model: ModelPA, N: 3, D: 3},
		{Model: ModelPA, N: 100, D: 0},
		{Model: ModelContact, N: 2},
		{Model: ModelContact, N: 100, Contact: gen.ContactConfig{AvgDegree: 0, CommunitySize: 10}},
		{Model: ModelContact, N: 100, Contact: gen.ContactConfig{AvgDegree: 8, CommunitySize: 1}},
		{Model: ModelContact, N: 100, Contact: gen.ContactConfig{AvgDegree: 8, CommunitySize: 10, WithinFrac: 1.5}},
	}
	for _, sp := range bad {
		if _, err := New(sp); err == nil {
			t.Errorf("New(%+v) accepted invalid spec", sp)
		}
	}
	for _, sp := range []Spec{paSpec(1), contactSpec(1)} {
		if _, err := New(sp); err != nil {
			t.Errorf("New(%+v): %v", sp, err)
		}
	}
}

// TestSpecFor pins the CLIs' flag mapping: the spec every -gen/-pergen
// flag set denotes, and that a model it does not know is refused.
func TestSpecFor(t *testing.T) {
	cases := []struct {
		model string
		n, d  int
		want  Spec
		ok    bool
	}{
		{"pa", 500, 4, Spec{Model: ModelPA, Seed: 7, N: 500, D: 4}, true},
		{"contact", 600, 6, Spec{Model: ModelContact, Seed: 7, N: 600,
			Contact: gen.ContactConfig{AvgDegree: 6, CommunitySize: 40, WithinFrac: 0.8}}, true},
		{"pa", 4, 4, Spec{Model: ModelPA, Seed: 7, N: 4, D: 4}, false},
		{"er", 500, 4, Spec{Model: "er", Seed: 7, N: 500}, false},
		{"", 500, 4, Spec{Seed: 7, N: 500}, false},
	}
	for _, c := range cases {
		got, err := SpecFor(c.model, c.n, c.d, 7)
		if got != c.want {
			t.Errorf("SpecFor(%q, %d, %d) = %+v, want %+v", c.model, c.n, c.d, got, c.want)
		}
		if (err == nil) != c.ok {
			t.Errorf("SpecFor(%q, %d, %d): err = %v, want ok=%v", c.model, c.n, c.d, err, c.ok)
		}
	}
}

func TestDeterminism(t *testing.T) {
	for _, sp := range []Spec{paSpec(42), contactSpec(42)} {
		a, err := New(sp)
		if err != nil {
			t.Fatal(err)
		}
		b, err := New(sp)
		if err != nil {
			t.Fatal(err)
		}
		var ea, eb []graph.Edge
		a.Edges(func(e graph.Edge) { ea = append(ea, e) })
		b.Edges(func(e graph.Edge) { eb = append(eb, e) })
		if len(ea) != len(eb) {
			t.Fatalf("%s: edge counts differ: %d vs %d", sp.Model, len(ea), len(eb))
		}
		for i := range ea {
			if ea[i] != eb[i] {
				t.Fatalf("%s: edge %d differs: %v vs %v", sp.Model, i, ea[i], eb[i])
			}
		}
		// A different seed is a different graph.
		sp2 := sp
		sp2.Seed++
		c, err := New(sp2)
		if err != nil {
			t.Fatal(err)
		}
		diff := false
		i := 0
		c.Edges(func(e graph.Edge) {
			if i < len(ea) && ea[i] != e {
				diff = true
			}
			i++
		})
		if !diff && i == len(ea) {
			t.Fatalf("%s: seeds %d and %d generated identical graphs", sp.Model, sp.Seed, sp2.Seed)
		}
	}
}

// TestPInvariance is the tentpole contract: the union of PartitionEdges
// over the ranks of ANY partitioner at ANY p is exactly the Full edge
// set, and no edge is owned twice.
func TestPInvariance(t *testing.T) {
	for _, sp := range []Spec{paSpec(7), contactSpec(7)} {
		g, err := New(sp)
		if err != nil {
			t.Fatal(err)
		}
		want := edgeSet(t, g)
		full, err := g.Full()
		if err != nil {
			t.Fatal(err)
		}
		if int(full.M()) != len(want) {
			t.Fatalf("%s: Full has %d edges, enumeration set has %d", sp.Model, full.M(), len(want))
		}
		for _, p := range []int{1, 2, 8} {
			for _, pt := range testPartitioners(t, g, p) {
				got := make(map[graph.Edge]bool)
				for rank := 0; rank < p; rank++ {
					g.PartitionEdges(pt, rank, func(e graph.Edge) {
						if pt.Owner(e.U) != rank {
							t.Fatalf("%s/%s p=%d: rank %d emitted foreign edge %v", sp.Model, pt.Name(), p, rank, e)
						}
						got[e] = true
					})
				}
				if len(got) != len(want) {
					t.Fatalf("%s/%s p=%d: union has %d edges, want %d", sp.Model, pt.Name(), p, len(got), len(want))
				}
				for e := range want {
					if !got[e] {
						t.Fatalf("%s/%s p=%d: edge %v missing from union", sp.Model, pt.Name(), p, e)
					}
				}
			}
		}
	}
}

func testPartitioners(t *testing.T, g *Gen, p int) []partition.Partitioner {
	t.Helper()
	cp, err := partition.NewCPFromReduced(g.ReducedDegrees(), p)
	if err != nil {
		t.Fatal(err)
	}
	hpd, err := partition.NewHPD(p)
	if err != nil {
		t.Fatal(err)
	}
	hpm, err := partition.NewHPM(p)
	if err != nil {
		t.Fatal(err)
	}
	hpu, err := partition.NewHPUFixed(p, 0x51a7b3c9d, 0x1234567)
	if err != nil {
		t.Fatal(err)
	}
	return []partition.Partitioner{cp, hpd, hpm, hpu}
}

func TestCPFromReducedMatchesGraphCP(t *testing.T) {
	g, err := New(paSpec(13))
	if err != nil {
		t.Fatal(err)
	}
	full, err := g.Full()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{1, 2, 8} {
		a, err := partition.NewCPFromReduced(g.ReducedDegrees(), p)
		if err != nil {
			t.Fatal(err)
		}
		b, err := partition.NewCP(full, p)
		if err != nil {
			t.Fatal(err)
		}
		for v := graph.Vertex(0); int(v) < full.N(); v++ {
			if a.Owner(v) != b.Owner(v) {
				t.Fatalf("p=%d: CPFromReduced and CP disagree at vertex %d: %d vs %d", p, v, a.Owner(v), b.Owner(v))
			}
		}
	}
}

func TestFullIsSimpleAndSized(t *testing.T) {
	for _, sp := range []Spec{paSpec(3), contactSpec(3)} {
		g, err := New(sp)
		if err != nil {
			t.Fatal(err)
		}
		full, err := g.Full()
		if err != nil {
			t.Fatal(err)
		}
		if err := full.CheckSimple(); err != nil {
			t.Fatalf("%s: %v", sp.Model, err)
		}
		max := sp.MaxEdges()
		// Dropped PA slots and collapsed contact cross duplicates cost a
		// handful of edges at most.
		if full.M() < max-max/100 || full.M() > max {
			t.Fatalf("%s: M = %d, want within 1%% below MaxEdges = %d", sp.Model, full.M(), max)
		}
	}
}

// ksStat computes the Kolmogorov–Smirnov statistic between the degree
// distributions of two graphs.
func ksStat(a, b *graph.Graph) float64 {
	da, db := a.Degrees(), b.Degrees()
	sort.Ints(da)
	sort.Ints(db)
	maxDeg := da[len(da)-1]
	if m := db[len(db)-1]; m > maxDeg {
		maxDeg = m
	}
	cdf := func(sorted []int, x int) float64 {
		return float64(sort.SearchInts(sorted, x+1)) / float64(len(sorted))
	}
	worst := 0.0
	for x := 0; x <= maxDeg; x++ {
		if d := math.Abs(cdf(da, x) - cdf(db, x)); d > worst {
			worst = d
		}
	}
	return worst
}

// TestPADegreeDistributionMatchesSequential checks the recomputation
// port samples the same model as gen.PrefAttachment: the KS statistic
// between their degree distributions stays within the band two
// independent runs of the sequential generator occupy.
func TestPADegreeDistributionMatchesSequential(t *testing.T) {
	const n, d = 20000, 4
	g, err := New(Spec{Model: ModelPA, Seed: 5, N: n, D: d})
	if err != nil {
		t.Fatal(err)
	}
	pg, err := g.Full()
	if err != nil {
		t.Fatal(err)
	}
	sa, err := gen.PrefAttachment(rng.New(1001), n, d)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := gen.PrefAttachment(rng.New(2002), n, d)
	if err != nil {
		t.Fatal(err)
	}
	base := ksStat(sa, sb)
	got := ksStat(pg, sa)
	// Sequential-vs-sequential KS at this size is ~0.005; anything below
	// max(3·base, 0.02) means the distributions are statistically
	// indistinguishable at test scale.
	limit := 3 * base
	if limit < 0.02 {
		limit = 0.02
	}
	if got > limit {
		t.Fatalf("PA degree KS %f vs sequential baseline %f (limit %f)", got, base, limit)
	}
	// Heavy tail: max degree far above d, as in the sequential model.
	degs := pg.Degrees()
	maxDeg := 0
	for _, dg := range degs {
		if dg > maxDeg {
			maxDeg = dg
		}
	}
	if maxDeg < 8*d {
		t.Fatalf("PA max degree %d shows no heavy tail (d=%d)", maxDeg, d)
	}
}

func TestContactDegreeDistributionMatchesSequential(t *testing.T) {
	const n = 20000
	cc := gen.ContactConfig{N: n, AvgDegree: 10, CommunitySize: 30, WithinFrac: 0.8}
	g, err := New(Spec{Model: ModelContact, Seed: 5, N: n, Contact: cc})
	if err != nil {
		t.Fatal(err)
	}
	pg, err := g.Full()
	if err != nil {
		t.Fatal(err)
	}
	sa, err := gen.Contact(rng.New(1001), cc)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := gen.Contact(rng.New(2002), cc)
	if err != nil {
		t.Fatal(err)
	}
	base := ksStat(sa, sb)
	got := ksStat(pg, sa)
	// The ported model fills the within budget by Bernoulli trials rather
	// than per-vertex slot quotas, so allow a wider (but still small)
	// band than PA.
	limit := 3 * base
	if limit < 0.05 {
		limit = 0.05
	}
	if got > limit {
		t.Fatalf("contact degree KS %f vs sequential baseline %f (limit %f)", got, base, limit)
	}
	// Edge count matches the target within the duplicate-collapse slack.
	target := g.Spec().MaxEdges()
	if pg.M() < target-target/100 || pg.M() > target {
		t.Fatalf("contact M = %d, want ~%d", pg.M(), target)
	}
}

func TestReducedDegreesMatchEnumeration(t *testing.T) {
	for _, sp := range []Spec{paSpec(9), contactSpec(9)} {
		g, err := New(sp)
		if err != nil {
			t.Fatal(err)
		}
		deg := g.ReducedDegrees()
		var sum int64
		for _, d := range deg {
			sum += int64(d)
		}
		var m int64
		g.Edges(func(graph.Edge) { m++ })
		if sum != m {
			t.Fatalf("%s: reduced degrees sum to %d, enumeration has %d edges", sp.Model, sum, m)
		}
	}
}

// TestSharesConcatenateToEdges pins ShareEdges' contract: shares 0..p−1,
// concatenated, are Edges' sequence edge for edge, and no share holds
// much more than its 1/p of the hash work (PA: slots; contact: within
// pairs, then two draws per cross slot).
func TestSharesConcatenateToEdges(t *testing.T) {
	for _, sp := range []Spec{paSpec(5), contactSpec(5)} {
		g, err := New(sp)
		if err != nil {
			t.Fatal(err)
		}
		var want []graph.Edge
		g.Edges(func(e graph.Edge) { want = append(want, e) })
		sum := worldSum(g)
		for _, p := range []int{1, 2, 3, 8} {
			var got []graph.Edge
			sizes := make([]int, p)
			for r := 0; r < p; r++ {
				before := len(got)
				if err := g.ShareEdges(r, p, sum, func(e graph.Edge) { got = append(got, e) }); err != nil {
					t.Fatal(err)
				}
				sizes[r] = len(got) - before
			}
			if len(got) != len(want) {
				t.Fatalf("%s p=%d: shares hold %d edges, Edges %d", sp.Model, p, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s p=%d: edge %d is %v in the shares, %v in Edges", sp.Model, p, i, got[i], want[i])
				}
			}
			if sp.Model == ModelPA {
				for r, n := range sizes {
					if limit := (len(want)+p-1)/p + sp.D; n > limit {
						t.Errorf("pa p=%d: share %d holds %d edges, want <= %d", p, r, n, limit)
					}
				}
			}
		}
	}
}

// worldSum returns the sum every share of g's world receives: the within
// count over all shares, which the engine's bootstrap gets from one
// allreduce. A PA share never asks.
func worldSum(g *Gen) func(int64) (int64, error) {
	var total int64
	if g.ct != nil {
		total = g.ct.withinEdges(0, len(g.ct.comms), func(graph.Edge) {})
	}
	return func(int64) (int64, error) { return total, nil }
}

// TestContactShareSumsOnce pins ShareEdges' sum contract: a contact share
// calls sum exactly once, after its within edges and before its cross
// edges, with the number of within edges it emitted, a share that holds
// no community included; the shares' counts add up to Edges' within
// count; a PA share never calls it. Each share's work stays within its
// 1/p of the line (pairs + 2·slots) plus one community's pairs, and a
// failing sum stops the share before its first cross edge.
func TestContactShareSumsOnce(t *testing.T) {
	tiny := Spec{Model: ModelContact, Seed: 2, N: 30,
		Contact: gen.ContactConfig{AvgDegree: 6, CommunitySize: 10, WithinFrac: 0.5}}
	for _, sp := range []Spec{contactSpec(5), tiny} {
		g, err := New(sp)
		if err != nil {
			t.Fatal(err)
		}
		ct := g.ct
		inside := func(e graph.Edge) bool { return ct.commOf[e.U] == ct.commOf[e.V] }
		var want int64
		g.Edges(func(e graph.Edge) {
			if inside(e) {
				want++
			}
		})
		crossCnt := max(ct.targetM-want, 0)
		pairs := ct.pairOff[len(ct.comms)]
		var maxPairs int64
		for i := range ct.comms {
			maxPairs = max(maxPairs, ct.pairOff[i+1]-ct.pairOff[i])
		}
		boom := errors.New("sum failed")
		for _, p := range []int{1, 2, 3, 8} {
			var total int64
			for r := 0; r < p; r++ {
				var within, cross, calls int64
				err := g.ShareEdges(r, p, func(k int64) (int64, error) {
					calls++
					if k != within || cross != 0 {
						t.Errorf("N=%d p=%d share %d: sum(%d) after %d within and %d cross edges", sp.N, p, r, k, within, cross)
					}
					return want, nil
				}, func(e graph.Edge) {
					if inside(e) {
						within++
					} else {
						cross++
					}
				})
				if err != nil || calls != 1 {
					t.Fatalf("N=%d p=%d share %d: %d sum calls, err %v; want 1, nil", sp.N, p, r, calls, err)
				}
				total += within
				cLo, tLo := ct.shareBound(r, p, crossCnt)
				cHi, tHi := ct.shareBound(r+1, p, crossCnt)
				work := ct.pairOff[cHi] - ct.pairOff[cLo] + 2*(tHi-tLo)
				if limit := (pairs+2*crossCnt)/int64(p) + maxPairs + 2; work > limit {
					t.Errorf("N=%d p=%d share %d: work %d, want <= %d", sp.N, p, r, work, limit)
				}

				cross = 0
				err = g.ShareEdges(r, p, func(int64) (int64, error) { return 0, boom }, func(e graph.Edge) {
					if !inside(e) {
						cross++
					}
				})
				if !errors.Is(err, boom) || cross != 0 {
					t.Errorf("N=%d p=%d share %d: failing sum gave %v and %d cross edges, want %v and none", sp.N, p, r, err, cross, boom)
				}
			}
			if total != want {
				t.Errorf("N=%d p=%d: shares emitted %d within edges, Edges %d", sp.N, p, total, want)
			}
		}
	}
	g, err := New(paSpec(5))
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 3; r++ {
		err := g.ShareEdges(r, 3, func(int64) (int64, error) {
			t.Errorf("pa share %d called sum", r)
			return 0, nil
		}, func(graph.Edge) {})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestGenSteadyStateAllocs pins the scan loops allocation-free: once New
// has built the tables, a full enumeration and a per-rank enumeration
// under CP and HP-D allocate nothing, whatever the graph's size.
func TestGenSteadyStateAllocs(t *testing.T) {
	for _, c := range []struct {
		model string
		n     int
	}{{"pa", 5000}, {"pa", 50000}, {"contact", 5000}, {"contact", 50000}} {
		model := fmt.Sprintf("%s n=%d", c.model, c.n)
		sp, err := SpecFor(c.model, c.n, 10, 3)
		if err != nil {
			t.Fatal(err)
		}
		g, err := New(sp)
		if err != nil {
			t.Fatal(err)
		}
		var m int64
		count := func(graph.Edge) { m++ }
		if a := testing.AllocsPerRun(5, func() { g.Edges(count) }); a != 0 {
			t.Errorf("%s: Edges made %.1f allocations per enumeration, want 0", model, a)
		}
		sum := worldSum(g)
		if a := testing.AllocsPerRun(5, func() { _ = g.ShareEdges(1, 3, sum, count) }); a != 0 {
			t.Errorf("%s: ShareEdges made %.1f allocations per enumeration, want 0", model, a)
		}
		cp, err := partition.NewCPFromReduced(g.ReducedDegrees(), 2)
		if err != nil {
			t.Fatal(err)
		}
		hpd, err := partition.NewHPD(2)
		if err != nil {
			t.Fatal(err)
		}
		for _, pt := range []partition.Partitioner{cp, hpd} {
			if a := testing.AllocsPerRun(5, func() { g.PartitionEdges(pt, 1, count) }); a != 0 {
				t.Errorf("%s/%s: PartitionEdges made %.1f allocations per enumeration, want 0", model, pt.Name(), a)
			}
		}
		if m == 0 {
			t.Fatalf("%s: enumerated no edges", model)
		}
	}
}
