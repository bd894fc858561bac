package core

import (
	"testing"

	"edgeswitch/internal/gen"
	"edgeswitch/internal/graph"
	"edgeswitch/internal/mpi"
	"edgeswitch/internal/partition"
	"edgeswitch/internal/rng"
)

// newTestEngine builds a single-rank edge-switch engine around a small
// graph.
func newTestEngine(t *testing.T, g *graph.Graph) (*rankEngine, *mpi.World) {
	t.Helper()
	return newTestEngineCfg(t, g, Config{Seed: 5, CheckInvariants: true})
}

// newTestEngineCfg builds a single-rank engine with an explicit config
// (notably Config.Algorithm, for exercising the randomizer seam).
func newTestEngineCfg(t *testing.T, g *graph.Graph, cfg Config) (*rankEngine, *mpi.World) {
	t.Helper()
	w, err := mpi.NewWorld(1)
	if err != nil {
		t.Fatal(err)
	}
	pt, err := partition.NewCP(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	var edges []flaggedEdge
	for ui := 0; ui < g.N(); ui++ {
		u := graph.Vertex(ui)
		g.WalkReduced(u, func(v graph.Vertex, orig bool) bool {
			edges = append(edges, flaggedEdge{graph.Edge{U: u, V: v}, orig})
			return true
		})
	}
	var eng *rankEngine
	err = w.Run(func(c *mpi.Comm) error {
		var err error
		eng, err = newRankEngine(c, pt, g.N(), g.M(), edges, cfg)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return eng, w
}

// es extracts the edge-switch randomizer behind a test engine's seam.
func es(t *testing.T, eng *rankEngine) *edgeSwitcher {
	t.Helper()
	r, ok := eng.rand.(*edgeSwitcher)
	if !ok {
		t.Fatalf("engine randomizer is %T, want *edgeSwitcher", eng.rand)
	}
	return r
}

func TestEngineLoadsPartition(t *testing.T) {
	r := rng.New(1)
	g, err := gen.ErdosRenyi(r, 50, 200)
	if err != nil {
		t.Fatal(err)
	}
	eng, w := newTestEngine(t, g)
	defer w.Close()
	if eng.deg.Total() != g.M() {
		t.Fatalf("loaded %d edges, want %d", eng.deg.Total(), g.M())
	}
	if eng.initialEdges != g.M() {
		t.Fatalf("initialEdges %d", eng.initialEdges)
	}
	if len(eng.verts) != g.N() {
		t.Fatalf("verts %d", len(eng.verts))
	}
	// Every original edge must be present and conflict-detected.
	for _, e := range g.Edges() {
		if !es(t, eng).conflicts(e) {
			t.Fatalf("loaded edge %v not seen by conflict check", e)
		}
	}
}

func TestEngineTakeReinsertDiscard(t *testing.T) {
	r := rng.New(2)
	g, err := gen.ErdosRenyi(r, 30, 100)
	if err != nil {
		t.Fatal(err)
	}
	eng, w := newTestEngine(t, g)
	defer w.Close()

	sw := es(t, eng)
	e := sw.takeRandomEdge()
	if eng.deg.Total() != g.M()-1 {
		t.Fatalf("degree total after take: %d", eng.deg.Total())
	}
	if !es(t, eng).conflicts(e) {
		t.Fatal("in-hand edge not seen by conflict check")
	}
	if err := sw.reinsert(e); err != nil {
		t.Fatal(err)
	}
	if eng.deg.Total() != g.M() {
		t.Fatalf("degree total after reinsert: %d", eng.deg.Total())
	}
	if err := sw.reinsert(e); err == nil {
		t.Fatal("double reinsert accepted")
	}

	e2 := sw.takeRandomEdge()
	if err := sw.discard(e2); err != nil {
		t.Fatal(err)
	}
	if eng.deg.Total() != g.M()-1 {
		t.Fatalf("degree total after discard: %d", eng.deg.Total())
	}
	if err := sw.discard(e2); err == nil {
		t.Fatal("double discard accepted")
	}
}

func TestEngineTakePreservesOriginalFlag(t *testing.T) {
	r := rng.New(3)
	g := graph.New(4)
	g.AddEdge(graph.Edge{U: 0, V: 1}, r)     // original
	g.AddModified(graph.Edge{U: 2, V: 3}, r) // modified
	eng, w := newTestEngine(t, g)
	defer w.Close()
	// Take both, reinsert both; flags must survive the round trip.
	r2 := es(t, eng)
	a := r2.takeRandomEdge()
	b := r2.takeRandomEdge()
	if err := r2.reinsert(a); err != nil {
		t.Fatal(err)
	}
	if err := r2.reinsert(b); err != nil {
		t.Fatal(err)
	}
	li01 := eng.index[0]
	li23 := eng.index[2]
	if !eng.adj.Original(int(li01), 1) {
		t.Fatal("original flag lost on (0,1)")
	}
	if eng.adj.Original(int(li23), 3) {
		t.Fatal("modified edge became original on (2,3)")
	}
}

func TestEngineConflictsChecksPotential(t *testing.T) {
	r := rng.New(4)
	g, err := gen.ErdosRenyi(r, 20, 40)
	if err != nil {
		t.Fatal(err)
	}
	eng, w := newTestEngine(t, g)
	defer w.Close()
	// A fresh non-edge.
	var candidate graph.Edge
	for u := graph.Vertex(0); u < 19; u++ {
		e := graph.Edge{U: u, V: u + 1}
		if !g.HasEdge(e) {
			candidate = e
			break
		}
	}
	if candidate == (graph.Edge{}) {
		t.Skip("graph too dense for a candidate")
	}
	rs := es(t, eng)
	if rs.conflicts(candidate) {
		t.Fatal("fresh edge conflicts")
	}
	rs.potential[candidate] = opID{rank: 0, seq: 1}
	if !rs.conflicts(candidate) {
		t.Fatal("reserved edge not seen by conflict check")
	}
}

func TestEnginePickPartnerRespectsWeights(t *testing.T) {
	r := rng.New(5)
	g, err := gen.ErdosRenyi(r, 20, 40)
	if err != nil {
		t.Fatal(err)
	}
	eng, w := newTestEngine(t, g)
	defer w.Close()
	// Fake a 3-rank cumulative edge distribution 10/0/30.
	rp := es(t, eng)
	rp.cumEdges = []int64{0, 10, 10, 40}
	counts := [3]int{}
	for i := 0; i < 40000; i++ {
		counts[rp.pickPartner()]++
	}
	if counts[1] != 0 {
		t.Fatalf("empty rank selected %d times", counts[1])
	}
	ratio := float64(counts[2]) / float64(counts[0])
	if ratio < 2.5 || ratio > 3.6 {
		t.Fatalf("partner weights off: %v (ratio %f, want ~3)", counts, ratio)
	}
}

func TestEngineOwnerRoutesByMinEndpoint(t *testing.T) {
	r := rng.New(6)
	g, err := gen.ErdosRenyi(r, 40, 80)
	if err != nil {
		t.Fatal(err)
	}
	pt, err := partition.NewHPD(4)
	if err != nil {
		t.Fatal(err)
	}
	w, err := mpi.NewWorld(4)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	err = w.Run(func(c *mpi.Comm) error {
		eng, err := newRankEngine(c, pt, g.N(), g.M(), nil, Config{Seed: 7, CheckInvariants: true})
		if err != nil {
			return err
		}
		for _, e := range []graph.Edge{{U: 0, V: 5}, {U: 3, V: 9}, {U: 7, V: 8}} {
			if got, want := eng.owner(e), int(e.U)%4; got != want {
				t.Errorf("owner(%v) = %d, want %d", e, got, want)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestOpWindowSize pins the engine's only pipelining window: exactly 1 on
// a single rank whatever the partition holds (the sequential chain p=1
// must realize), otherwise 64 ∧ |E_local|/8 and never below 1 — read off
// the live partition, so it shrinks as soon as takeLocal removes an edge.
func TestOpWindowSize(t *testing.T) {
	for _, tc := range []struct {
		ranks, localEdges, want int
		afterTake               int // window after one takeLocal; 0 skips
	}{
		{ranks: 1, localEdges: 0, want: 1},
		{ranks: 1, localEdges: 8, want: 1},
		{ranks: 1, localEdges: 512, want: 1, afterTake: 1},
		{ranks: 1, localEdges: 10000, want: 1},
		{ranks: 2, localEdges: 0, want: 1},
		{ranks: 2, localEdges: 7, want: 1},
		{ranks: 2, localEdges: 8, want: 1},
		{ranks: 2, localEdges: 511, want: 63},
		{ranks: 2, localEdges: 512, want: 64, afterTake: 63},
		{ranks: 2, localEdges: 10000, want: 64},
	} {
		w, err := mpi.NewWorld(tc.ranks)
		if err != nil {
			t.Fatal(err)
		}
		pt, err := partition.NewHPD(tc.ranks)
		if err != nil {
			t.Fatal(err)
		}
		// A star at vertex 0, which HP-D assigns to rank 0.
		star := make([]flaggedEdge, tc.localEdges)
		for i := range star {
			star[i] = flaggedEdge{graph.Edge{U: 0, V: graph.Vertex(i + 1)}, true}
		}
		err = w.Run(func(c *mpi.Comm) error {
			if c.Rank() != 0 {
				return nil
			}
			eng, err := newRankEngine(c, pt, tc.localEdges+1, int64(tc.localEdges), star, Config{Seed: 9})
			if err != nil {
				return err
			}
			if got := eng.opWindowSize(); got != tc.want {
				t.Errorf("p=%d |E_local|=%d: window %d, want %d", tc.ranks, tc.localEdges, got, tc.want)
			}
			if tc.afterTake != 0 {
				eng.takeLocal()
				if got := eng.opWindowSize(); got != tc.afterTake {
					t.Errorf("p=%d |E_local|=%d after takeLocal: window %d, want %d", tc.ranks, tc.localEdges, got, tc.afterTake)
				}
			}
			return nil
		})
		w.Close()
		if err != nil {
			t.Fatal(err)
		}
	}
}
