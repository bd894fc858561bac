package core

import (
	"encoding/binary"
	"errors"
	"hash/fnv"
	"testing"

	"edgeswitch/internal/gen"
	"edgeswitch/internal/graph"
	"edgeswitch/internal/mpi"
	"edgeswitch/internal/partition"
	"edgeswitch/internal/rng"
)

// newTestEngine builds a single-rank edge-switch engine around a small
// graph.
func newTestEngine(t testing.TB, g *graph.Graph) (*rankEngine, *mpi.World) {
	t.Helper()
	return newTestEngineCfg(t, g, Config{Seed: 5, CheckInvariants: true})
}

// newTestEngineCfg builds a single-rank engine with an explicit config
// (notably Config.Algorithm, for exercising the randomizer seam).
func newTestEngineCfg(t testing.TB, g *graph.Graph, cfg Config) (*rankEngine, *mpi.World) {
	t.Helper()
	w, err := mpi.NewWorld(1)
	if err != nil {
		t.Fatal(err)
	}
	var eng *rankEngine
	err = w.Run(func(c *mpi.Comm) error {
		var err error
		eng, err = bootstrap(c, graphSource(g), 0, cfg)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.adj.Close() })
	return eng, w
}

// loadTestEngine builds one rank's engine from a hand-written edge list
// (every edge owned by the rank) the way bootstrap loads a source.
func loadTestEngine(c *mpi.Comm, pt partition.Partitioner, n int, m int64, edges []graph.Edge, cfg Config) (*rankEngine, error) {
	e, err := newEmptyRankEngine(c, pt, n, cfg)
	if err != nil {
		return nil, err
	}
	ents := make([]slotEdge, len(edges))
	for i, ed := range edges {
		ents[i] = slotEdge{slot: e.slot[ed.U], v: ed.V, orig: true}
	}
	if ents, err = e.sortSlotEdges(ents, nil, false); err != nil {
		return nil, err
	}
	return e, e.finishLoad(m, ents, cfg)
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
	li01 := eng.slot[0]
	li23 := eng.slot[2]
	if !eng.adj.Original(int(li01), 1) {
		t.Fatal("original flag lost on (0,1)")
	}
	if eng.adj.Original(int(li23), 3) {
		t.Fatal("modified edge became original on (2,3)")
	}
}

// TestEngineConflictsChecksPotential: an edge a relay reserves for a
// remote operation conflicts until the second owner's reply ends the
// reservation, and the relay passes that reply to the partner.
func TestEngineConflictsChecksPotential(t *testing.T) {
	g, err := gen.ErdosRenyi(rng.New(12), 80, 320)
	if err != nil {
		t.Fatal(err)
	}
	rs := armedWorld(t, g, 3)[0]
	// A fresh non-edge this rank owns (HP-D: a smaller endpoint ≡ 0 mod 3).
	var candidate graph.Edge
	for u := graph.Vertex(0); u < 78 && candidate == (graph.Edge{}); u += 3 {
		if e := (graph.Edge{U: u, V: u + 1}); !rs.conflicts(e) {
			candidate = e
		}
	}
	if candidate == (graph.Edge{}) {
		t.Fatal("graph too dense for a candidate")
	}
	id := opID{rank: 1, slot: 3, seq: 1}
	req := opMsg{kind: mLastAgent, id: id, e1: candidate, e2: graph.Edge{U: 2, V: 79}, mask: 3}
	if err := rs.handle(req, 1); err != nil {
		t.Fatal(err)
	}
	if rs.custody.live[custReserved] != 1 || !rs.conflicts(candidate) || rs.partnerLive != 1 {
		t.Fatalf("relayed edge not seen by conflict check (%d reservations)", rs.custody.live[custReserved])
	}
	if err := rs.handle(opMsg{kind: mRefused, id: id}, 1); !errors.Is(err, errAgent) {
		t.Fatalf("reply from the partner: got %v, want %v", err, errAgent)
	}
	if err := rs.handle(opMsg{kind: mRefused, id: id}, 2); err != nil {
		t.Fatal(err)
	}
	if rs.custody.live[custReserved] != 0 || rs.conflicts(candidate) || rs.partnerLive != 0 {
		t.Fatal("released edge still conflicts")
	}
	var got []opMsg
	if err := forEachOpMsg(rs.e.sb.bufs[1], func(m opMsg) error { got = append(got, m); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != (opMsg{kind: mRefused, id: id}) {
		t.Fatalf("relay sent the partner %v, want one refusal", got)
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
		eng, err := loadTestEngine(c, pt, g.N(), g.M(), nil, Config{Seed: 7, CheckInvariants: true})
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

// TestOpWindowSize pins the engine's only pipelining window, the same at
// every rank count: 64 ∧ |E_local|/8 and never below 1 — read off the
// live partition, so it shrinks as soon as takeLocal removes an edge.
func TestOpWindowSize(t *testing.T) {
	for _, tc := range []struct {
		ranks, localEdges, want int
		afterTake               int // window after one takeLocal; 0 skips
	}{
		{ranks: 1, localEdges: 0, want: 1},
		{ranks: 1, localEdges: 8, want: 1},
		{ranks: 1, localEdges: 512, want: 64, afterTake: 63},
		{ranks: 1, localEdges: 10000, want: 64},
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
		star := make([]graph.Edge, tc.localEdges)
		for i := range star {
			star[i] = graph.Edge{U: 0, V: graph.Vertex(i + 1)}
		}
		err = w.Run(func(c *mpi.Comm) error {
			if c.Rank() != 0 {
				return nil
			}
			eng, err := loadTestEngine(c, pt, tc.localEdges+1, int64(tc.localEdges), star, Config{Seed: 9})
			if err != nil {
				return err
			}
			if got := eng.rand.(*edgeSwitcher).opWindowSize(); got != tc.want {
				t.Errorf("p=%d |E_local|=%d: window %d, want %d", tc.ranks, tc.localEdges, got, tc.want)
			}
			if tc.afterTake != 0 {
				eng.takeLocal()
				if got := eng.rand.(*edgeSwitcher).opWindowSize(); got != tc.afterTake {
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

// walkHash fingerprints a partition in store order: FNV-1a over a 9-byte
// record per entry Walk yields, slot by slot — u and v little-endian,
// then 1 for an original entry.
func walkHash(e *rankEngine) uint64 {
	h := fnv.New64a()
	for li, u := range e.verts {
		e.adj.Walk(li, func(v graph.Vertex, orig bool) bool {
			var rec [9]byte
			binary.LittleEndian.PutUint32(rec[0:], uint32(u))
			binary.LittleEndian.PutUint32(rec[4:], uint32(v))
			if orig {
				rec[8] = 1
			}
			h.Write(rec[:])
			return true
		})
	}
	return h.Sum64()
}

// TestGraphHandoffMatchesPerEdgeLoad pins the graph hand-off through
// loadSlotEdges against the per-edge Insert loop it replaced: the
// constants are what that loop (newRankEngine at commit ea622a4) left
// behind on this graph — the run RNG's position after one priority draw
// per edge in ascending (vertex, neighbour) order, and the store's Walk
// output. Every p=1 equivalence and EdgeHash pin rides on these staying
// put. A tiered store held the same entries; its counters are the part
// that moved: the hand-off now streams the first base segment where the
// loop filled the overlay (high-water mark 158, the whole partition) and
// compacted it (one counted compaction).
func TestGraphHandoffMatchesPerEdgeLoad(t *testing.T) {
	g := testGraph(t, 12, 80, 320)
	type pin struct {
		rnd        [4]uint64
		walk, hash uint64
	}
	check := func(tag string, e *rankEngine, want pin) {
		t.Helper()
		if got := (pin{e.rnd.State(), walkHash(e), e.edgeHash()}); got != want {
			t.Errorf("%s: hand-off left %#x, the per-edge loop left %#x", tag, got, want)
		}
	}

	eng, w := newTestEngine(t, g) // p=1, CP, seed 5
	check("p=1", eng, pin{
		rnd:  [4]uint64{0xbe7d1014d75b50f3, 0x7ab0ce3566618ace, 0xbae809703acf015e, 0x3c08a00ba5d0ef0a},
		walk: 0xccc9eb9c6169a0a7, hash: 0xb54644ad9520ea0d,
	})
	if eng.origLocal != 320 {
		t.Errorf("p=1: %d originals, want 320", eng.origLocal)
	}
	w.Close()

	rank1 := pin{
		rnd:  [4]uint64{0xd0ba783c13cde3e7, 0x40b2bf9bd2b6416d, 0xbc62e8e3c0fcb1b9, 0xfc99b5ad003dd77b},
		walk: 0x9e3780c426e44dc7, hash: 0xe674bdc51c5c0375,
	}
	for _, kind := range []string{"mem", "spill"} {
		cfg := Config{Seed: 5, Scheme: SchemeHPD}
		if kind == "spill" {
			cfg.SpillDir = t.TempDir()
		}
		w, err := mpi.NewWorld(2)
		if err != nil {
			t.Fatal(err)
		}
		err = w.Run(func(c *mpi.Comm) error {
			e, err := bootstrap(c, graphSource(g), 0, cfg)
			if err != nil {
				return err
			}
			defer e.adj.Close()
			if c.Rank() == 1 {
				check("p=2 rank 1 "+kind, e, rank1)
				if st := e.adj.Stats(); kind == "spill" && (st.BaseBytes != 546 || st.OverlayHWM != 0 || st.Compactions != 0) {
					t.Errorf("tiered hand-off: %+v, want the 546-byte base streamed (no overlay entries, no compaction)", st)
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
