package core

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"

	"edgeswitch/internal/gen"
	"edgeswitch/internal/gen/pergen"
	"edgeswitch/internal/graph"
	"edgeswitch/internal/rng"
)

// edgeFlagMap snapshots a graph as edge -> original flag, the complete
// observable state curveball equivalence is pinned on.
func edgeFlagMap(g *graph.Graph) map[graph.Edge]bool {
	out := make(map[graph.Edge]bool, g.M())
	for ui := 0; ui < g.N(); ui++ {
		u := graph.Vertex(ui)
		g.WalkReduced(u, func(v graph.Vertex, orig bool) bool {
			out[graph.Edge{U: u, V: v}.Norm()] = orig
			return true
		})
	}
	return out
}

func sameEdgeFlags(t *testing.T, label string, want, got map[graph.Edge]bool) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: edge counts diverged: want %d, got %d", label, len(want), len(got))
	}
	for e, orig := range want {
		g, ok := got[e]
		if !ok {
			t.Fatalf("%s: edge %v missing", label, e)
		}
		if g != orig {
			t.Fatalf("%s: edge %v original flag %v, want %v", label, e, g, orig)
		}
	}
}

// checkCurveballRun asserts the invariants every curveball run must
// satisfy: shape and degree sequence preserved, graph simple, every
// trade executed (rounds x floor(n/2) ops, nothing forfeited).
func checkCurveballRun(t *testing.T, g *graph.Graph, res *Result, rounds int64) {
	t.Helper()
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
	if res.Algorithm != string(AlgoCurveball) {
		t.Fatalf("algorithm echoed as %q", res.Algorithm)
	}
	if res.Forfeited != 0 {
		t.Fatalf("forfeited %d trades", res.Forfeited)
	}
	if want := rounds * int64(g.N()/2); res.Ops != want {
		t.Fatalf("ops %d, want %d (every trade of every round)", res.Ops, want)
	}
}

// TestCurveballSequentialEquivalence is the p=1 pin of the curveball
// randomizer: a single-rank distributed run must produce the same graph
// (edges and original flags), trade for trade, as the sequential
// reference from the same seed — plus the same trade count and visit
// rate.
func TestCurveballSequentialEquivalence(t *testing.T) {
	g := testGraph(t, 21, 301, 1500)
	const rounds = 6
	const seed = 77
	res, err := Parallel(g, rounds, Config{
		Ranks:           1,
		Seed:            seed,
		Algorithm:       AlgoCurveball,
		CheckInvariants: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	checkCurveballRun(t, g, res, rounds)
	if res.Steps != rounds {
		t.Fatalf("steps %d, want %d (one round per step)", res.Steps, rounds)
	}

	seq := g.Clone(rng.New(1))
	st, err := SequentialCurveball(seq, rounds, seed)
	if err != nil {
		t.Fatal(err)
	}
	sameEdgeFlags(t, "p=1 vs sequential", edgeFlagMap(seq), edgeFlagMap(res.Graph))
	if res.Ops != st.Ops {
		t.Fatalf("trades diverged: distributed %d, sequential %d", res.Ops, st.Ops)
	}
	if res.VisitRate != st.VisitRate {
		t.Fatalf("visit rate diverged: distributed %v, sequential %v", res.VisitRate, st.VisitRate)
	}
	if st.Restarts != 0 {
		t.Fatalf("sequential curveball reported %d restarts", st.Restarts)
	}
}

// TestCurveballPInvariance pins the distribution-independence of the
// trades: the final graph (edges and flags) must be identical at
// p ∈ {1, 2, 8} for the same seed, on both even and odd vertex counts
// (odd n exercises the sat-out vertex path).
func TestCurveballPInvariance(t *testing.T) {
	for _, n := range []int{200, 201} {
		g := testGraph(t, uint64(30+n), n, int64(5*n))
		const rounds = 4
		var want map[graph.Edge]bool
		var wantOps int64
		for _, p := range []int{1, 2, 8} {
			res, err := Parallel(g, rounds, Config{
				Ranks:           p,
				Scheme:          SchemeHPD,
				Seed:            123,
				Algorithm:       AlgoCurveball,
				CheckInvariants: true,
			})
			if err != nil {
				t.Fatalf("n=%d p=%d: %v", n, p, err)
			}
			checkCurveballRun(t, g, res, rounds)
			got := edgeFlagMap(res.Graph)
			if want == nil {
				want, wantOps = got, res.Ops
				continue
			}
			sameEdgeFlags(t, "p-invariance", want, got)
			if res.Ops != wantOps {
				t.Fatalf("n=%d p=%d: ops %d, want %d", n, p, res.Ops, wantOps)
			}
		}
	}
}

// TestCurveballVisitRateTarget checks the per-algorithm visit-rate
// plumbing end to end: the round count derived from the conservative
// per-round bound must reach the target, and TargetVisitRate must stop a
// generous round budget early at the step boundary where the target is
// met.
func TestCurveballVisitRateTarget(t *testing.T) {
	g := testGraph(t, 40, 1000, 5000)
	const x = 0.9
	rounds, err := CurveballRoundsForVisitRate(g.M(), x)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Parallel(g, rounds, Config{Ranks: 2, Seed: 9, Algorithm: AlgoCurveball})
	if err != nil {
		t.Fatal(err)
	}
	checkCurveballRun(t, g, res, rounds)
	if res.VisitRate < x {
		t.Fatalf("visit rate %v below target %v after %d rounds", res.VisitRate, x, rounds)
	}

	const budget = 50
	early, err := Parallel(g, budget, Config{
		Ranks:           2,
		Seed:            9,
		Algorithm:       AlgoCurveball,
		TargetVisitRate: x,
		CheckInvariants: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if early.Steps >= budget {
		t.Fatalf("target %v did not stop the run early (ran all %d rounds)", x, early.Steps)
	}
	if early.VisitRate < x {
		t.Fatalf("early stop at visit rate %v, below target %v", early.VisitRate, x)
	}
}

// TestCurveballSanitizerCatchesCorruption is the satellite-6 pin: the
// degree-baseline sanitizer is algorithm-agnostic, so corruption on the
// curveball path (no edge-switch machinery anywhere) must be detected at
// the next step exchange.
func TestCurveballSanitizerCatchesCorruption(t *testing.T) {
	mk := func() (*graph.Graph, *rankEngine, func()) {
		g, err := gen.ErdosRenyi(rng.New(46), 60, 240)
		if err != nil {
			t.Fatal(err)
		}
		eng, w := newTestEngineCfg(t, g, Config{Seed: 5, CheckInvariants: true, Algorithm: AlgoCurveball})
		if _, ok := eng.rand.(*curveball); !ok {
			t.Fatalf("engine randomizer is %T, want *curveball", eng.rand)
		}
		// The bootstrap leaves the partition carried outside the store; the
		// corruptions below go through the store, as a checked boundary
		// leaves it.
		if err := eng.storeCarried(); err != nil {
			t.Fatal(err)
		}
		if err := eng.recordBaseline(); err != nil {
			t.Fatal(err)
		}
		if _, _, err := eng.stepExchange(); err != nil {
			t.Fatalf("clean engine flagged: %v", err)
		}
		return g, eng, func() { w.Close() }
	}

	t.Run("dropped edge", func(t *testing.T) {
		_, eng, close := mk()
		defer close()
		if _, ok := eng.takeLocal(); !ok {
			t.Fatal("takeLocal on a populated engine failed")
		}
		_, _, err := eng.stepExchange()
		if err == nil {
			t.Fatal("dropped edge not detected by the step exchange")
		}
		if msg := err.Error(); !strings.Contains(msg, string(VEdgeCount)) || !strings.Contains(msg, string(VDegreeDrift)) {
			t.Fatalf("error %q should report %s and %s", msg, VEdgeCount, VDegreeDrift)
		}
		if err := eng.verifyBaseline(); err == nil {
			t.Fatal("dropped edge not detected by the full baseline pass")
		}
	})

	t.Run("rewired endpoint", func(t *testing.T) {
		g, eng, close := mk()
		defer close()
		// Replace {u,v} with some {u,w}: the edge count stays intact but
		// the degrees of v and w drift.
		e, ok := eng.takeLocal()
		if !ok {
			t.Fatal("takeLocal on a populated engine failed")
		}
		inserted := false
		for w := 0; w < g.N(); w++ {
			cand := graph.Vertex(w)
			if cand == e.U || cand == e.V {
				continue
			}
			if err := eng.insertLocal(graph.Edge{U: e.U, V: cand}.Norm(), false); err == nil {
				inserted = true
				break
			}
		}
		if !inserted {
			t.Fatal("no rewire candidate found")
		}
		_, _, err := eng.stepExchange()
		if err == nil {
			t.Fatal("rewired edge not detected by the step exchange")
		}
		if msg := err.Error(); !strings.Contains(msg, string(VDegreeDrift)) {
			t.Fatalf("error %q should report %s", msg, VDegreeDrift)
		}
	})
}

// TestCurveballSanitizerScansCarriedList: a bootstrap hands curveball its
// partition as a sorted list outside the store, and the first checked
// exchange scans that list as it scans the store — a repeated or
// unnormalized entry, or an outside count the list does not match, is a
// named violation before round 1 routes anything.
func TestCurveballSanitizerScansCarriedList(t *testing.T) {
	g := testGraph(t, 46, 60, 240)
	for _, tc := range []struct {
		name    string
		corrupt func(e *rankEngine, ents []slotEdge)
		want    ViolationKind
	}{
		{"clean", func(*rankEngine, []slotEdge) {}, ""},
		{"repeated entry", func(_ *rankEngine, ents []slotEdge) { ents[1] = ents[0] }, VParallelEdge},
		{"unnormalized entry", func(e *rankEngine, ents []slotEdge) { ents[len(ents)-1].v = 0 }, VOwnership},
		{"outside count", func(e *rankEngine, _ []slotEdge) { e.outside++ }, VEdgeCount},
	} {
		eng, w := newTestEngineCfg(t, g, Config{Seed: 5, CheckInvariants: true, Algorithm: AlgoCurveball})
		ents := eng.carried
		if int64(len(ents)) != g.M() || eng.deg.Total() != 0 {
			t.Fatalf("bootstrap carried %d of %d edges and stored %d", len(ents), g.M(), eng.deg.Total())
		}
		tc.corrupt(eng, ents)
		vs := eng.sanitizeLocal()
		w.Close()
		switch {
		case tc.want == "" && len(vs) != 0:
			t.Errorf("%s: flagged %v", tc.name, vs)
		case tc.want != "" && (len(vs) == 0 || vs[0].Kind != tc.want):
			t.Errorf("%s: got %v, want a %s violation", tc.name, vs, tc.want)
		}
	}
}

// TestCBPermute checks the pairing permutation: a valid permutation of
// [0, n), identical when recomputed (it must agree across ranks), and
// different across rounds.
func TestCBPermute(t *testing.T) {
	const n = 257
	a := make([]graph.Vertex, n)
	b := make([]graph.Vertex, n)
	cbPermute(a, 9, 1)
	cbPermute(b, 9, 1)
	seen := make([]bool, n)
	same := true
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("recomputed permutation diverged at %d", i)
		}
		if a[i] != graph.Vertex(i) {
			same = false
		}
		if int(a[i]) < 0 || int(a[i]) >= n || seen[a[i]] {
			t.Fatalf("not a permutation at %d: %v", i, a[i])
		}
		seen[a[i]] = true
	}
	if same {
		t.Fatal("permutation is the identity")
	}
	cbPermute(b, 9, 2)
	diff := 0
	for i := range a {
		if a[i] != b[i] {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("rounds 1 and 2 drew the same permutation")
	}
}

// TestCBAssignAndFirstTrade pins the trade-assignment inverse and the
// earliest-incident-trade routing rule, including the odd-n sat-out
// vertex.
func TestCBAssignAndFirstTrade(t *testing.T) {
	perm := []graph.Vertex{4, 1, 0, 3, 2} // trade 0: (4,1), trade 1: (0,3); 2 sits out
	tradeOf := make([]int32, 5)
	cbAssignTrades(tradeOf, perm)
	for v, want := range map[graph.Vertex]int32{4: 0, 1: 0, 0: 1, 3: 1, 2: -1} {
		if tradeOf[v] != want {
			t.Fatalf("tradeOf[%d] = %d, want %d", v, tradeOf[v], want)
		}
	}
	cases := []struct {
		u, w    graph.Vertex
		trade   int32
		anchorW bool
	}{
		{4, 1, 0, false}, // both in trade 0, tie broken to u
		{0, 4, 0, true},  // w's trade is earlier
		{4, 0, 0, false}, // u's trade is earlier
		{2, 3, 1, true},  // u sits out
		{0, 2, 1, false}, // w sits out
		{2, 2, -1, true}, // degenerate: neither trades (anchor flag is unused at trade -1)
	}
	for _, c := range cases {
		trade, anchorW := cbFirstTrade(tradeOf, c.u, c.w)
		if trade != c.trade || anchorW != c.anchorW {
			t.Fatalf("cbFirstTrade(%d, %d) = (%d, %v), want (%d, %v)", c.u, c.w, trade, anchorW, c.trade, c.anchorW)
		}
	}
}

// TestCBApplyTrade pins the trade semantics: shared neighbours keep
// their sides and flags, the pool is redistributed preserving both
// degrees, side changes clear the original flag, and the outcome is a
// pure function of the sorted input lists.
func TestCBApplyTrade(t *testing.T) {
	uList := []uint32{cbWord(2, true), cbWord(5, true), cbWord(7, false)}
	vList := []uint32{cbWord(3, true), cbWord(5, false)}
	_, out := cbApplyTrade(uList, vList, nil, nil, cbTradeStream(11, 1, 0))
	if len(out) != len(uList)+len(vList) {
		t.Fatalf("trade changed cardinality: %d -> %d", len(uList)+len(vList), len(out))
	}
	nU, nV := 0, 0
	sharedU, sharedV := false, false
	for _, ed := range out {
		if ed.anchorV {
			nV++
		} else {
			nU++
		}
		if ed.other == 5 {
			// The shared neighbour: one entry per side, flags intact.
			if !ed.anchorV && ed.orig {
				sharedU = true
			}
			if ed.anchorV && !ed.orig {
				sharedV = true
			}
		} else if ed.orig {
			// A disjoint entry may keep its flag only on its original side.
			from := uList
			if ed.anchorV {
				from = vList
			}
			if !slices.Contains(from, cbWord(ed.other, true)) {
				t.Fatalf("entry %+v kept its original flag across a side change", ed)
			}
		}
	}
	if nU != len(uList) || nV != len(vList) {
		t.Fatalf("degrees changed: u %d->%d, v %d->%d", len(uList), nU, len(vList), nV)
	}
	if !sharedU || !sharedV {
		t.Fatalf("shared neighbour not kept on both sides with flags (u %v, v %v)", sharedU, sharedV)
	}

	// Determinism: the same multiset presented in any arrival order must
	// produce the same result once sorted.
	u2 := []uint32{uList[2], uList[0], uList[1]}
	v2 := []uint32{vList[1], vList[0]}
	sortCBEdges(u2, nil)
	sortCBEdges(v2, nil)
	_, out2 := cbApplyTrade(u2, v2, nil, nil, cbTradeStream(11, 1, 0))
	if !slices.Equal(out, out2) {
		t.Fatalf("shuffled arrivals diverged: %+v vs %+v", out, out2)
	}
}

// TestSortCBEdgesWords pins sortCBEdges to slices.Sort on every input:
// lengths on both sides of the insertion-sort cut-off, neighbours next to
// each radix digit boundary of the words and near 2^9, 2^18, 2^27 and
// 2^30, sides whose words share their high bits, and repeated words and
// neighbours. A valid side's neighbours are distinct, so its word order
// is its order by other, whatever the original flags.
func TestSortCBEdgesWords(t *testing.T) {
	r := rng.New(7)
	check := func(what string, ws []uint32) {
		t.Helper()
		want := slices.Clone(ws)
		slices.Sort(want)
		sortCBEdges(ws, make([]uint32, len(ws)+3))
		if !slices.Equal(ws, want) {
			t.Fatalf("%s, length %d: sortCBEdges gives %v, slices.Sort %v", what, len(ws), ws, want)
		}
	}
	words := func(others []int) []uint32 {
		ws := make([]uint32, len(others))
		for i, o := range others {
			ws[i] = cbWord(graph.Vertex(o), r.Bool())
		}
		return ws
	}
	lengths := []int{3000, 10000}
	for n := 0; n <= 64; n++ {
		lengths = append(lengths, n)
	}
	for _, n := range lengths {
		check("distinct neighbours", words(r.Perm(4*n + 8)[:n]))
	}

	var all []int
	ks := []int{9, 18, 27, 30}
	for k := cbSortDigit - 1; k < 31; k += cbSortDigit {
		ks = append(ks, k) // words near 2^(k+1), a digit boundary
	}
	for _, k := range ks {
		var near []int
		for d := -20; d <= 20; d++ {
			near = append(near, 1<<k+d)
		}
		r.ShuffleInts(near)
		check(fmt.Sprintf("neighbours near 2^%d", k), words(near))
		all = append(all, near...)
	}
	r.ShuffleInts(all)
	for _, n := range []int{23, 24, 25, 26, 100, len(all)} {
		check("neighbours at digit boundaries", words(all[:n]))
	}

	for _, n := range []int{23, 24, 25, 26, 200, 10000} {
		others := make([]int, n)
		for i := range others {
			others[i] = r.Intn(n/4+1) << (r.Intn(3) * 9)
		}
		check("repeated neighbours", words(others))
		ws := words(others)
		copy(ws[n/2:], ws)
		check("repeated words", ws)
	}
}

// BenchmarkSortCBEdges sorts every trade side of the cb-pa graph (pa,
// n = 50 000, d = 10, seed 1) once per iteration: one side per vertex,
// its neighbours' words in random order, as a round's arena holds them.
// "long" is the sides past the insertion-sort cut-off, which slices.Sort
// times for comparison.
func BenchmarkSortCBEdges(b *testing.B) {
	pg, err := pergen.New(pergen.Spec{Model: pergen.ModelPA, Seed: 1, N: 50000, D: 10})
	if err != nil {
		b.Fatal(err)
	}
	g, err := pg.Full()
	if err != nil {
		b.Fatal(err)
	}
	r := rng.New(1)
	var all, long [][]uint32
	maxDeg := 0
	for _, adj := range g.FullAdjacency() {
		ws := make([]uint32, len(adj))
		for i, o := range adj {
			ws[i] = cbWord(o, r.Bool())
		}
		r.Shuffle(len(ws), func(i, j int) { ws[i], ws[j] = ws[j], ws[i] })
		all = append(all, ws)
		if len(ws) > 24 {
			long = append(long, ws)
		}
		maxDeg = max(maxDeg, len(ws))
	}
	tmp := make([]uint32, maxDeg)
	for _, bc := range []struct {
		name  string
		sides [][]uint32
		sort  func([]uint32)
	}{
		{"all/sortCBEdges", all, func(ws []uint32) { sortCBEdges(ws, tmp) }},
		{"long/sortCBEdges", long, func(ws []uint32) { sortCBEdges(ws, tmp) }},
		{"long/slices.Sort", long, slices.Sort[[]uint32]},
	} {
		b.Run(bc.name, func(b *testing.B) {
			work := make([][]uint32, len(bc.sides))
			words := 0
			for i, ws := range bc.sides {
				work[i] = slices.Clone(ws)
				words += len(ws)
			}
			b.ResetTimer()
			for range b.N {
				b.StopTimer()
				for i, ws := range bc.sides {
					copy(work[i], ws)
				}
				b.StartTimer()
				for _, ws := range work {
					bc.sort(ws)
				}
			}
			b.ReportMetric(float64(len(work)), "sides")
			b.ReportMetric(float64(words), "words")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*words), "ns/word")
		})
	}
}

// TestSequentialCurveballBasics covers the reference implementation's
// own invariants on a graph too large to eyeball: simplicity, shape,
// degree sequence, trade accounting, and rejection of negative rounds.
func TestSequentialCurveballBasics(t *testing.T) {
	g := testGraph(t, 50, 400, 2400)
	degs := degreeMultiset(g)
	m0 := g.M()
	st, err := SequentialCurveball(g, 5, 33)
	if err != nil {
		t.Fatal(err)
	}
	if g.M() != m0 {
		t.Fatalf("edge count changed: %d -> %d", m0, g.M())
	}
	if err := g.CheckSimple(); err != nil {
		t.Fatalf("result not simple: %v", err)
	}
	if !sameDegrees(degs, degreeMultiset(g)) {
		t.Fatal("degree multiset changed")
	}
	if want := int64(5 * (400 / 2)); st.Ops != want {
		t.Fatalf("ops %d, want %d", st.Ops, want)
	}
	if st.VisitRate <= 0 || st.VisitRate > 1 {
		t.Fatalf("visit rate %v out of range", st.VisitRate)
	}
	if _, err := SequentialCurveball(g, -1, 33); err == nil {
		t.Fatal("negative round count accepted")
	}
}

// graphEdgeHash recomputes Result.EdgeHash from a whole graph (the sum
// rankEngine.edgeHash folds over partitions).
func graphEdgeHash(g *graph.Graph) uint64 {
	var h uint64
	for e, orig := range edgeFlagMap(g) {
		x := uint64(e.U)<<33 | uint64(e.V)<<1
		if orig {
			x |= 1
		}
		x ^= x >> 30
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 27
		x *= 0x94d049bb133111eb
		x ^= x >> 31
		h += x
	}
	return h
}

// curveballVsSequential runs the distributed engine under cfg and
// requires the sequential reference's graph, edge for edge and flag for
// flag, and its fingerprint.
func curveballVsSequential(t *testing.T, label string, g *graph.Graph, rounds int64, cfg Config, want map[graph.Edge]bool, wantHash uint64) {
	t.Helper()
	cfg.Algorithm = AlgoCurveball
	res, err := Parallel(g, rounds, cfg)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	checkCurveballRun(t, g, res, rounds)
	sameEdgeFlags(t, label, want, edgeFlagMap(res.Graph))
	if res.EdgeHash != wantHash {
		t.Fatalf("%s: EdgeHash %#x, sequential reference %#x", label, res.EdgeHash, wantHash)
	}
}

// TestCurveballFlatEquivalence widens the trade-for-trade pin to the
// shapes the flat path treats specially. On small graphs the whole
// matrix p ∈ {1, 2, 3, 8} × CP / HP-U / HP-D × mem / TCP runs sanitized:
// a dense odd-n graph (most paired vertices are adjacent — the pair edge
// — and one vertex sits out each round) and a graph half of whose
// vertices are isolated (degree-zero trades and sides). A pergen pa
// graph with hubs (trade sides past sortCBEdges' insertion-sort cut-off,
// and per-destination runs far past the flush cap at small p) covers a
// cross-section of the matrix.
func TestCurveballFlatEquivalence(t *testing.T) {
	const rounds, seed = 3, 19
	reference := func(g *graph.Graph) (map[graph.Edge]bool, uint64) {
		seq := g.Clone(rng.New(1))
		if _, err := SequentialCurveball(seq, rounds, seed); err != nil {
			t.Fatal(err)
		}
		return edgeFlagMap(seq), graphEdgeHash(seq)
	}

	dense := testGraph(t, 61, 41, 600)
	sparse := graph.New(120)
	for _, ed := range testGraph(t, 62, 60, 200).Edges() {
		sparse.AddEdge(ed, rng.New(1))
	}
	for name, g := range map[string]*graph.Graph{"dense-odd": dense, "half-isolated": sparse} {
		want, wantHash := reference(g)
		for _, p := range []int{1, 2, 3, 8} {
			for _, scheme := range []Scheme{SchemeCP, SchemeHPU, SchemeHPD} {
				for _, tcp := range []bool{false, true} {
					label := fmt.Sprintf("%s p=%d %s tcp=%v", name, p, scheme, tcp)
					cfg := Config{Ranks: p, Scheme: scheme, Seed: seed, UseTCP: tcp, CheckInvariants: true}
					curveballVsSequential(t, label, g, rounds, cfg, want, wantHash)
				}
			}
		}
	}

	pg, err := pergen.New(pergen.Spec{Model: pergen.ModelPA, Seed: 8, N: 5001, D: 10})
	if err != nil {
		t.Fatal(err)
	}
	pa, err := pg.Full()
	if err != nil {
		t.Fatal(err)
	}
	if d := slices.Max(pa.Degrees()); d <= 24 {
		t.Fatalf("pa graph's largest degree is %d: no trade side reaches the slices.SortFunc arm", d)
	}
	want, wantHash := reference(pa)
	for _, cfg := range []Config{
		{Ranks: 1, Scheme: SchemeHPD},
		{Ranks: 2, Scheme: SchemeHPD, CheckInvariants: true},
		{Ranks: 2, Scheme: SchemeCP, UseTCP: true},
		{Ranks: 3, Scheme: SchemeHPU},
		{Ranks: 8, Scheme: SchemeHPD, UseTCP: true},
		{Ranks: 8, Scheme: SchemeCP},
	} {
		cfg.Seed = seed
		label := fmt.Sprintf("pa p=%d %s tcp=%v", cfg.Ranks, cfg.Scheme, cfg.UseTCP)
		curveballVsSequential(t, label, pa, rounds, cfg, want, wantHash)
	}
}

// TestCurveballSteadyStateAllocs counts instead of timing: once the
// first two rounds have sized the arena, the two settled lists and the
// run buffers, a round on the pa graph costs less than one heap
// allocation per ten trades, all ranks together (about one per 40, one
// per 25 under -race). The delta between a one-round and a five-round
// run of the same configuration is rounds 2..5; setup and teardown
// cancel.
func TestCurveballSteadyStateAllocs(t *testing.T) {
	spec := pergen.Spec{Model: pergen.ModelPA, Seed: 8, N: 5001, D: 10}
	mallocs := func(rounds int64) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := Parallel(nil, rounds, Config{
			Ranks: 2, Scheme: SchemeHPD, Seed: 19, Algorithm: AlgoCurveball,
			SkipResult: true, DistributedGen: &spec,
		}); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	const k = 5
	one, many := mallocs(1), mallocs(k)
	trades := uint64(k-1) * uint64(spec.N/2)
	t.Logf("1 round: %d mallocs, %d rounds: %d; %d trades in rounds 2..%d", one, k, many, trades, k)
	if many > one && many-one >= trades/10 {
		t.Fatalf("rounds 2..%d made %d allocations for %d trades, want fewer than one per ten trades", k, many-one, trades)
	}
}
