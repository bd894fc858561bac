package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"edgeswitch/internal/gen"
	"edgeswitch/internal/graph"
	"edgeswitch/internal/mpi"
	"edgeswitch/internal/partition"
	"edgeswitch/internal/rng"
)

// runEnt is one edge-run entry for crafting runs by hand.
type runEnt struct {
	key, other uint32
	flags      byte
}

// mkRun encodes entries as handleRun receives them — the run from its
// kind byte on (the frame's length prefix is the chassis's to strip) —
// independently of sendBuffer.addRun.
func mkRun(ents ...runEnt) []byte {
	buf := binary.LittleEndian.AppendUint32([]byte{byte(mEdgeRun)}, uint32(len(ents)))
	for _, e := range ents {
		buf = binary.LittleEndian.AppendUint32(buf, e.key)
		buf = binary.LittleEndian.AppendUint32(buf, e.other)
		buf = append(buf, e.flags)
	}
	return buf
}

// framed puts a run behind the batch frame's length prefix.
func framed(run []byte) []byte { return append([]byte{runHdrLen}, run...) }

// TestEdgeRunEncoding pins sendBuffer.addRun to the documented layout:
// entries extend the open run, a conversation record closes it, and the
// next entry opens a new one.
func TestEdgeRunEncoding(t *testing.T) {
	w, err := mpi.NewWorld(2)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	ents := []runEnt{
		{7, 1_000_000, runTrade | runAnchorV | runOrig},
		{0, 3, runTrade},
		{1 << 31, 5, runOrig},
	}
	err = w.Run(func(c *mpi.Comm) error {
		if c.Rank() != 0 {
			return nil
		}
		var sb sendBuffer
		sb.init(c)
		for _, e := range ents[:2] {
			sb.addRun(1, e.key, e.other, e.flags)
		}
		sb.add(1, opMsg{kind: mEndOfStep})
		sb.addRun(1, ents[2].key, ents[2].other, ents[2].flags)
		want := framed(mkRun(ents[:2]...))
		want = appendOpMsg(want, opMsg{kind: mEndOfStep})
		want = append(want, framed(mkRun(ents[2]))...)
		if !bytes.Equal(sb.bufs[1], want) {
			return fmt.Errorf("batch is % x, want % x", sb.bufs[1], want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// armedCurveball builds a two-rank curveball world over a small graph —
// an ER core plus as many isolated vertices, so some trades are empty —
// and runs rank 0's prepare for round 1 by hand: rank 0 then holds
// executed trades, trades still waiting for rank 1's edges, and a
// settled list — the state a peer's runs arrive into. Rank 1 never runs,
// so what rank 0 sends just sits in its mailbox.
func armedCurveball(tb testing.TB) *curveball {
	tb.Helper()
	core, err := gen.ErdosRenyi(rng.New(3), 60, 200)
	if err != nil {
		tb.Fatal(err)
	}
	const n = 120
	pt, err := partition.NewHPD(2)
	if err != nil {
		tb.Fatal(err)
	}
	parts := make([][]graph.Edge, 2)
	for _, ed := range core.Edges() {
		parts[pt.Owner(ed.U)] = append(parts[pt.Owner(ed.U)], ed)
	}
	w, err := mpi.NewWorld(2)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { w.Close() })
	cfg := Config{Ranks: 2, Scheme: SchemeHPD, Seed: 9, Algorithm: AlgoCurveball}
	var r0 *curveball
	err = w.Run(func(c *mpi.Comm) error {
		e, err := loadTestEngine(c, pt, n, core.M(), parts[c.Rank()], cfg)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			r0 = e.rand.(*curveball)
		}
		return nil
	})
	if err != nil {
		tb.Fatal(err)
	}
	if err := r0.prepare(1, nil); err != nil {
		tb.Fatal(err)
	}
	return r0
}

// pickTrade returns the index of a trade in the armed state satisfying
// ok (nil state for trades rank 0 does not orchestrate).
func pickTrade(tb testing.TB, r *curveball, what string, ok func(li int32, ts *cbTrade) bool) uint32 {
	tb.Helper()
	for t, li := range r.orch {
		var ts *cbTrade
		if li >= 0 {
			ts = &r.trades[li]
		}
		if ok(li, ts) {
			return uint32(t)
		}
	}
	tb.Fatalf("armed state has no %s trade", what)
	return 0
}

// spare returns count vertices that are neither endpoint of the trade,
// as stand-in neighbours.
func spare(ts *cbTrade, count int) []uint32 {
	var out []uint32
	for x := 0; len(out) < count; x++ {
		if v := graph.Vertex(x); v != ts.u && v != ts.v {
			out = append(out, uint32(x))
		}
	}
	return out
}

// TestEdgeRunRejectsCorruption feeds rank 0 runs a corrupt or hostile
// peer could send. Each must come back as an error naming the rank and
// the round — never a panic, never a write outside the addressed
// trade's arena slice.
func TestEdgeRunRejectsCorruption(t *testing.T) {
	pending := func(li int32, ts *cbTrade) bool { return ts != nil && !ts.done && ts.du >= 2 && ts.dv >= 2 }
	untouched := func(li int32, ts *cbTrade) bool {
		return pending(li, ts) && ts.nU == 0 && ts.nV == 0 && ts.pairFlag == 0
	}
	cases := []struct {
		name string
		run  func(t *testing.T, r *curveball) []byte
		want string
	}{
		{"truncated header", func(*testing.T, *curveball) []byte { return mkRun()[:runHdrLen-2] }, "cut off inside"},
		{"truncated entries", func(*testing.T, *curveball) []byte {
			run := mkRun(runEnt{0, 1, 0}, runEnt{0, 2, 0})
			return run[:len(run)-1]
		}, "claims 2 entries, its payload holds 1"},
		{"count beyond payload", func(*testing.T, *curveball) []byte {
			run := mkRun(runEnt{0, 1, 0})
			run[1] = 200
			return run
		}, "claims 200 entries"},
		{"trade index 1<<30", func(*testing.T, *curveball) []byte { return mkRun(runEnt{1 << 30, 1, runTrade}) }, "invalid trade 1073741824"},
		{"trade index 1<<31", func(*testing.T, *curveball) []byte { return mkRun(runEnt{1 << 31, 1, runTrade}) }, "invalid trade 2147483648"},
		{"trade index n/2", func(t *testing.T, r *curveball) []byte { return mkRun(runEnt{uint32(len(r.orch)), 1, runTrade}) }, "invalid trade"},
		{"foreign trade", func(t *testing.T, r *curveball) []byte {
			tr := pickTrade(t, r, "foreign", func(li int32, _ *cbTrade) bool { return li < 0 })
			return mkRun(runEnt{tr, 1, runTrade})
		}, "foreign trade"},
		{"finished trade", func(t *testing.T, r *curveball) []byte {
			tr := pickTrade(t, r, "finished", func(_ int32, ts *cbTrade) bool { return ts != nil && ts.done })
			ts := &r.trades[r.orch[tr]]
			return mkRun(runEnt{tr, spare(ts, 1)[0], runTrade})
		}, "finished trade"},
		{"u side overfull", func(t *testing.T, r *curveball) []byte {
			tr := pickTrade(t, r, "pending", pending)
			ts := &r.trades[r.orch[tr]]
			var ents []runEnt
			for _, x := range spare(ts, int(ts.du)+1) {
				ents = append(ents, runEnt{tr, x, runTrade})
			}
			return mkRun(ents...)
		}, "got more than the"},
		{"v side overfull", func(t *testing.T, r *curveball) []byte {
			tr := pickTrade(t, r, "pending", pending)
			ts := &r.trades[r.orch[tr]]
			var ents []runEnt
			for _, x := range spare(ts, int(ts.dv)+1) {
				ents = append(ents, runEnt{tr, x, runTrade | runAnchorV})
			}
			return mkRun(ents...)
		}, "got more than the"},
		{"pair edge overfills", func(t *testing.T, r *curveball) []byte {
			tr := pickTrade(t, r, "untouched", untouched)
			ts := &r.trades[r.orch[tr]]
			var ents []runEnt
			for _, x := range spare(ts, int(ts.du)) {
				ents = append(ents, runEnt{tr, x, runTrade})
			}
			return mkRun(append(ents, runEnt{tr, uint32(ts.v), runTrade})...)
		}, "overfills trade"},
		{"duplicate pair edge", func(t *testing.T, r *curveball) []byte {
			tr := pickTrade(t, r, "untouched", untouched)
			ts := &r.trades[r.orch[tr]]
			return mkRun(runEnt{tr, uint32(ts.v), runTrade}, runEnt{tr, uint32(ts.u), runTrade | runAnchorV})
		}, "duplicate pair edge"},
		{"anchored at itself", func(t *testing.T, r *curveball) []byte {
			tr := pickTrade(t, r, "pending", pending)
			return mkRun(runEnt{tr, uint32(r.trades[r.orch[tr]].u), runTrade})
		}, "anchored at its own endpoint"},
		{"foreign settled edge", func(t *testing.T, r *curveball) []byte {
			return mkRun(runEnt{1, 2, runOrig}) // HP-D: odd vertices live on rank 1
		}, "belongs to rank 1"},
		{"unnormalized settled edge", func(*testing.T, *curveball) []byte { return mkRun(runEnt{5, 5, 0}) }, "not normalized"},
		{"vertex out of range", func(t *testing.T, r *curveball) []byte { return mkRun(runEnt{0, uint32(len(r.perm)), 0}) }, "names vertex"},
		{"unknown flag", func(*testing.T, *curveball) []byte { return mkRun(runEnt{0, 1, 0x80}) }, "bad flags"},
		{"anchor bit on a settled edge", func(*testing.T, *curveball) []byte { return mkRun(runEnt{0, 1, runAnchorV}) }, "bad flags"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := armedCurveball(t)
			run := tc.run(t, r)
			_, err := r.handleRun(run, 1)
			if err == nil {
				t.Fatal("corrupt run accepted")
			}
			msg := err.Error()
			for _, want := range []string{tc.want, "rank 0", "round 1"} {
				if !strings.Contains(msg, want) {
					t.Fatalf("error %q does not mention %q", msg, want)
				}
			}
		})
	}

	t.Run("overfull side stays inside its slice", func(t *testing.T) {
		r := armedCurveball(t)
		tr := pickTrade(t, r, "pending", pending)
		ts := &r.trades[r.orch[tr]]
		before := append([]uint32(nil), r.arena...)
		var ents []runEnt
		for _, x := range spare(ts, int(ts.du)+1) {
			ents = append(ents, runEnt{tr, x, runTrade})
		}
		if _, err := r.handleRun(mkRun(ents...), 1); err == nil {
			t.Fatal("overfull u side accepted")
		}
		for i := range r.arena {
			inside := i >= ts.off && i < ts.off+int(ts.du)
			if !inside && r.arena[i] != before[i] {
				t.Fatalf("arena[%d] changed, outside trade %d's u slice [%d, %d)", i, tr, ts.off, ts.off+int(ts.du))
			}
		}
	})

	// A run whose counts are right but whose u side holds one arrival
	// replaced by a copy of another, the way
	// TestCurveballRejectsDuplicateSettledEdge corrupts a settled list. No
	// count check can see it; the neighbours trade earlier, so the trade's
	// outputs settle and nothing downstream refuses them either.
	t.Run("repeated neighbour", func(t *testing.T) {
		r := armedCurveball(t)
		tr := -1
		for k, li := range r.orch {
			if li >= 0 && untouched(li, &r.trades[li]) {
				tr = k // the last such trade: the most earlier ones
			}
		}
		if tr < 0 {
			t.Fatal("armed state has no untouched trade")
		}
		ts := &r.trades[r.orch[tr]]
		var earlier []uint32
		for x, tx := range r.tradeOf {
			if tx < int32(tr) && len(earlier) < int(ts.du+ts.dv) {
				earlier = append(earlier, uint32(x))
			}
		}
		if len(earlier) < int(ts.du+ts.dv) {
			t.Fatalf("trade %d: %d vertices trade earlier, want %d", tr, len(earlier), ts.du+ts.dv)
		}
		var ents []runEnt
		for i, x := range earlier {
			if i < int(ts.du) {
				ents = append(ents, runEnt{uint32(tr), x, runTrade})
			} else {
				ents = append(ents, runEnt{uint32(tr), x, runTrade | runAnchorV})
			}
		}
		ents[1].other = ents[0].other
		_, err := r.handleRun(mkRun(ents...), 1)
		if !errors.Is(err, errRepeatedNeighbour) {
			t.Fatalf("got %v, want %v", err, errRepeatedNeighbour)
		}
		want := fmt.Sprintf("rank 0 round 1: trade %d: %v: vertex %d holds %d twice", tr, errRepeatedNeighbour, ts.u, earlier[0])
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not say %q", err, want)
		}
	})

	// The chassis hands handleRun the batch from the run's kind byte on
	// and resumes after the bytes it reports.
	t.Run("valid run through the chassis", func(t *testing.T) {
		r := armedCurveball(t)
		v := uint32(r.e.verts[0])
		batch := appendOpMsg(framed(mkRun(runEnt{v, v + 1, 0})), opMsg{kind: mEndOfStep})
		settled := len(r.settled)
		if err := r.e.handle(mpi.Message{Src: 1, Data: batch}); err != nil {
			t.Fatal(err)
		}
		if len(r.settled) != settled+1 || r.e.eosOthers != 1 {
			t.Fatalf("batch left %d new settled edges and %d end-of-step signals, want 1 and 1", len(r.settled)-settled, r.e.eosOthers)
		}
	})
}

// TestCurveballRejectsDuplicateSettledEdge: a corrupt settled list never
// survives a round boundary silently, although the list is carried to the
// next round without a sort. An extra copy of a settled edge fails at
// that boundary's edge-count check; a settled edge replaced by a copy of
// another (the count intact) fails in the next round, where the copy's
// trade side collects more than its degree. Either error names the rank
// and the round.
func TestCurveballRejectsDuplicateSettledEdge(t *testing.T) {
	g := testGraph(t, 46, 60, 240)
	round1 := func(t *testing.T) *curveball {
		eng, w := newTestEngineCfg(t, g, Config{Seed: 5, Algorithm: AlgoCurveball})
		t.Cleanup(func() { w.Close() })
		r := eng.rand.(*curveball)
		if err := r.prepare(1, nil); err != nil {
			t.Fatal(err)
		}
		if r.pending != 0 || int64(len(r.settled)) != g.M() {
			t.Fatalf("single-rank round left %d trades pending and settled %d of %d edges", r.pending, len(r.settled), g.M())
		}
		return r
	}
	requireNamed := func(t *testing.T, err error, wants ...string) {
		t.Helper()
		if err == nil {
			t.Fatal("corrupt settled list accepted")
		}
		t.Logf("refused: %v", err)
		for _, want := range wants {
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("error %q does not mention %q", err, want)
			}
		}
	}

	t.Run("extra copy", func(t *testing.T) {
		r := round1(t)
		r.settled = append(r.settled, r.settled[len(r.settled)/2])
		requireNamed(t, r.endStep(), "edge count", "rank 0", "round 1")
	})

	t.Run("replaced by a copy", func(t *testing.T) {
		r := round1(t)
		edge := func(se slotEdge) graph.Edge { return graph.Edge{U: r.e.verts[se.slot], V: se.v} }
		touches := func(ed graph.Edge, x graph.Vertex) bool { return ed.U == x || ed.V == x }
		// The copy touches perm[0] of round 2 but not its partner, so it
		// goes to trade 0 anchored at perm[0]; trade 0 collects only routed
		// edges, none forwarded by an earlier trade, so that side sees all
		// of its edges plus the copy. The replaced edge is disjoint from the
		// copy.
		perm := make([]graph.Vertex, g.N())
		cbPermute(perm, r.e.seed, 2)
		c := slices.IndexFunc(r.settled, func(se slotEdge) bool {
			return touches(edge(se), perm[0]) && !touches(edge(se), perm[1])
		})
		if c < 0 {
			t.Fatalf("no settled edge at vertex %d", perm[0])
		}
		cp := edge(r.settled[c])
		i := slices.IndexFunc(r.settled, func(se slotEdge) bool {
			return !touches(edge(se), cp.U) && !touches(edge(se), cp.V)
		})
		if i < 0 {
			t.Fatalf("no settled edge disjoint from %v", cp)
		}
		r.settled[i] = r.settled[c]
		if err := r.endStep(); err != nil {
			t.Fatalf("the boundary refused a list of the right length: %v", err)
		}
		requireNamed(t, r.prepare(1, nil), "rank 0", "round 2", "trade 0")
	})
}

// oneRankOwns is a two-part partitioner: rank 1 owns the marked
// vertices, rank 0 all others.
type oneRankOwns []bool

func (o oneRankOwns) Owner(v graph.Vertex) int {
	if o[v] {
		return 1
	}
	return 0
}
func (oneRankOwns) Parts() int   { return 2 }
func (oneRankOwns) Name() string { return "one-rank-owns" }

// TestCurveballStuckRoundFails drives the replaced-by-a-copy corruption
// of TestCurveballRejectsDuplicateSettledEdge through two full rounds of
// a two-rank world, choosing the edges so that no trade side ever holds
// more than its degree. Replacing X = {perm[0], z} of round 2 leaves
// trade 0 waiting forever; the copy of C = {w, y} lands on w's side of
// w's trade, which also waits for the two edges trade 0 would forward to
// w (a shared neighbour of trade 0's pair), so that side never fills.
// Rank 1 owns vertices that orchestrate no trade of round 2, so it ends
// the round; rank 0 must then refuse the round by name instead of waiting
// for arrivals that cannot come.
func TestCurveballStuckRoundFails(t *testing.T) {
	const seed = 5
	g := testGraph(t, 46, 60, 600)
	n := g.N()
	// Curveball is p-invariant: the sequential reference's round 1 is the
	// graph every world carries into round 2.
	g1 := g.Clone(rng.New(1))
	if _, err := SequentialCurveball(g1, 1, seed); err != nil {
		t.Fatal(err)
	}
	adj := g1.FullAdjacency()
	perm := make([]graph.Vertex, n)
	cbPermute(perm, seed, 2)
	tradeOf := make([]int32, n)
	cbAssignTrades(tradeOf, perm)
	u0, v0 := perm[0], perm[1]
	var x, c graph.Edge
	found := false
	for _, w := range adj[u0] {
		if w == v0 || !slices.Contains(adj[v0], w) {
			continue
		}
		yi := slices.IndexFunc(adj[w], func(y graph.Vertex) bool { return y != u0 && y != v0 && tradeOf[y] > tradeOf[w] })
		if yi < 0 {
			continue
		}
		y := adj[w][yi]
		zi := slices.IndexFunc(adj[u0], func(z graph.Vertex) bool { return z != v0 && z != w && z != y })
		if zi < 0 {
			continue
		}
		x, c, found = graph.Edge{U: u0, V: adj[u0][zi]}.Norm(), graph.Edge{U: w, V: y}.Norm(), true
		break
	}
	if !found {
		t.Fatalf("round 2's trade 0 (%d, %d) has no usable shared neighbour", u0, v0)
	}
	owns := make(oneRankOwns, n)
	for i := 1; i < n; i += 2 {
		if v := perm[i]; v != x.U && v != c.U {
			owns[v] = true
		}
	}

	w, err := mpi.NewWorld(2)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	done := make(chan error, 1)
	go func() {
		done <- w.Run(func(comm *mpi.Comm) error {
			var mine []graph.Edge
			for _, ed := range g.Edges() {
				if owns.Owner(ed.U) == comm.Rank() {
					mine = append(mine, ed)
				}
			}
			e, err := loadTestEngine(comm, owns, n, g.M(), mine, Config{Seed: seed, Algorithm: AlgoCurveball})
			if err != nil {
				return err
			}
			defer e.adj.Close()
			return curveballRounds(e, x, c)
		})
	}()
	select {
	case err = <-done:
	case <-time.After(time.Minute):
		w.Close()
		t.Fatal("round 2 hung")
	}
	t.Logf("refused: %v", err)
	if !errors.Is(err, errRoundStuck) {
		t.Fatalf("got %v, want %v", err, errRoundStuck)
	}
	if want := fmt.Sprintf("rank 0 round 2: %v: ", errRoundStuck); !strings.Contains(err.Error(), want) || !strings.Contains(err.Error(), fmt.Sprintf("first trade 0 of (%d, %d)", u0, v0)) {
		t.Fatalf("error %q does not name rank 0, round 2 and trade 0", err)
	}
}

// curveballRounds runs two rounds of e's world as the chassis does,
// replacing rank 0's carried copy of x by one of c between them.
func curveballRounds(e *rankEngine, x, c graph.Edge) error {
	for round := 1; round <= 2; round++ {
		counts, _, err := e.stepExchange()
		if err != nil {
			return err
		}
		if round == 2 && e.c.Rank() == 0 {
			at := func(ed graph.Edge) int {
				return slices.IndexFunc(e.carried, func(se slotEdge) bool { return se.slot == e.slot[ed.U] && se.v == ed.V })
			}
			xi, ci := at(x), at(c)
			if xi < 0 || ci < 0 {
				return fmt.Errorf("rank 0 does not carry %v and %v into round 2", x, c)
			}
			e.carried[xi] = e.carried[ci]
		}
		if err := e.beginStep(1, counts); err != nil {
			return err
		}
		if err := e.stepLoop(); err != nil {
			return err
		}
		if err := e.checkStepInvariants(); err != nil {
			return err
		}
	}
	return errors.New("the corrupt round ended")
}

// TestEdgeSwitchRejectsEdgeRun: a run reaching an edge-switch engine is
// a protocol error, reported through the chassis.
func TestEdgeSwitchRejectsEdgeRun(t *testing.T) {
	eng, w := newTestEngine(t, testGraph(t, 46, 60, 240))
	defer w.Close()
	if err := eng.handle(mpi.Message{Src: 0, Data: framed(mkRun(runEnt{0, 1, 0}))}); err == nil || !strings.Contains(err.Error(), "edge run") {
		t.Fatalf("edge-switch engine took an edge run: %v", err)
	}
}

// TestCurveballRejectsRecords mirrors TestEdgeSwitchRejectsEdgeRun: a
// conversation or stall record reaching a curveball engine is refused
// through the chassis, by a named error that names its sender.
func TestCurveballRejectsRecords(t *testing.T) {
	r := armedCurveball(t)
	for _, om := range []opMsg{
		{kind: mSelectSecond, id: opID{rank: 1, slot: 5, seq: 1}, e1: graph.Edge{U: 1, V: 2}},
		{kind: mStalled},
	} {
		err := r.e.handle(mpi.Message{Src: 1, Data: appendOpMsg(nil, om)})
		if !errors.Is(err, errCurveballRecord) || !strings.Contains(err.Error(), fmt.Sprintf("%v from rank 1", om.kind)) {
			t.Errorf("curveball engine took %v from rank 1: %v", om.kind, err)
		}
	}
}

// FuzzEdgeRun: whatever bytes arrive as a run, rank 0 answers with a
// consumed length inside the payload or an error.
func FuzzEdgeRun(f *testing.F) {
	f.Add(mkRun())
	f.Add(mkRun()[:3])
	f.Add(mkRun(runEnt{0, 1, 0}, runEnt{1, 2, runOrig}))
	f.Add(mkRun(runEnt{1 << 30, 1, runTrade}))
	f.Add(mkRun(runEnt{3, 7, runTrade | runAnchorV | runOrig}, runEnt{3, 8, runTrade}))
	f.Add(append(mkRun(runEnt{0, 1, 0}), 0xff, 0xff))
	huge := mkRun(runEnt{0, 1, 0})
	huge[1], huge[2], huge[3], huge[4] = 0xff, 0xff, 0xff, 0xff
	f.Add(huge)
	f.Fuzz(func(t *testing.T, data []byte) {
		r := armedCurveball(t)
		n, err := r.handleRun(data, 1)
		if err == nil && (n < runHdrLen || n > len(data)) {
			t.Fatalf("run of %d bytes reported %d consumed", len(data), n)
		}
	})
}
