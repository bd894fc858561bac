package core

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"

	"edgeswitch/internal/gen"
	"edgeswitch/internal/graph"
	"edgeswitch/internal/mpi"
	"edgeswitch/internal/rng"
)

// TestCustodyDifferential drives the open-addressed custody table
// against a map model from a 4-slot start, so probe runs wrap past the
// end, backward-shift deletion moves entries across it, and the table
// doubles several times; a narrow key range makes collisions and
// re-adds of removed keys common.
func TestCustodyDifferential(t *testing.T) {
	type ent struct {
		tag uint8
		op  opID
	}
	r := rng.New(11)
	c := newCustody(4)
	model := map[graph.Edge]ent{}
	check := func(step int) {
		t.Helper()
		held, reserved := 0, 0
		for ed, want := range model {
			i, ok := c.find(edgeKey(ed))
			if !ok {
				t.Fatalf("step %d: %v lost", step, ed)
			}
			if got := c.slots[i]; got.tag != want.tag|custUsed || got.op != want.op {
				t.Fatalf("step %d: %v holds %+v, want %+v", step, ed, got, want)
			}
			if want.tag&custReserved != 0 {
				reserved++
			} else {
				held++
			}
		}
		used := 0
		for _, s := range c.slots {
			if s.tag != 0 {
				used++
			}
		}
		if c.live != [2]int{held, reserved} || used != len(model) || 2*used > len(c.slots) {
			t.Fatalf("step %d: counters %d held %d reserved, %d used of %d slots; model %d/%d",
				step, c.live[0], c.live[1], used, len(c.slots), held, reserved)
		}
	}
	for step := 0; step < 20000; step++ {
		// Grow the live set for the first half, then drain it.
		keyRange, addBias := 96, 3
		if step > 10000 {
			addBias = 1
		}
		ed := graph.Edge{U: graph.Vertex(r.Intn(keyRange / 8)), V: graph.Vertex(r.Intn(8))}
		_, present := model[ed]
		switch {
		case present:
			i, _ := c.find(edgeKey(ed))
			c.remove(i)
			delete(model, ed)
			if _, ok := c.find(edgeKey(ed)); ok {
				t.Fatalf("step %d: %v found after remove", step, ed)
			}
		case r.Intn(4) < addBias:
			tag := []uint8{0, custOrig, custReserved}[r.Intn(3)]
			op := opID{}
			if tag == custReserved {
				op = opID{rank: int32(r.Intn(4)), slot: int32(r.Intn(opWindow)), seq: r.Uint64()}
			}
			c.add(edgeKey(ed), tag, op)
			model[ed] = ent{tag, op}
		default:
			if _, ok := c.find(edgeKey(ed)); ok {
				t.Fatalf("step %d: absent %v found", step, ed)
			}
		}
		check(step)
	}
	if len(c.slots) < 64 {
		t.Fatalf("table never grew past %d slots", len(c.slots))
	}
}

// takeRandomEdge takes a uniform random local edge into custody, as a
// waiting operation holds it.
func (r *edgeSwitcher) takeRandomEdge() graph.Edge {
	ed, orig := r.e.takeLocal()
	r.hold(ed, orig)
	return ed
}

// forcePartner makes every later partner draw pick rank p.
func (r *edgeSwitcher) forcePartner(p int) {
	for i := range r.cumEdges {
		r.cumEdges[i] = int64(min(max(i-p, 0), 1))
	}
}

// armedSwitchers bootstraps a live 2-rank edge-switch world (HP-D, a
// small random graph) and arms both ranks for a step: a quota and a
// uniform partner distribution, set directly rather than by prepare.
// Messages a test makes them send stay queued in the message plane or
// the peer's mailbox.
func armedSwitchers(tb testing.TB) []*edgeSwitcher {
	tb.Helper()
	g, err := gen.ErdosRenyi(rng.New(12), 80, 320)
	if err != nil {
		tb.Fatal(err)
	}
	return armedWorld(tb, g, 2)
}

// armedWorld is armedSwitchers on graph g over p ranks.
func armedWorld(tb testing.TB, g *graph.Graph, p int) []*edgeSwitcher {
	tb.Helper()
	w, err := mpi.NewWorld(p)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { w.Close() })
	rs := make([]*edgeSwitcher, p)
	err = w.Run(func(c *mpi.Comm) error {
		e, err := bootstrap(c, graphSource(g), 0, Config{Seed: 5, Scheme: SchemeHPD, CheckInvariants: true})
		if err != nil {
			return err
		}
		rs[c.Rank()] = e.rand.(*edgeSwitcher)
		return nil
	})
	if err != nil {
		tb.Fatal(err)
	}
	for _, r := range rs {
		tb.Cleanup(func() { r.e.adj.Close() })
		r.remaining = 1 << 20
		r.cumEdges = make([]int64, p+1)
		for i := range r.cumEdges {
			r.cumEdges[i] = int64(i)
		}
	}
	return rs
}

// TestOpSlotReuse: a finished own operation's window slot is the next
// one started, after a commit (mOpDone) and after an abort (mAbortOp),
// and the finished id is stale from then on. The partner is the peer, so
// every operation waits in the window.
func TestOpSlotReuse(t *testing.T) {
	r := armedSwitchers(t)[0]
	r.forcePartner(1)
	started := func() opID {
		t.Helper()
		if err := r.startOp(); err != nil {
			t.Fatal(err)
		}
		id := opID{rank: 0, slot: r.freeSlots[r.nFree], seq: r.seq}
		if _, held := r.custody.find(edgeKey(r.own[id.slot].e1)); !held || !r.own[id.slot].live || r.own[id.slot].seq != id.seq {
			t.Fatalf("%v not in its slot: %+v", id, r.own[id.slot])
		}
		return id
	}
	first := started()
	other := started()
	if other.slot == first.slot {
		t.Fatalf("two live ops share slot %d", first.slot)
	}
	e1 := r.own[first.slot].e1
	if err := r.onOwnReply(first, mOpDone); err != nil {
		t.Fatal(err)
	}
	if _, held := r.custody.find(edgeKey(e1)); held || r.inFlight() != 1 {
		t.Fatalf("committed op left custody %d / %d in flight", r.custody.live[0], r.inFlight())
	}
	second := started()
	if second.slot != first.slot || second.seq != other.seq+1 {
		t.Fatalf("after commit: %v, want slot %d reused", second, first.slot)
	}
	if err := r.onOwnReply(first, mOpDone); !errors.Is(err, errOpStale) {
		t.Fatalf("stale done: %v", err)
	}
	edges := r.e.deg.Total()
	if err := r.onOwnReply(second, mAbortOp); err != nil {
		t.Fatal(err)
	}
	if r.e.deg.Total() != edges+1 || r.e.restarts != 1 {
		t.Fatal("aborted op's first edge not reinserted")
	}
	third := started()
	if third.slot != first.slot {
		t.Fatalf("after abort: %v, want slot %d reused", third, first.slot)
	}
	if err := r.onOwnReply(second, mAbortOp); !errors.Is(err, errOpStale) {
		t.Fatalf("stale abort: %v", err)
	}
}

// TestOpTablesRefuseBadIDs: a record whose rank, slot or seq does not fit
// the tables is refused by name, on both the initiator's and the
// partner's side, and leaves the tables as they were.
func TestOpTablesRefuseBadIDs(t *testing.T) {
	rs := armedSwitchers(t)
	r0 := rs[0]
	r0.forcePartner(1)
	if err := r0.startOp(); err != nil {
		t.Fatal(err)
	}
	own := opID{rank: 0, slot: r0.freeSlots[r0.nFree], seq: r0.seq}
	part := partnerWaiting(t, rs)
	for _, tc := range []struct {
		m    opMsg
		src  int
		want error
	}{
		{opMsg{kind: mOpDone, id: opID{rank: 1, slot: own.slot, seq: own.seq}}, 1, errOpRank},
		{opMsg{kind: mAbortOp, id: opID{rank: 0, slot: opWindow, seq: own.seq}}, 1, errOpSlot},
		{opMsg{kind: mAbortOp, id: opID{rank: 0, slot: -1, seq: own.seq}}, 1, errOpSlot},
		{opMsg{kind: mOpDone, id: opID{rank: 0, slot: own.slot, seq: own.seq + 1}}, 1, errOpStale},
		{opMsg{kind: mOpDone, id: opID{rank: 0, slot: own.slot ^ 1, seq: own.seq}}, 1, errOpStale},
		{opMsg{kind: mSelectSecond, id: part}, 1, errOpBusy},
		{opMsg{kind: mSelectSecond, id: opID{rank: 1, slot: 6, seq: 1}}, 0, errOpRank},
		{opMsg{kind: mSelectSecond, id: opID{rank: 2, slot: 0, seq: 1}}, 2, errOpRank},
		{opMsg{kind: mSelectSecond, id: opID{rank: 1, slot: opWindow, seq: 1}}, 1, errOpSlot},
		{opMsg{kind: mCommitted, id: opID{rank: 2, slot: part.slot, seq: part.seq}}, 1, errOpRank},
		{opMsg{kind: mRefused, id: opID{rank: -1, slot: part.slot, seq: part.seq}}, 1, errOpRank},
		{opMsg{kind: mCommitted, id: opID{rank: 1, slot: 1 << 20, seq: part.seq}}, 1, errOpSlot},
		{opMsg{kind: mRefused, id: opID{rank: 1, slot: part.slot + 1, seq: part.seq}}, 1, errOpStale},
		{opMsg{kind: mCommitted, id: opID{rank: 1, slot: part.slot, seq: 0}}, 1, errOpStale},
		{opMsg{kind: mRefused, id: opID{rank: 1, slot: opWindow, seq: part.seq}}, 1, errOpSlot},
		{opMsg{kind: mCommitted, id: opID{rank: 1, slot: part.slot, seq: part.seq + 1}}, 1, errOpStale},
		{opMsg{kind: mRefused, id: opID{rank: 1, slot: -1, seq: part.seq}}, 1, errOpSlot},
	} {
		err := r0.handle(tc.m, tc.src)
		if !errors.Is(err, tc.want) {
			t.Errorf("%v %v from %d: got %v, want %v", tc.m.kind, tc.m.id, tc.src, err, tc.want)
		}
	}
	if o := r0.own[own.slot]; !o.live || o.seq != own.seq || r0.inFlight() != 1 || r0.partnerLive != 1 {
		t.Fatalf("refusals changed the tables: own %+v, %d in flight, %d partner ops", o, r0.inFlight(), r0.partnerLive)
	}
	// The live ids still work.
	if err := r0.onOwnReply(own, mAbortOp); err != nil {
		t.Fatal(err)
	}
}

// partnerWaiting has rank 0 orchestrate operation op[1:1@5] for rank 1,
// each time with a fresh first edge from rank 1, until the operation
// waits on its last agent instead of finishing at once; it returns the
// id.
func partnerWaiting(tb testing.TB, rs []*edgeSwitcher) opID {
	tb.Helper()
	id := opID{rank: 1, slot: 5, seq: 1}
	for !rs[0].partners[opWindow+5].live {
		if err := rs[0].handle(opMsg{kind: mSelectSecond, id: id, e1: rs[1].takeRandomEdge()}, 1); err != nil {
			tb.Fatal(err)
		}
	}
	return id
}

// TestLastAgentRefusals: a last-agent request or reply that does not fit
// the protocol is refused by name and leaves the tables as they were —
// a mask naming no edge, two equal edges, an edge the receiver does not
// own, a relay request whose forward target is the sender, and a reply
// from a rank that was not asked.
func TestLastAgentRefusals(t *testing.T) {
	rs := armedSwitchers(t)
	r0 := rs[0]
	r0.forcePartner(1)
	if err := r0.startOp(); err != nil {
		t.Fatal(err)
	}
	own := opID{rank: 0, slot: r0.freeSlots[r0.nFree], seq: r0.seq}
	part := partnerWaiting(t, rs)
	mine, theirs := graph.Edge{U: 0, V: 79}, graph.Edge{U: 1, V: 79} // HP-D: rank u mod 2 owns (u, v)
	for _, tc := range []struct {
		m    opMsg
		src  int
		want error
	}{
		{opMsg{kind: mLastAgent, id: own, e1: mine, e2: theirs, mask: 0}, 1, errMask},
		{opMsg{kind: mLastAgent, id: own, e1: mine, e2: theirs, mask: 4}, 1, errMask},
		{opMsg{kind: mLastAgent, id: own, e1: mine, e2: mine, mask: 3}, 1, errSameEdge},
		{opMsg{kind: mLastAgent, id: own, e1: theirs, e2: mine, mask: 1}, 1, errNotOwner},
		{opMsg{kind: mLastAgent, id: own, e1: mine, e2: graph.Edge{U: 80, V: 2}, mask: 3}, 1, errNotOwner},
		{opMsg{kind: mLastAgent, id: own, e1: mine, e2: theirs, mask: 3}, 1, errRelayLoop},
		{opMsg{kind: mLastAgent, id: opID{rank: 0, slot: own.slot, seq: own.seq + 1}, e1: mine, mask: 1}, 1, errOpStale},
		{opMsg{kind: mCommitted, id: part}, 0, errAgent},
		{opMsg{kind: mRefused, id: own}, 1, errOpStale},
	} {
		if err := r0.handle(tc.m, tc.src); !errors.Is(err, tc.want) {
			t.Errorf("%v %v mask %d from %d: got %v, want %v", tc.m.kind, tc.m.id, tc.m.mask, tc.src, err, tc.want)
		}
	}
	op := &r0.partners[opWindow+5]
	if r0.inFlight() != 1 || r0.partnerLive != 1 || !op.live || r0.custody.live != [2]int{2, 0} && r0.custody.live != [2]int{2, 1} {
		t.Fatalf("refusals changed the tables: %d in flight, %d partner ops, custody %v", r0.inFlight(), r0.partnerLive, r0.custody.live)
	}
	// The live ids still work.
	if err := r0.handle(opMsg{kind: mRefused, id: part}, 1); err != nil {
		t.Fatal(err)
	}
	if err := r0.handle(opMsg{kind: mLastAgent, id: own, e1: mine, e2: theirs, mask: 1}, 1); err != nil {
		t.Fatal(err)
	}
	if r0.inFlight() != 0 || r0.partnerLive != 0 || r0.custody.live != [2]int{} {
		t.Fatalf("live ids left %d in flight, %d partner ops, custody %v", r0.inFlight(), r0.partnerLive, r0.custody.live)
	}
}

// TestRelayRefusals: on a 3-rank world, a relayed last-agent record or
// a relay request that does not fit the protocol is refused by name and
// leaves the tables as they were — a relayed record naming both edges, a
// relayed edge the receiver does not own, a relay whose forward target
// is the sender, a relay request whose partner entry is busy or whose
// rank is out of range, and a record of a retired two-phase-commit kind. A
// relayed record for the receiver's own operation commits without
// settling it: only the rank answering the partner directly may.
func TestRelayRefusals(t *testing.T) {
	g, err := gen.ErdosRenyi(rng.New(12), 90, 360)
	if err != nil {
		t.Fatal(err)
	}
	rs := armedWorld(t, g, 3)
	r0 := rs[0]
	r0.forcePartner(1)
	if err := r0.startOp(); err != nil {
		t.Fatal(err)
	}
	own := opID{rank: 0, slot: r0.freeSlots[r0.nFree], seq: r0.seq}
	part := partnerWaiting(t, rs)
	// HP-D over 3 ranks: rank u mod 3 owns (u, v).
	var mine graph.Edge
	for u := graph.Vertex(0); mine == (graph.Edge{}); u += 3 {
		if ed := (graph.Edge{U: u, V: 89}); !r0.conflicts(ed) {
			mine = ed
		}
	}
	at1, at2 := graph.Edge{U: 1, V: 89}, graph.Edge{U: 2, V: 89}
	for _, tc := range []struct {
		m    opMsg
		src  int
		want error
	}{
		{opMsg{kind: mLastAgent, id: own, e1: at2, e2: mine, mask: 3 | maskRelayed}, 2, errMask},
		{opMsg{kind: mLastAgent, id: own, e1: mine, e2: at2, mask: 2 | maskRelayed}, 2, errNotOwner},
		{opMsg{kind: mLastAgent, id: own, e1: mine, e2: at2, mask: 3}, 2, errRelayLoop},
		{opMsg{kind: mLastAgent, id: part, e1: mine, e2: at1, mask: 3}, 2, errOpBusy},
		{opMsg{kind: mLastAgent, id: opID{rank: 3, slot: 0, seq: 1}, e1: mine, e2: at1, mask: 3}, 2, errOpRank},
	} {
		if err := r0.handle(tc.m, tc.src); !errors.Is(err, tc.want) {
			t.Errorf("%v %v mask %d from %d: got %v, want %v", tc.m.kind, tc.m.id, tc.m.mask, tc.src, err, tc.want)
		}
	}
	for k := byte(mAbortOp) + 1; k < byte(mOpDone); k++ {
		frame := append([]byte{edgeRecLen, k}, make([]byte, edgeRecLen-1)...)
		if err := r0.e.handle(mpi.Message{Src: 1, Data: frame}); err == nil || !strings.Contains(err.Error(), "unknown message kind") {
			t.Errorf("unassigned kind %d: got %v, want the unknown-kind refusal", k, err)
		}
	}
	if r0.inFlight() != 1 || r0.partnerLive != 1 || r0.custody.live[custReserved] > 1 {
		t.Fatalf("refusals changed the tables: %d in flight, %d partner ops, custody %v", r0.inFlight(), r0.partnerLive, r0.custody.live)
	}
	if err := r0.handle(opMsg{kind: mLastAgent, id: own, e1: at2, e2: mine, mask: 2 | maskRelayed}, 2); err != nil {
		t.Fatal(err)
	}
	if r0.inFlight() != 1 || !r0.conflicts(mine) {
		t.Fatalf("relayed record: %d in flight, edge committed %v; want the op waiting on its partner", r0.inFlight(), r0.conflicts(mine))
	}
}

// hopGraph is a p-rank HP-D fixture for TestConversationHops: rank
// u mod p owns the edges whose smaller endpoint is u.
func hopGraph(tb testing.TB, p int, edges ...graph.Edge) []*edgeSwitcher {
	tb.Helper()
	g, err := graph.FromEdges(8, edges, rng.New(1))
	if err != nil {
		tb.Fatal(err)
	}
	return armedWorld(tb, g, p)
}

// TestConversationHops pins what a switch costs on the wire, one
// operation per locality case on a world whose edges force the case:
// rank 0 initiates with the partner forced, every record is delivered by
// hand, and the log lists each record and the moment the initiator's
// operation completes. Only legs that cross ranks are records; a single
// remote owner commits on reservation, and two remote owners form a relay
// chain. Then a p = 1 run sends nothing at all.
func TestConversationHops(t *testing.T) {
	e := func(u, v graph.Vertex) graph.Edge { return graph.Edge{U: u, V: v} }
	for _, tc := range []struct {
		name     string
		p        int
		edges    []graph.Edge
		reserved []graph.Edge // edges rank 0 holds reserved for another operation
		partner  int
		want     string
	}{
		// Every replacement edge of {0,2}×{4,6} has an even smaller end.
		{"fully local", 2, []graph.Edge{e(0, 2), e(4, 6)}, nil, 0, "done"},
		// {0,1}×{2,3}: one replacement edge starts at 0, the other at 1.
		{"local partner, one remote owner", 2, []graph.Edge{e(0, 1), e(2, 3)}, nil, 0,
			"0→1 lastAgent, 1→0 committed, done"},
		// (0,1)×(3,5): one replacement edge at 0, the other at 1.
		{"remote partner, owners initiator and partner", 2, []graph.Edge{e(0, 1), e(3, 5)}, nil, 1,
			"0→1 selectSecond, 1→0 lastAgent, done, 0→1 committed"},
		// (4,6)×(1,3): both replacement edges start at 1 or 3.
		{"remote partner owns both", 2, []graph.Edge{e(4, 6), e(1, 3)}, nil, 1,
			"0→1 selectSecond, 1→0 opDone, done"},
		// (0,2)×(4,5) at p = 3: edge 0, (0,4) or (0,5), is rank 0's and
		// edge 1, (2,5) or (2,4), rank 2's. With edges owned by their
		// smaller endpoint, the first replacement edge of a relay is
		// always the initiator's, so the relay settles inline.
		{"two remote owners: relay chain", 3, []graph.Edge{e(0, 2), e(4, 5)}, nil, 1,
			"0→1 selectSecond, 1→0 lastAgent, 0→2 lastAgent relayed, 2→0 committed, done, 0→1 committed"},
		{"two remote owners: relay refuses at once", 3, []graph.Edge{e(0, 2), e(4, 5)}, []graph.Edge{e(0, 4), e(0, 5)}, 1,
			"0→1 selectSecond, 1→0 lastAgent, restart, 0→1 refused"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rs := hopGraph(t, tc.p, tc.edges...)
			for _, r := range rs[1:] {
				r.remaining = 0
			}
			rs[0].remaining = 1
			rs[0].forcePartner(tc.partner)
			other := opID{rank: 2, seq: 1}
			for _, ed := range tc.reserved {
				rs[0].custody.add(edgeKey(ed), custReserved, other)
			}
			var log []string
			finished := false
			done := func() {
				switch {
				case !finished && rs[0].done():
					finished = true
					log = append(log, "done")
				case !finished && rs[0].e.restarts == 1 && rs[0].inFlight() == 0:
					finished = true
					log = append(log, "restart")
				}
			}
			if err := rs[0].startOp(); err != nil {
				t.Fatal(err)
			}
			done()
			for moved := true; moved; {
				moved = false
				for from, r := range rs {
					for to, batch := range r.e.sb.bufs {
						if len(batch) == 0 {
							continue
						}
						r.e.sb.bufs[to] = nil
						err := forEachOpMsg(batch, func(m opMsg) error {
							rec := fmt.Sprintf("%d→%d %v", from, to, m.kind)
							if m.mask&maskRelayed != 0 {
								rec += " relayed"
							}
							log = append(log, rec)
							if err := rs[to].handle(m, from); err != nil {
								return err
							}
							done()
							return nil
						})
						if err != nil {
							t.Fatal(err)
						}
						moved = true
					}
				}
			}
			if got := strings.Join(log, ", "); got != tc.want {
				t.Errorf("records %q, want %q", got, tc.want)
			}
			wantOps := int64(1)
			if tc.reserved != nil {
				wantOps = 0
				rs[0].remaining = 0
				for _, ed := range tc.reserved {
					if err := rs[0].unreserve(other, ed, mRefused, false); err != nil {
						t.Fatal(err)
					}
				}
			}
			for _, r := range rs {
				if err := r.endStep(); err != nil {
					t.Error(err)
				}
			}
			if rs[0].e.opsInitiated != wantOps || rs[0].e.restarts != 1-wantOps {
				t.Errorf("%d ops, %d restarts, want %d committed switches", rs[0].e.opsInitiated, rs[0].e.restarts, wantOps)
			}
		})
	}

	g := testGraph(t, 1, 1000, 5000)
	res, err := Parallel(g, 2000, Config{Ranks: 1, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	stats, _ := runCounted(t, g, 2000, Config{Ranks: 1, Seed: 42, SkipResult: true})
	if res.RankMessages[0] != 0 || stats.Sends != 0 || stats.Bytes != 0 {
		t.Errorf("p=1 sent %d records and %d transport payloads (%d bytes), want none", res.RankMessages[0], stats.Sends, stats.Bytes)
	}
}

// FuzzConversationRecord feeds arbitrary records, each framed at its
// kind's length, through the receive path of a live 2-rank engine with
// own and partner operations in flight: every record is handled or
// refused with an error, never a panic or an out-of-range index.
func FuzzConversationRecord(f *testing.F) {
	add := func(m opMsg, src uint8) { f.Add(m.encode(), src) }
	seed := func(kind msgKind, id opID, ed graph.Edge) { add(opMsg{kind: kind, id: id, e1: ed}, 1) }
	for k := mSelectSecond; k <= mEdgeRun; k++ {
		seed(k, opID{rank: 1, slot: 5, seq: 1}, graph.Edge{U: 1, V: 2})
		seed(k, opID{rank: 0, slot: 0, seq: 1}, graph.Edge{U: 0, V: 3})
	}
	seed(mOpDone, opID{rank: 0, slot: opWindow, seq: 1}, graph.Edge{})
	seed(mCommitted, opID{rank: 2, slot: 5, seq: 1}, graph.Edge{})
	seed(mRefused, opID{rank: 1, slot: 5, seq: 0}, graph.Edge{})
	// The retired two-phase-commit kinds, framed at their old lengths.
	for k := byte(mAbortOp) + 1; k < byte(mOpDone); k++ {
		f.Add(append([]byte{k}, make([]byte, edgeRecLen-1)...), uint8(1))
	}
	// Found by the fuzzer: a first edge off the graph picked owner -1.
	seed(mSelectSecond, opID{rank: 1, slot: 6, seq: 1}, graph.Edge{U: 0x30303030, V: 0x31303030})
	// Last-agent requests, relayed or not, well-formed and not, and
	// replies from the agent and from a rank that was not asked.
	for mask := uint8(0); mask <= 8; mask++ {
		add(opMsg{kind: mLastAgent, id: opID{rank: 0, slot: 0, seq: 1}, e1: graph.Edge{U: 0, V: 3}, e2: graph.Edge{U: 2, V: 5}, mask: mask}, 1)
		add(opMsg{kind: mLastAgent, id: opID{rank: 1, slot: 5, seq: 1}, e1: graph.Edge{U: 4, V: 7}, e2: graph.Edge{U: 1, V: 2}, mask: mask}, 1)
	}
	add(opMsg{kind: mLastAgent, id: opID{rank: 1, slot: 5, seq: 1}, e1: graph.Edge{U: 2, V: 9}, e2: graph.Edge{U: 2, V: 9}, mask: 3}, 1)
	add(opMsg{kind: mLastAgent, id: opID{rank: 0, slot: 0, seq: 1}, e1: graph.Edge{U: 9, V: 2}, mask: 1}, 1)
	for _, k := range []msgKind{mCommitted, mRefused} {
		add(opMsg{kind: k, id: opID{rank: 1, slot: 5, seq: 1}}, 0)
		add(opMsg{kind: k, id: opID{rank: 0, slot: 0, seq: 1}}, 1)
	}
	f.Fuzz(func(t *testing.T, rec []byte, src uint8) {
		rs := armedSwitchers(t)
		r0 := rs[0]
		if _, err := r0.advance(); err != nil {
			t.Fatal(err)
		}
		partnerWaiting(t, rs)
		kind := msgKind(0)
		if len(rec) > 0 {
			kind = msgKind(rec[0])
		}
		frame := make([]byte, 1+recLen(kind))
		frame[0] = byte(len(frame) - 1)
		copy(frame[1:], rec)
		_ = r0.e.handle(mpi.Message{Src: int(src % 2), Data: frame})
	})
}

// TestEdgeSwitchSteadyStateAllocs counts what the protocol allocates per
// operation once the engine is warm: the mallocs of a 12-step run minus
// those of a 2-step run on the same graph, over the 10 steps' worth of
// operations between them. What remains (≈ 0.1) is a flat slot's first
// insert after the load regrowing its exact-size array and the per-step
// quota draw; the op tables and the custody table allocate nothing per
// operation.
func TestEdgeSwitchSteadyStateAllocs(t *testing.T) {
	g, err := gen.PrefAttachment(rng.New(1), 5001, 10)
	if err != nil {
		t.Fatal(err)
	}
	const stepSize = 2000
	mallocs := func(steps int64) uint64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		if _, err := Parallel(g, steps*stepSize, Config{Ranks: 2, Scheme: SchemeHPD, StepSize: stepSize, Seed: 3}); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	short, long := mallocs(2), mallocs(12)
	perOp := (float64(long) - float64(short)) / (10 * stepSize)
	t.Logf("mallocs: 2 steps %d, 12 steps %d → %.3f per op", short, long, perOp)
	if perOp >= 0.2 {
		t.Fatalf("%.3f mallocs per operation in steady state, want < 0.2", perOp)
	}
}

// TestStepQuotasReplicated pins what keeps ranks in agreement without a
// collective: the quota draw is a pure function of its inputs, every
// vector hands out exactly s operations, and each step draws from its
// own stream.
func TestStepQuotasReplicated(t *testing.T) {
	counts := []int64{700, 0, 1300, 2000}
	const m, s = 4000, 40
	first, err := stepQuotas(5, 0, s, counts, m)
	if err != nil {
		t.Fatal(err)
	}
	differ := 0
	for step := int64(0); step < 200; step++ {
		a, err := stepQuotas(5, step, s, counts, m)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := stepQuotas(5, step, s, append([]int64(nil), counts...), m)
		var sum int64
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("step %d: equal inputs drew %v and %v", step, a, b)
			}
			sum += a[i]
		}
		if sum != s || a[1] != 0 {
			t.Fatalf("step %d: quotas %v, want %d operations and none for the empty rank", step, a, s)
		}
		if !slices.Equal(a, first) {
			differ++
		}
	}
	if differ < 150 {
		t.Fatalf("only %d of 199 later steps drew a vector other than step 0's", differ)
	}
}

// TestStepQuotasMoments checks the draw is the multinomial §4.5 asks
// for: over 10⁴ steps at p=4, each rank's quota has mean s·qᵢ and
// variance s·qᵢ(1−qᵢ) (bands of about five standard errors).
func TestStepQuotasMoments(t *testing.T) {
	counts := []int64{100, 300, 600, 1000}
	const m, s, draws = 2000, 400, 10000
	var sum, sumSq [4]float64
	for step := int64(0); step < draws; step++ {
		x, err := stepQuotas(17, step, s, counts, m)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range x {
			sum[i] += float64(v)
			sumSq[i] += float64(v) * float64(v)
		}
	}
	for i, cnt := range counts {
		q := float64(cnt) / m
		wantMean, wantVar := s*q, s*q*(1-q)
		mean := sum[i] / draws
		variance := (sumSq[i] - draws*mean*mean) / (draws - 1)
		if d := math.Abs(mean - wantMean); d > 5*math.Sqrt(wantVar/draws) {
			t.Errorf("rank %d: mean quota %.3f, want %.3f", i, mean, wantMean)
		}
		if d := math.Abs(variance/wantVar - 1); d > 5*math.Sqrt(2.0/draws) {
			t.Errorf("rank %d: quota variance %.3f, want %.3f", i, variance, wantVar)
		}
	}
}

// TestPrepareLeavesRunRNG arms one step on bare engines at p=1 and p=3,
// with no peer communicating: every rank's share comes out of the same
// vector, the shares sum to s, and no rank's run RNG moves — p=1 streams
// and every pin keep their positions.
func TestPrepareLeavesRunRNG(t *testing.T) {
	const s = 90
	for _, counts := range [][]int64{{500}, {120, 300, 80}} {
		p := len(counts)
		w, err := mpi.NewWorld(p)
		if err != nil {
			t.Fatal(err)
		}
		shares := make([]int64, p)
		err = w.Run(func(c *mpi.Comm) error {
			e := &rankEngine{c: c, rnd: rng.Split(8, c.Rank()+2), seed: 8, m: 500, stepsRun: 6}
			before := e.rnd.State()
			r := newEdgeSwitcher(e)
			if err := r.prepare(s, counts); err != nil {
				return err
			}
			if e.rnd.State() != before {
				return errors.New("prepare moved the run RNG")
			}
			shares[c.Rank()] = r.remaining
			return nil
		})
		w.Close()
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		want, err := stepQuotas(8, 6, s, counts, 500)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(shares, want) {
			t.Fatalf("p=%d: ranks took %v, want shares of %v", p, shares, want)
		}
		if p == 1 && shares[0] != s {
			t.Fatalf("p=1 share %d, want %d", shares[0], s)
		}
	}
}
