package core

import (
	"errors"
	"math"
	"runtime"
	"slices"
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

// armedSwitchers bootstraps a live 2-rank edge-switch world (HP-D, a
// small random graph) and arms both ranks for a step: a quota and a
// uniform partner distribution, set directly rather than by prepare.
// Messages a test makes them send stay queued in the message plane or
// the peer's mailbox.
func armedSwitchers(tb testing.TB) [2]*edgeSwitcher {
	tb.Helper()
	g, err := gen.ErdosRenyi(rng.New(12), 80, 320)
	if err != nil {
		tb.Fatal(err)
	}
	w, err := mpi.NewWorld(2)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { w.Close() })
	var rs [2]*edgeSwitcher
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
		r.cumEdges = []int64{0, 1, 2}
	}
	return rs
}

// TestOpSlotReuse: a finished own operation's window slot is the next
// one started, after a commit (mOpDone) and after an abort (mAbortOp),
// and the finished id is stale from then on.
func TestOpSlotReuse(t *testing.T) {
	r := armedSwitchers(t)[0]
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
	r0, r1 := rs[0], rs[1]
	if err := r0.startOp(); err != nil {
		t.Fatal(err)
	}
	own := opID{rank: 0, slot: r0.freeSlots[r0.nFree], seq: r0.seq}
	// A live partner op at rank 0 for initiator 1: retry until the drawn
	// second edge makes a valid switch (an invalid one aborts at once).
	var part opID
	for r0.partnerLive == 0 {
		part = opID{rank: 1, slot: 5, seq: part.seq + 1}
		if err := r0.handle(opMsg{kind: mSelectSecond, id: part, e1: r1.takeRandomEdge()}, 1); err != nil {
			t.Fatal(err)
		}
	}
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
		{opMsg{kind: mReserveOK, id: opID{rank: 2, slot: part.slot, seq: part.seq}}, 1, errOpRank},
		{opMsg{kind: mReserveFail, id: opID{rank: -1, slot: part.slot, seq: part.seq}}, 1, errOpRank},
		{opMsg{kind: mReserveOK, id: opID{rank: 1, slot: 1 << 20, seq: part.seq}}, 1, errOpSlot},
		{opMsg{kind: mReserveOK, id: opID{rank: 1, slot: part.slot, seq: part.seq + 1}}, 1, errOpStale},
		{opMsg{kind: mReserveOK, id: opID{rank: 1, slot: part.slot + 1, seq: part.seq}}, 1, errOpStale},
		{opMsg{kind: mCommitAck, id: opID{rank: 1, slot: part.slot, seq: 0}}, 1, errOpStale},
		{opMsg{kind: mReleaseAck, id: opID{rank: 1, slot: opWindow, seq: part.seq}}, 1, errOpSlot},
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

// FuzzConversationRecord feeds arbitrary 29-byte records through the
// receive path of a live 2-rank engine with own and partner operations
// in flight: every record is handled or refused with an error, never a
// panic or an out-of-range index.
func FuzzConversationRecord(f *testing.F) {
	seed := func(kind msgKind, id opID, ed graph.Edge) {
		f.Add(opMsg{kind: kind, id: id, e1: ed}.encode(), uint8(1))
	}
	for k := mSelectSecond; k <= mEdgeRun; k++ {
		seed(k, opID{rank: 1, slot: 5, seq: 1}, graph.Edge{U: 1, V: 2})
		seed(k, opID{rank: 0, slot: 0, seq: 1}, graph.Edge{U: 0, V: 3})
	}
	seed(mOpDone, opID{rank: 0, slot: opWindow, seq: 1}, graph.Edge{})
	seed(mReserveOK, opID{rank: 2, slot: 5, seq: 1}, graph.Edge{U: 1, V: 2})
	seed(mCommitAck, opID{rank: 1, slot: 5, seq: 0}, graph.Edge{})
	seed(mCommit, opID{rank: 1, slot: 5, seq: 1}, graph.Edge{U: -1, V: 1 << 30})
	seed(mReserve, opID{rank: 1, slot: 5, seq: 1}, graph.Edge{U: 0, V: 0})
	seed(mReserve, opID{rank: 1, slot: 5, seq: 1}, graph.Edge{U: 0, V: 1 << 30})
	// Found by the fuzzer: a first edge off the graph picked owner -1.
	seed(mSelectSecond, opID{rank: 1, slot: 6, seq: 1}, graph.Edge{U: 0x30303030, V: 0x31303030})
	f.Fuzz(func(t *testing.T, rec []byte, src uint8) {
		rs := armedSwitchers(t)
		r0 := rs[0]
		if _, err := r0.advance(); err != nil {
			t.Fatal(err)
		}
		if err := r0.handle(opMsg{kind: mSelectSecond, id: opID{rank: 1, slot: 5, seq: 1}, e1: rs[1].takeRandomEdge()}, 1); err != nil {
			t.Fatal(err)
		}
		var frame [1 + opMsgLen]byte
		frame[0] = opMsgLen
		copy(frame[1:], rec)
		_ = r0.e.handle(mpi.Message{Src: int(src % 2), Data: frame[:]})
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
	if testing.Short() {
		t.Skip("runs two full randomizations")
	}
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
