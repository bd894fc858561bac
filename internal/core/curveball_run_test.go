package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strings"
	"testing"

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
		before := append([]cbEdge(nil), r.arena...)
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

// TestCurveballRejectsDuplicateSettledEdge: two equal settled edges in
// one slot — what the per-edge path reported as "insert found duplicate
// edge" — surface when the round's rebuild sorts the slot.
func TestCurveballRejectsDuplicateSettledEdge(t *testing.T) {
	g := testGraph(t, 46, 60, 240)
	eng, w := newTestEngineCfg(t, g, Config{Seed: 5, Algorithm: AlgoCurveball})
	defer w.Close()
	r := eng.rand.(*curveball)
	if err := r.prepare(1, nil); err != nil {
		t.Fatal(err)
	}
	if r.pending != 0 || int64(len(r.settled)) != g.M() {
		t.Fatalf("single-rank round left %d trades pending and settled %d of %d edges", r.pending, len(r.settled), g.M())
	}
	r.settled = append(r.settled, r.settled[len(r.settled)/2])
	err := r.endStep()
	if err == nil {
		t.Fatal("duplicate settled edge accepted")
	}
	for _, want := range []string{"duplicate edge", "rank 0", "round 1"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not mention %q", err, want)
		}
	}
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
