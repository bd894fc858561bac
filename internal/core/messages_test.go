package core

import (
	"fmt"
	"testing"
	"testing/quick"

	"edgeswitch/internal/graph"
)

// encode serializes the message into a fresh, unframed record.
func (m opMsg) encode() []byte { return appendOpMsg(nil, m)[1:] }

// forEachOpMsg decodes a batch payload of conversation records one by
// one, stopping at the first decode or handler error.
func forEachOpMsg(data []byte, fn func(opMsg) error) error {
	for off := 0; off < len(data); {
		rl := int(data[off])
		off++
		if rl == 0 || off+rl > len(data) {
			return fmt.Errorf("core: truncated message batch at byte %d", off-1)
		}
		m, err := decodeOpMsg(data[off : off+rl])
		if err != nil {
			return err
		}
		off += rl
		if err := fn(m); err != nil {
			return err
		}
	}
	return nil
}

func TestOpMsgRoundTrip(t *testing.T) {
	msgs := []opMsg{
		{kind: mSelectSecond, id: opID{rank: 3, slot: 63, seq: 12345}, e1: graph.Edge{U: 7, V: 9}},
		{kind: mAbortOp, id: opID{rank: 0, seq: 0}},
		{kind: mReserve, id: opID{rank: 1023, slot: 17, seq: 1 << 40}, e1: graph.Edge{U: 0, V: 1}},
		{kind: mReserveOK, id: opID{rank: 1, slot: 1, seq: 2}, e1: graph.Edge{U: 2, V: 3}},
		{kind: mReserveFail, id: opID{rank: 1, slot: 1, seq: 2}, e1: graph.Edge{U: 2, V: 3}},
		{kind: mCommit, id: opID{rank: 5, slot: 2, seq: 6}, e1: graph.Edge{U: 100000, V: 2000000}},
		{kind: mCommitAck, id: opID{rank: 5, slot: 2, seq: 6}},
		{kind: mRelease, id: opID{rank: 5, slot: 2, seq: 6}, e1: graph.Edge{U: 1, V: 2}},
		{kind: mReleaseAck, id: opID{rank: 5, slot: 2, seq: 6}},
		{kind: mOpDone, id: opID{rank: 9, slot: opWindow - 1, seq: 10}},
		// Out-of-range ids survive the codec; the tables refuse them.
		{kind: mOpDone, id: opID{rank: -1, slot: -1, seq: 1<<64 - 1}},
		{kind: mEndOfStep},
		{kind: mStalled},
		{kind: mResumed},
	}
	// The slot rides in the first 4 of the layout's 8 reserved bytes; the
	// record keeps its length and every other offset.
	rec := msgs[0].encode()
	if len(rec) != opMsgLen || rec[21] != 63 || rec[22]|rec[23]|rec[24]|rec[25]|rec[26]|rec[27]|rec[28] != 0 {
		t.Fatalf("record layout % x", rec)
	}
	for _, m := range msgs {
		got, err := decodeOpMsg(m.encode())
		if err != nil {
			t.Fatalf("%v: %v", m.kind, err)
		}
		if got != m {
			t.Fatalf("round trip %+v -> %+v", m, got)
		}
	}
}

func TestOpMsgRoundTripProperty(t *testing.T) {
	f := func(kindRaw uint8, rank, slot int32, seq uint64, u, v int32) bool {
		kind := msgKind(kindRaw%uint8(mResumed)) + 1
		m := opMsg{kind: kind, id: opID{rank: rank, slot: slot, seq: seq}, e1: graph.Edge{U: graph.Vertex(u), V: graph.Vertex(v)}}
		got, err := decodeOpMsg(m.encode())
		return err == nil && got == m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeOpMsgRejectsBadInput(t *testing.T) {
	if _, err := decodeOpMsg(nil); err == nil {
		t.Fatal("nil payload accepted")
	}
	if _, err := decodeOpMsg(make([]byte, opMsgLen-1)); err == nil {
		t.Fatal("short payload accepted")
	}
	bad := opMsg{kind: mSelectSecond}.encode()
	bad[0] = 0
	if _, err := decodeOpMsg(bad); err == nil {
		t.Fatal("kind 0 accepted")
	}
	bad[0] = 255
	if _, err := decodeOpMsg(bad); err == nil {
		t.Fatal("kind out of range accepted")
	}
	// An edge run is never an opMsg: its header must not decode as one.
	if _, err := decodeOpMsg(mkRun()); err == nil {
		t.Fatal("edge run header decoded as an op message")
	}
}

func TestMsgKindStrings(t *testing.T) {
	for k := mSelectSecond; k <= mEdgeRun; k++ {
		if s := k.String(); s == "" || s[0] == 'm' && len(s) < 3 {
			t.Fatalf("kind %d has bad name %q", k, s)
		}
	}
	if s := msgKind(200).String(); s != "msgKind(200)" {
		t.Fatalf("unknown kind string %q", s)
	}
}

func TestPartnerOpEdgeIndex(t *testing.T) {
	op := &partnerOp{edges: [2]graph.Edge{{U: 1, V: 2}, {U: 3, V: 4}}}
	if i, err := op.edgeIndex(graph.Edge{U: 1, V: 2}); err != nil || i != 0 {
		t.Fatalf("edge 0: %d %v", i, err)
	}
	if i, err := op.edgeIndex(graph.Edge{U: 3, V: 4}); err != nil || i != 1 {
		t.Fatalf("edge 1: %d %v", i, err)
	}
	if _, err := op.edgeIndex(graph.Edge{U: 5, V: 6}); err == nil {
		t.Fatal("foreign edge accepted")
	}
}

func TestOpIDString(t *testing.T) {
	if s := (opID{rank: 3, slot: 5, seq: 9}).String(); s != "op[3:9@5]" {
		t.Fatalf("opID string %q", s)
	}
}
