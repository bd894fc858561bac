package core

import (
	"fmt"
	"strings"
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
		{kind: mOpDone, id: opID{rank: 9, slot: opWindow - 1, seq: 10}},
		{kind: mLastAgent, id: opID{rank: 2, slot: 7, seq: 11}, e1: graph.Edge{U: 4, V: 8}, e2: graph.Edge{U: 5, V: 1 << 20}, mask: 2},
		{kind: mLastAgent, id: opID{rank: 1023, slot: 17, seq: 1 << 40}, e1: graph.Edge{U: 0, V: 1}, e2: graph.Edge{U: 100000, V: 2000000}, mask: 2 | maskRelayed},
		{kind: mCommitted, id: opID{rank: 2, slot: 7, seq: 11}},
		{kind: mRefused, id: opID{rank: 2, slot: 7, seq: 11}},
		// Out-of-range ids and masks survive the codec; the handlers refuse them.
		{kind: mOpDone, id: opID{rank: -1, slot: -1, seq: 1<<64 - 1}},
		{kind: mLastAgent, id: opID{rank: 1, slot: 1, seq: 1}, mask: 0xff},
		{kind: mEndOfStep},
		{kind: mStalled},
		{kind: mResumed},
	}
	// The layout: kind | rank | slot | seq | the kind's edges | mask.
	rec := msgs[3].encode()
	want := []byte{byte(mLastAgent), 2, 0, 0, 0, 7, 0, 0, 0, 11, 0, 0, 0, 0, 0, 0, 0,
		4, 0, 0, 0, 8, 0, 0, 0, 5, 0, 0, 0, 0, 0, 0x10, 0, 2}
	if string(rec) != string(want) {
		t.Fatalf("record layout % x, want % x", rec, want)
	}
	for _, m := range msgs {
		rec := m.encode()
		if len(rec) != recLen(m.kind) {
			t.Fatalf("%v: %d-byte record, want %d", m.kind, len(rec), recLen(m.kind))
		}
		got, err := decodeOpMsg(rec)
		if err != nil {
			t.Fatalf("%v: %v", m.kind, err)
		}
		if got != m {
			t.Fatalf("round trip %+v -> %+v", m, got)
		}
	}
}

func TestOpMsgRoundTripProperty(t *testing.T) {
	kinds := []msgKind{mSelectSecond, mAbortOp, mOpDone, mLastAgent, mCommitted, mRefused, mEndOfStep, mStalled, mResumed}
	f := func(kindRaw uint8, rank, slot int32, seq uint64, u, v, x, y int32, mask uint8) bool {
		kind := kinds[int(kindRaw)%len(kinds)]
		m := opMsg{kind: kind, id: opID{rank: rank, slot: slot, seq: seq},
			e1: graph.Edge{U: graph.Vertex(u), V: graph.Vertex(v)}, e2: graph.Edge{U: graph.Vertex(x), V: graph.Vertex(y)}, mask: mask}
		// A kind carries only its own fields.
		switch n := recLen(kind); {
		case n == 1:
			m = opMsg{kind: kind}
		case n == idRecLen:
			m.e1 = graph.Edge{}
			fallthrough
		case n == edgeRecLen:
			m.e2, m.mask = graph.Edge{}, 0
		}
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
	bad := opMsg{kind: mSelectSecond}.encode()
	if _, err := decodeOpMsg(bad[:len(bad)-1]); err == nil {
		t.Fatal("short payload accepted")
	}
	// Each kind has one length: a select-length reply is refused.
	bad[0] = byte(mOpDone)
	if _, err := decodeOpMsg(bad); err == nil {
		t.Fatal("over-long record accepted")
	}
	bad[0] = 0
	if _, err := decodeOpMsg(bad); err == nil {
		t.Fatal("kind 0 accepted")
	}
	bad[0] = 255
	if _, err := decodeOpMsg(bad); err == nil {
		t.Fatal("kind out of range accepted")
	}
	// An unassigned kind between the numbered ones is refused as unknown
	// at any length.
	for k := byte(mAbortOp) + 1; k < byte(mOpDone); k++ {
		for _, n := range []int{idRecLen, edgeRecLen} {
			rec := append([]byte{k}, make([]byte, n-1)...)
			if _, err := decodeOpMsg(rec); err == nil || !strings.Contains(err.Error(), "unknown message kind") {
				t.Fatalf("unassigned kind %d (%d bytes): got %v, want the unknown-kind refusal", k, n, err)
			}
		}
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
	// The kinds that survive the retired two-phase-commit round keep their
	// byte values: 1, 2 and 10–17.
	if mAbortOp != 2 || mOpDone != 10 || mEdgeRun != 17 {
		t.Fatalf("kind bytes moved: abortOp %d, opDone %d, edgeRun %d", mAbortOp, mOpDone, mEdgeRun)
	}
	if s := msgKind(200).String(); s != "msgKind(200)" {
		t.Fatalf("unknown kind string %q", s)
	}
}

func TestOpIDString(t *testing.T) {
	if s := (opID{rank: 3, slot: 5, seq: 9}).String(); s != "op[3:9@5]" {
		t.Fatalf("opID string %q", s)
	}
}
