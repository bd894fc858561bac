package core

import (
	"encoding/binary"
	"fmt"

	"edgeswitch/internal/graph"
)

// The conversation protocol of §4.4–§4.5, generalised (see DESIGN.md §4):
// an operation is a short exchange between the initiator (owner of the
// first edge), the partner (owner of the second edge; may equal the
// initiator), and the owners of the two replacement edges. Only legs
// that cross ranks are records; a rank's own share is a direct call.
// Every replacement edge the partner does not own is committed by a last
// agent (mLastAgent), which commits its edges on reservation and replies
// once. When two distinct remote owners hold them (p ≥ 3), they form a
// relay chain: the owner of edge 0 reserves it and forwards edge 1 to its
// owner, then passes that owner's answer back to the partner.
//
// The end-of-step barrier is sound because a rank's records to a peer
// arrive in send order: an owner replies before its own end-of-step
// signal, and only the rank that answers the partner directly settles the
// initiator's operation inline, so a rank that has heard end-of-step from
// everyone has seen every update applied and every partner entry retired.
//
// The curveball randomizer has no conversations: its adjacency entries
// travel as packed edge runs (mEdgeRun, below) inside the same batches,
// decoded by the randomizer in one loop without ever becoming an opMsg.

// opTag is the single application tag used by engine traffic; message
// kinds are distinguished in the payload.
const opTag = 1

// msgKind enumerates protocol messages.
type msgKind uint8

const (
	// mSelectSecond: initiator → partner. Carries e1; asks the partner
	// to select a second edge and orchestrate the switch.
	mSelectSecond msgKind = iota + 1
	// mAbortOp: partner → initiator. The operation was rejected
	// (useless/loop/parallel-edge/empty partition); restart with a new pair.
	mAbortOp
	// Kinds 3–9 are unassigned, so the kinds below keep their wire
	// values; a record carrying one is refused as an unknown kind.
	//
	// mOpDone: partner → initiator. Switch committed everywhere.
	mOpDone msgKind = iota + 8
	// mLastAgent: partner → the owner of the first replacement edge it
	// does not own, or relay → the second owner (mask bit maskRelayed).
	// Carries both replacement edges and mask; the receiver commits all
	// edges it owns or none, relaying the other one when both are remote.
	mLastAgent
	// mCommitted / mRefused: last agent → partner (or relay) replies.
	mCommitted
	mRefused
	// mEndOfStep: rank → all. The sender has completed its quota for the
	// current step (it keeps serving until everyone has).
	mEndOfStep
	// mStalled / mResumed: rank → all, edge switching only. The sender
	// has remaining quota but an empty partition (it cannot select a
	// first edge until a commit delivers one), or has recovered from that
	// state. Used for distributed stall detection (edgeSwitcher.advance):
	// when every peer is either finished or stalled, no operation can ever
	// replenish an empty partition, so stalled ranks forfeit their
	// remaining quota instead of deadlocking. A stalled rank has quota
	// left, so it sends mResumed (withdrawing, or after forfeiting) before
	// it can finish, and its end-of-step signal follows on the same FIFO
	// link: end-of-step never has to clear a stall mark. Only reachable on
	// degenerate inputs (partitions of a handful of edges); realistic
	// partitions never empty.
	mStalled
	mResumed
	// mEdgeRun: a packed run of curveball adjacency entries (see the run
	// layout below). Never decoded into an opMsg.
	mEdgeRun
)

var msgKindNames = [...]string{
	mSelectSecond: "selectSecond", mAbortOp: "abortOp", mOpDone: "opDone",
	mLastAgent: "lastAgent", mCommitted: "committed", mRefused: "refused",
	mEndOfStep: "endOfStep", mStalled: "stalled", mResumed: "resumed",
	mEdgeRun: "edgeRun",
}

func (k msgKind) String() string {
	if int(k) < len(msgKindNames) && msgKindNames[k] != "" {
		return msgKindNames[k]
	}
	return fmt.Sprintf("msgKind(%d)", uint8(k))
}

// opID identifies an operation: the initiating rank, the initiator's
// window slot (0 … opWindow-1) it occupies — together the index of its
// state tables, checked at every lookup — and a per-initiator sequence.
type opID struct {
	rank int32
	slot int32
	seq  uint64
}

func (id opID) String() string { return fmt.Sprintf("op[%d:%d@%d]", id.rank, id.seq, id.slot) }

// opMsg is the decoded form of every conversation and step-control
// message. Fields the kind does not carry are zero.
type opMsg struct {
	kind msgKind
	id   opID       // operation id
	e1   graph.Edge // mSelectSecond: first edge; owner messages: target edge
	e2   graph.Edge // mLastAgent: the second replacement edge
	mask uint8      // mLastAgent: bit i set for each edge the sender hands over, plus maskRelayed
}

// maskRelayed marks a last-agent record forwarded by a relay: the
// receiver answers the relay and never settles the initiator's operation.
const maskRelayed = 4

// Record layout, `kind uint8 | rank uint32 | slot uint32 | seq uint64`,
// then the kind's edges (`u uint32 | v uint32` each) and mLastAgent's
// mask byte; step-control records are the kind byte alone. recLen gives
// each kind's length, and a record of any other length is refused.
const (
	idRecLen   = 1 + 4 + 4 + 8
	edgeRecLen = idRecLen + 8
	lastRecLen = edgeRecLen + 8 + 1
)

func recLen(k msgKind) int {
	switch k {
	case mSelectSecond:
		return edgeRecLen
	case mLastAgent:
		return lastRecLen
	case mEndOfStep, mStalled, mResumed:
		return 1
	default:
		return idRecLen
	}
}

// Batch framing (the message plane, see DESIGN.md): a transport payload
// carries one or more records, each behind a length prefix,
// `len uint8 | record`, whose first byte is the kind. The prefix keeps
// the frame self-describing so layouts can grow without a flag day.

// appendOpMsg appends one framed record to a batch buffer.
func appendOpMsg(buf []byte, m opMsg) []byte {
	n := recLen(m.kind)
	var rec [1 + lastRecLen]byte
	rec[0], rec[1] = byte(n), byte(m.kind)
	le := binary.LittleEndian
	le.PutUint32(rec[2:], uint32(m.id.rank))
	le.PutUint32(rec[6:], uint32(m.id.slot))
	le.PutUint64(rec[10:], m.id.seq)
	le.PutUint32(rec[18:], uint32(m.e1.U))
	le.PutUint32(rec[22:], uint32(m.e1.V))
	le.PutUint32(rec[26:], uint32(m.e2.U))
	le.PutUint32(rec[30:], uint32(m.e2.V))
	rec[34] = m.mask
	return append(buf, rec[:1+n]...)
}

// Edge runs: curveball moves every adjacency entry once or twice per
// round, so they are not framed one by one. A run is one framed header,
// `kind uint8 | count uint32`, followed directly — outside the length
// prefix — by count entries `key uint32 | other uint32 | flags uint8`.
// With runTrade, key is the trade the entry is due at, runAnchorV which
// of its two vertices anchors it and other the non-anchor endpoint;
// without, (key, other) is a settled normalized edge bound for key's
// owner. runOrig is the original flag. sendBuffer.addRun encodes,
// randomizer.handleRun decodes the entries in place.
const (
	runHdrLen   = 1 + 4
	runEntryLen = 4 + 4 + 1

	runOrig    = 1 << 0
	runAnchorV = 1 << 1
	runTrade   = 1 << 2
	runFlags   = runOrig | runAnchorV | runTrade
)

// decodeOpMsg parses one conversation or step-control record.
func decodeOpMsg(data []byte) (opMsg, error) {
	if len(data) == 0 {
		return opMsg{}, fmt.Errorf("core: empty op message")
	}
	kind := msgKind(data[0])
	if kind < mSelectSecond || kind > mResumed || kind > mAbortOp && kind < mOpDone {
		return opMsg{}, fmt.Errorf("core: unknown message kind %d", data[0])
	}
	if len(data) != recLen(kind) {
		return opMsg{}, fmt.Errorf("core: bad %v record length %d", kind, len(data))
	}
	var rec [lastRecLen]byte // fields the kind does not carry decode as zero
	copy(rec[:], data)
	le := binary.LittleEndian
	return opMsg{
		kind: kind,
		id:   opID{rank: int32(le.Uint32(rec[1:])), slot: int32(le.Uint32(rec[5:])), seq: le.Uint64(rec[9:])},
		e1:   graph.Edge{U: graph.Vertex(le.Uint32(rec[17:])), V: graph.Vertex(le.Uint32(rec[21:]))},
		e2:   graph.Edge{U: graph.Vertex(le.Uint32(rec[25:])), V: graph.Vertex(le.Uint32(rec[29:]))},
		mask: rec[33],
	}, nil
}
