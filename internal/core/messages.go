package core

import (
	"encoding/binary"
	"fmt"

	"edgeswitch/internal/graph"
)

// The conversation protocol of §4.4–§4.5, generalised (see DESIGN.md §4):
// an operation is a short exchange between the initiator (owner of the
// first edge), the partner (owner of the second edge; may equal the
// initiator for a local switch), and the owners of the two replacement
// edges. All owner-directed mutations are acknowledged so that when an
// initiator's operation completes, every remote update it caused has been
// applied — the property that makes the end-of-step barrier sound.
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
	// mReserve: partner → owner. Reserve a replacement edge in the
	// owner's potential-edge set after a conflict check.
	mReserve
	// mReserveOK / mReserveFail: owner → partner replies.
	mReserveOK
	mReserveFail
	// mCommit: partner → owner. Materialize a reserved edge.
	mCommit
	// mCommitAck: owner → partner.
	mCommitAck
	// mRelease: partner → owner. Drop a reservation after a failed switch.
	mRelease
	// mReleaseAck: owner → partner.
	mReleaseAck
	// mOpDone: partner → initiator. Switch committed everywhere.
	mOpDone
	// mEndOfStep: rank → all. The sender has completed its quota for the
	// current step (it keeps serving until everyone has).
	mEndOfStep
	// mStalled / mResumed: rank → all. The sender has remaining quota but
	// an empty partition (it cannot select a first edge until a commit
	// delivers one), or has recovered from that state. Used for
	// distributed stall detection: when every peer is either finished or
	// stalled, no operation can ever replenish an empty partition, so
	// stalled ranks forfeit their remaining quota instead of deadlocking.
	// Only reachable on degenerate inputs (partitions of a handful of
	// edges); realistic partitions never empty.
	mStalled
	mResumed
	// mEdgeRun: a packed run of curveball adjacency entries (see the run
	// layout below). Never decoded into an opMsg.
	mEdgeRun
)

var msgKindNames = [...]string{
	mSelectSecond: "selectSecond", mAbortOp: "abortOp", mReserve: "reserve",
	mReserveOK: "reserveOK", mReserveFail: "reserveFail", mCommit: "commit",
	mCommitAck: "commitAck", mRelease: "release", mReleaseAck: "releaseAck",
	mOpDone: "opDone", mEndOfStep: "endOfStep", mStalled: "stalled",
	mResumed: "resumed", mEdgeRun: "edgeRun",
}

func (k msgKind) String() string {
	if k >= mSelectSecond && int(k) < len(msgKindNames) {
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
// message. Unused fields are zero.
type opMsg struct {
	kind msgKind
	id   opID       // operation id
	e1   graph.Edge // mSelectSecond: first edge; owner messages: target edge
}

// opMsgLen is the fixed wire length of an opMsg record.
const opMsgLen = 1 + 4 + 8 + 16 // kind | rank | seq | e1 | slot (+4 reserved)

// Batch framing (the message plane, see DESIGN.md): a transport payload
// carries one or more records, each behind a length prefix,
// `len uint8 | record`, whose first byte is the kind. The prefix keeps
// the frame self-describing so layouts can grow without a flag day.

// appendOpMsg appends one framed record to a batch buffer.
func appendOpMsg(buf []byte, m opMsg) []byte {
	var rec [1 + opMsgLen]byte
	rec[0], rec[1] = opMsgLen, byte(m.kind)
	binary.LittleEndian.PutUint32(rec[2:], uint32(m.id.rank))
	binary.LittleEndian.PutUint64(rec[6:], m.id.seq)
	binary.LittleEndian.PutUint32(rec[14:], uint32(m.e1.U))
	binary.LittleEndian.PutUint32(rec[18:], uint32(m.e1.V))
	binary.LittleEndian.PutUint32(rec[22:], uint32(m.id.slot))
	// The record's last 4 bytes are reserved (kept for layout stability).
	return append(buf, rec[:]...) // hotalloc: amortized; batch buffers come presized from the freelist
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
	if kind < mSelectSecond || kind > mResumed {
		return opMsg{}, fmt.Errorf("core: unknown message kind %d", data[0])
	}
	if len(data) != opMsgLen {
		return opMsg{}, fmt.Errorf("core: bad op message length %d", len(data))
	}
	return opMsg{
		kind: kind,
		id: opID{
			rank: int32(binary.LittleEndian.Uint32(data[1:])),
			slot: int32(binary.LittleEndian.Uint32(data[21:])),
			seq:  binary.LittleEndian.Uint64(data[5:]),
		},
		e1: graph.Edge{
			U: graph.Vertex(binary.LittleEndian.Uint32(data[13:])),
			V: graph.Vertex(binary.LittleEndian.Uint32(data[17:])),
		},
	}, nil
}
