package core

import (
	"encoding/binary"

	"edgeswitch/internal/mpi"
)

// The batching message plane: the conversation protocol produces many
// tiny (tens of bytes) messages, and per-message transport sends
// dominated engine overhead at higher rank counts — mailbox locking on
// the mem transport, one frame write per message on TCP. sendBuffer
// coalesces all protocol messages bound for the same destination rank
// into a single framed payload (see appendOpMsg), flushed at the points
// where the step loop can block or when it reaches its flush cap
// (convFlushCap for conversation records, batchFlushCap for edge runs);
// a window's worth of conversation traffic to a rank then costs a few
// transport sends instead of one per message.
//
// Buffer ownership rules: the sender draws an encode buffer from its
// own freelist (getBuf), ownership moves to the receiver with mpi
// SendOwned, and the receiver returns the buffer to *its* freelist
// after dispatching the records (recycle). Buffers therefore migrate
// between ranks over a run, but at any moment each buffer has exactly
// one owner, so the freelists need no locking. TCP-path receive
// allocations enter a freelist the same way. An earlier design used a
// global sync.Pool here; the Get/Put round trip boxes every []byte
// into an interface and was itself a top allocation site.

// batchFlushCap is the size at which rankEngine.sendRun flushes a batch
// without waiting for the step loop to block. It shapes curveball's bulk
// runs, which otherwise grew one multi-megabyte batch per peer per
// round — unrecyclable, and the peer idled on inputs held here. A cb-pa
// rep took 0.43 s at 8 KiB, 0.47 s at 16 KiB, 0.54 s at 64 KiB.
const batchFlushCap = 8 << 10

// convFlushCap is the same for rankEngine.send, the conversation
// records. A full 64-op window holds < 5 KiB in flight towards one peer,
// so under batchFlushCap a rank flushed only when it was about to block:
// two ranks handed one batch back and forth and used one CPU between
// them. At about a quarter of the window the peer starts on the first
// records while the sender produces the next ones. An es-pa rep (p=2,
// flat slots, medians of 5, twice) took 0.83–0.92 s at 256 B, 0.75–0.92 s
// at 512 B, 0.82–0.92 s at 1 KiB, 1.34–1.49 s at 2 KiB, 1.8 s at 4 KiB,
// 1.6 s at 8 KiB; 1 KiB is the largest of the fast ones — the fewest
// sends — and es-small-steps-tcp's 40-op steps never reach it, where a
// count rule (flush every window/4 records) cost 10 % in extra frames.
const convFlushCap = 1 << 10

// initialBatchCap presizes fresh buffers so that none regrows: the record
// that takes a batch to the cap is at most a run header and entry or one
// framed opMsg.
const initialBatchCap = batchFlushCap + 64

// maxPooledBatch caps the capacity of recycled buffers; the engine's own
// never exceed initialBatchCap.
const maxPooledBatch = 64 << 10

// maxFreeBufs caps the freelist length. It must hold the burst of run
// buffers a curveball drain sends before it receives any (≈140 on a
// 2.5·10^5-edge partition) for the next round to reuse them.
const maxFreeBufs = 256

// sendBuffer coalesces one rank's outbound protocol messages per
// destination and owns the rank's batch-buffer freelist. It is not safe
// for concurrent use; each rank engine owns exactly one.
type sendBuffer struct {
	c    *mpi.Comm
	bufs [][]byte // indexed by destination rank; nil/empty when idle
	free [][]byte // recycled batch buffers, single-owner, unlocked
	// runAt[dst] is the offset of the count field of the edge run that
	// ends bufs[dst]; 0 (never a count field) when no run is open.
	runAt []int
}

func (sb *sendBuffer) init(c *mpi.Comm) {
	sb.c = c
	sb.bufs = make([][]byte, c.Size())
	sb.runAt = make([]int, c.Size())
}

// getBuf pops a recycled buffer or allocates a presized fresh one.
func (sb *sendBuffer) getBuf() []byte {
	if n := len(sb.free); n > 0 {
		b := sb.free[n-1]
		sb.free[n-1] = nil
		sb.free = sb.free[:n-1]
		return b
	}
	return make([]byte, 0, initialBatchCap)
}

// recycle returns a buffer the caller has finished reading — usually
// one that arrived from a peer via SendOwned — to this rank's freelist.
func (sb *sendBuffer) recycle(b []byte) {
	if cap(b) == 0 || cap(b) > maxPooledBatch || len(sb.free) >= maxFreeBufs {
		return
	}
	sb.free = append(sb.free, b[:0])
}

// add queues m for dst. Messages to one destination are delivered in
// add order within and across batches (the transports are FIFO per
// (src,dst) pair), so coalescing preserves the protocol's ordering
// assumptions.
func (sb *sendBuffer) add(dst int, m opMsg) {
	if sb.bufs[dst] == nil {
		sb.bufs[dst] = sb.getBuf()
	}
	sb.bufs[dst] = appendOpMsg(sb.bufs[dst], m)
	sb.runAt[dst] = 0
}

// addRun queues one edge-run entry for dst (see the run layout in
// messages.go), extending the run that ends dst's batch or opening a new
// one.
func (sb *sendBuffer) addRun(dst int, key, other uint32, flags byte) {
	b := sb.bufs[dst]
	if b == nil {
		b = sb.getBuf()
	}
	at := sb.runAt[dst]
	if at == 0 {
		b = append(b, runHdrLen, byte(mEdgeRun), 0, 0, 0, 0)
		at = len(b) - 4
		sb.runAt[dst] = at
	}
	binary.LittleEndian.PutUint32(b[at:], binary.LittleEndian.Uint32(b[at:])+1)
	sb.bufs[dst] = append(b,
		byte(key), byte(key>>8), byte(key>>16), byte(key>>24),
		byte(other), byte(other>>8), byte(other>>16), byte(other>>24), flags)
}

// flushDst hands dst's pending batch to the transport, transferring
// buffer ownership to the receiver.
func (sb *sendBuffer) flushDst(dst int) error {
	b := sb.bufs[dst]
	if len(b) == 0 {
		return nil
	}
	sb.bufs[dst], sb.runAt[dst] = nil, 0
	return sb.c.SendOwned(dst, opTag, b)
}

// flush sends every pending batch.
func (sb *sendBuffer) flush() error {
	for dst := range sb.bufs {
		if err := sb.flushDst(dst); err != nil {
			return err
		}
	}
	return nil
}

// pendingBytes reports queued-but-unflushed bytes (step-invariant
// diagnostics: a step must end fully flushed).
func (sb *sendBuffer) pendingBytes() int {
	n := 0
	for _, b := range sb.bufs {
		n += len(b)
	}
	return n
}
