// Package mpi is a from-scratch message-passing runtime providing the MPI
// subset the parallel edge-switch algorithms require: tagged point-to-point
// sends, selective blocking receives and a non-blocking drain, plus the
// collectives the engine calls (barrier, broadcast, gather, allgather,
// reduce, allreduce, alltoall).
//
// The paper's algorithms run on MPICH2 over InfiniBand; Go has no mature
// MPI bindings, so this package replaces MPI with goroutine "ranks" that
// hold private state and communicate only by message (the distributed-
// memory discipline is preserved by construction — the graph partitions
// never share data structures). Two transports are provided:
//
//   - mem: messages move between ranks through unbounded in-process
//     mailboxes; this is the default and what benchmarks use.
//   - tcp: every message is serialized into a checksummed binary frame
//     and sent over a real loopback TCP link between the two ranks,
//     exercising the full wire path (serialization, kernel socket
//     buffers, framing).
//
// A WithTCP world is a distributed world (see distributed.go) whose ranks
// all live in this process: the same coordinator admits them and hands
// out the roster, the same links carry their frames, and a lost link or
// connection surfaces as the same ErrPeerLost naming the rank that a
// multi-process ProcWorld reports.
//
// Both transports guarantee FIFO delivery per (sender, receiver) pair,
// which the algorithms' termination protocol depends on.
package mpi

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// AnySource matches messages from any rank in Recv/RecvAllInto.
const AnySource = -1

// AnyTag matches messages with any tag in Recv/RecvAllInto.
const AnyTag = -1

// collTagBase is the start of the tag space reserved for collectives.
// Application tags must be in [0, collTagBase).
const collTagBase = 1 << 30

// ErrPeerFailed marks an error that only repeats a failure the ranks
// agreed on through a collective: a peer's own error is the root cause.
// World.Run returns such an error, or an ErrPeerLost, only when no rank
// failed with anything else.
var ErrPeerFailed = errors.New("mpi: a peer rank failed")

// Message is a received message.
type Message struct {
	Src  int    // sending rank
	Tag  int    // application tag
	Data []byte // payload; owned by the receiver
}

// Transport moves messages between ranks. Implementations must preserve
// FIFO order per (src, dst) pair and must not block senders indefinitely.
type Transport interface {
	// send delivers msg from rank src to rank dst.
	send(src, dst, tag int, data []byte) error
	// start wires the transport to the destination mailboxes.
	start(boxes []*mailbox) error
	// stop tears the transport down.
	stop() error
	// faults reports how many transport faults (lost peers, dead
	// connections, checksum rejections) this transport observed.
	faults() int64
}

// World is a communicator universe of size ranks. Create one with
// NewWorld, then call Run with the SPMD rank body.
type World struct {
	size      int
	boxes     []*mailbox
	transport Transport
	started   bool
	mu        sync.Mutex

	// Transport counters (see Stats): every payload handed to the
	// transport counts once, whatever its size — a coalesced batch is one
	// send. Benchmarks use the counters to assert batching reductions.
	sends     atomic.Int64
	sendBytes atomic.Int64
}

// Option configures a World.
type Option func(*World) error

// WithTCP sends all messages over loopback TCP links, one per pair of
// ranks, instead of through in-process mailboxes.
func WithTCP() Option {
	return func(w *World) error {
		w.transport = &tcpTransport{}
		return nil
	}
}

// NewWorld creates a world with the given number of ranks.
func NewWorld(size int, opts ...Option) (*World, error) {
	if size <= 0 {
		return nil, fmt.Errorf("mpi: world size must be positive, got %d", size)
	}
	w := &World{size: size}
	for _, o := range opts {
		if err := o(w); err != nil {
			return nil, err
		}
	}
	if w.transport == nil {
		w.transport = &memTransport{}
	}
	spin := 0 // a receive on a network transport parks at once (see recvSpin)
	if _, mem := w.transport.(*memTransport); mem {
		spin = recvSpin
	}
	w.boxes = make([]*mailbox, size)
	for i := range w.boxes {
		w.boxes[i] = newMailbox(spin)
	}
	return w, nil
}

// Size reports the number of ranks.
func (w *World) Size() int { return w.size }

// CommStats is a snapshot of a world's transport counters, aggregated
// over all ranks since the world was created. Sends counts payloads
// handed to the transport (a coalesced batch of protocol messages counts
// once); Bytes sums their payload lengths (excluding per-transport frame
// headers). Collectives is only set by Comm.Stats and reports how many
// collective operations that rank has entered.
type CommStats struct {
	Sends       int64
	Bytes       int64
	Collectives int64
	// Faults counts transport faults observed (lost peers, dead
	// connections, checksum rejections). Non-zero Faults means at
	// least one rank saw a named transport error; see ErrPeerLost.
	Faults int64
}

// Stats snapshots the world's transport counters.
func (w *World) Stats() CommStats {
	return CommStats{Sends: w.sends.Load(), Bytes: w.sendBytes.Load(), Faults: w.transport.faults()}
}

// countSend records one transport send of n payload bytes.
func (w *World) countSend(n int) {
	w.sends.Add(1)
	w.sendBytes.Add(int64(n))
}

// Run executes body once per rank, each in its own goroutine, and waits
// for all of them. A rank whose body returns an error or panics (the
// panic is recovered as an error) fails the world: every mailbox is
// failed with an ErrPeerLost naming that rank, so a peer blocked in a
// receive or a collective returns instead of waiting for the failed rank
// forever. Run then returns the root cause: the error of the first rank
// to fail in time, passing over errors that wrap ErrPeerLost or
// ErrPeerFailed (a peer's failure seen second-hand) while any other rank
// error exists. Run may be called repeatedly; each call is a fresh SPMD
// program over the same world, but a world that failed stays failed.
func (w *World) Run(body func(c *Comm) error) error {
	w.mu.Lock()
	if !w.started {
		if err := w.transport.start(w.boxes); err != nil {
			w.mu.Unlock()
			return err
		}
		w.started = true
	}
	w.mu.Unlock()

	var (
		mu          sync.Mutex
		cause, echo error // the first rank errors in time: one of its own, one echoing a peer's
	)
	fail := func(rank int, err error) {
		mu.Lock()
		defer mu.Unlock()
		if cause == nil && echo == nil {
			lost := fmt.Errorf("%w: rank %d: %v", ErrPeerLost, rank, err)
			for _, b := range w.boxes {
				b.fail(lost)
			}
		}
		err = fmt.Errorf("rank %d: %w", rank, err)
		switch {
		case errors.Is(err, ErrPeerLost) || errors.Is(err, ErrPeerFailed):
			if echo == nil {
				echo = err
			}
		case cause == nil:
			cause = err
		}
	}
	var wg sync.WaitGroup
	for rank := 0; rank < w.size; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					fail(rank, fmt.Errorf("mpi: rank %d panicked: %v", rank, r))
				}
			}()
			if err := body(&Comm{world: w, rank: rank}); err != nil {
				fail(rank, err)
			}
		}(rank)
	}
	wg.Wait()
	if cause != nil {
		return cause
	}
	return echo
}

// Close releases transport resources and unblocks any receiver still
// waiting (their Recv calls return an error). On a TCP world the returned
// error joins every fault recorded while the world was live, as
// ProcWorld.Close does.
func (w *World) Close() error {
	for _, b := range w.boxes {
		b.close()
	}
	return w.transport.stop()
}

// Comm is one rank's endpoint into the world. A Comm must only be used by
// the goroutine Run created it for.
type Comm struct {
	world   *World
	rank    int
	collSeq int // collective sequence number; advances identically on all ranks
}

// Rank reports this rank's id in [0, Size()).
func (c *Comm) Rank() int { return c.rank }

// Size reports the world size.
func (c *Comm) Size() int { return c.world.size }

// Send delivers data to rank dst with the given tag. The data slice is
// copied; the caller may reuse it immediately. Sends never block on the
// receiver (unbounded buffering).
func (c *Comm) Send(dst, tag int, data []byte) error {
	if dst < 0 || dst >= c.world.size {
		return fmt.Errorf("mpi: send to invalid rank %d (size %d)", dst, c.world.size)
	}
	if tag < 0 || tag >= collTagBase {
		return fmt.Errorf("mpi: application tag %d out of range [0,%d)", tag, collTagBase)
	}
	return c.send(dst, tag, data)
}

// SendOwned is Send without the defensive copy: the caller transfers
// ownership of data and must not touch it afterwards. Hot paths that
// encode a fresh buffer per message use this to halve their allocations.
func (c *Comm) SendOwned(dst, tag int, data []byte) error {
	if dst < 0 || dst >= c.world.size {
		return fmt.Errorf("mpi: send to invalid rank %d (size %d)", dst, c.world.size)
	}
	if tag < 0 || tag >= collTagBase {
		return fmt.Errorf("mpi: application tag %d out of range [0,%d)", tag, collTagBase)
	}
	c.world.countSend(len(data))
	return c.world.transport.send(c.rank, dst, tag, data)
}

// send is the unchecked path used by collectives (reserved tags allowed).
func (c *Comm) send(dst, tag int, data []byte) error {
	cp := make([]byte, len(data))
	copy(cp, data)
	c.world.countSend(len(cp))
	return c.world.transport.send(c.rank, dst, tag, cp)
}

// Stats snapshots the world's transport counters plus this rank's
// collective count.
func (c *Comm) Stats() CommStats {
	st := c.world.Stats()
	st.Collectives = int64(c.collSeq)
	return st
}

// Recv blocks until a message matching (src, tag) arrives. Use AnySource
// and/or AnyTag as wildcards. It fails if the world is closed; when the
// closure was caused by a transport fault the error wraps ErrPeerLost, so
// callers can distinguish a lost peer from an orderly shutdown with
// errors.Is.
func (c *Comm) Recv(src, tag int) (Message, error) {
	box := c.world.boxes[c.rank]
	m, ok := box.get(src, tag)
	if !ok {
		if err := box.failure(); err != nil {
			return Message{}, fmt.Errorf("mpi: rank %d: %w", c.rank, err)
		}
		return Message{}, fmt.Errorf("mpi: rank %d: world closed while receiving", c.rank)
	}
	return m, nil
}

// RecvAllInto drains every queued message matching (src, tag) in arrival
// order without blocking, appending to out — pass a previous batch
// trimmed to out[:0] and a steady-state drain loop allocates nothing.
func (c *Comm) RecvAllInto(src, tag int, out []Message) []Message {
	return c.world.boxes[c.rank].takeAllInto(src, tag, out)
}

// memTransport delivers messages directly into the destination mailbox.
type memTransport struct{ boxes []*mailbox }

func (t *memTransport) start(boxes []*mailbox) error {
	t.boxes = boxes
	return nil
}

func (t *memTransport) stop() error { return nil }

func (t *memTransport) faults() int64 { return 0 }

func (t *memTransport) send(src, dst, tag int, data []byte) error {
	t.boxes[dst].put(Message{Src: src, Tag: tag, Data: data})
	return nil
}
