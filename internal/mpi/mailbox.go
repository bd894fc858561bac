package mpi

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// mailbox is an unbounded per-rank message queue with selective receive:
// a receiver can wait for the first message matching a (source, tag)
// pattern while leaving non-matching messages queued. Unbounded buffering
// is what makes the edge-switch conversation protocol deadlock-free —
// a sender never blocks, so circular waits cannot form on buffer space.
//
// Messages from a single sender are delivered in send order (FIFO per
// source), an invariant the step-termination protocol relies on.
type mailbox struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queue  []Message
	closed bool
	// failErr, when non-nil, is the transport fault that closed the
	// mailbox (peer lost, coordinator gone). Receivers drain any already-
	// queued matches first, then surface this instead of the generic
	// "world closed" error.
	failErr error
	// size mirrors len(queue) so blocked receivers can busy-poll without
	// taking the mutex (the standard MPI progress-engine trick: a short
	// spin avoids a futex sleep/wake round trip when the peer responds
	// within microseconds, which is the common case for the edge-switch
	// conversation protocol).
	size atomic.Int64
	spin int // busy-poll rounds before a receive parks; set by the transport
}

// recvSpin is the spin of mem mailboxes, whose sender is a running
// goroutine. Network mailboxes spin 0: the scheduler checks the global run
// queue, where Gosched puts a spinner, before it polls the network.
const recvSpin = 128

func newMailbox(spin int) *mailbox {
	mb := &mailbox{spin: spin}
	mb.cond = sync.NewCond(&mb.mu)
	return mb
}

// put appends a message and wakes any waiting receiver. Each rank is the
// sole receiver of its mailbox, so Signal (not Broadcast) suffices.
func (mb *mailbox) put(m Message) {
	mb.mu.Lock()
	mb.queue = append(mb.queue, m)
	mb.size.Store(int64(len(mb.queue)))
	mb.mu.Unlock()
	mb.cond.Signal()
}

// close wakes all receivers; subsequent blocking receives fail once the
// queue has drained of matching messages.
func (mb *mailbox) close() {
	mb.mu.Lock()
	mb.closed = true
	mb.mu.Unlock()
	mb.cond.Broadcast()
}

// fail closes the mailbox attributing the closure to a transport fault.
// The first fault wins; a fail after a plain close still records the
// error (the close was administrative, the fault explains it).
func (mb *mailbox) fail(err error) {
	mb.mu.Lock()
	if mb.failErr == nil {
		mb.failErr = err
	}
	mb.closed = true
	mb.mu.Unlock()
	mb.cond.Broadcast()
}

// failure reports the fault that closed the mailbox, if any.
func (mb *mailbox) failure() error {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	return mb.failErr
}

func match(m Message, src, tag int) bool {
	return (src == AnySource || m.Src == src) && (tag == AnyTag || m.Tag == tag)
}

// takeLocked removes and returns the first message matching (src, tag).
// Caller holds mb.mu.
func (mb *mailbox) takeLocked(src, tag int) (Message, bool) {
	for i, m := range mb.queue {
		if match(m, src, tag) {
			copy(mb.queue[i:], mb.queue[i+1:])
			mb.queue[len(mb.queue)-1] = Message{}
			mb.queue = mb.queue[:len(mb.queue)-1]
			mb.size.Store(int64(len(mb.queue)))
			return m, true
		}
	}
	return Message{}, false
}

// get returns the first matching message, waiting until one arrives. ok
// is false once the mailbox is closed and holds no match: none can ever
// arrive.
func (mb *mailbox) get(src, tag int) (m Message, ok bool) {
	mb.mu.Lock()
	for spins := 0; ; {
		if m, ok := mb.takeLocked(src, tag); ok {
			mb.mu.Unlock()
			return m, true
		}
		if mb.closed {
			mb.mu.Unlock()
			return Message{}, false
		}
		if spins < mb.spin {
			// Busy-poll: release the lock, yield, and re-check only
			// when the size counter moves.
			mb.mu.Unlock()
			before := mb.size.Load()
			for ; spins < mb.spin; spins++ {
				runtime.Gosched()
				if mb.size.Load() != before {
					break
				}
			}
			mb.mu.Lock()
			continue
		}
		mb.cond.Wait()
	}
}

// takeAllInto removes every queued message matching (src, tag), in
// arrival order and without blocking, appending them to out (typically a
// recycled slice trimmed to out[:0], so a drain loop reuses one backing
// array).
func (mb *mailbox) takeAllInto(src, tag int, out []Message) []Message {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	if len(mb.queue) == 0 {
		return out
	}
	kept := mb.queue[:0]
	for _, m := range mb.queue {
		if match(m, src, tag) {
			out = append(out, m)
		} else {
			kept = append(kept, m)
		}
	}
	// Zero the tail so released messages can be collected.
	for i := len(kept); i < len(mb.queue); i++ {
		mb.queue[i] = Message{}
	}
	mb.queue = kept
	mb.size.Store(int64(len(mb.queue)))
	return out
}
