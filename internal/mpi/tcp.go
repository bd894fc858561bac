package mpi

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// tcpTransport is a whole distributed world in one process: start opens
// the one routing hub there is (distHub, see distributed.go) on a loopback
// port and joins every rank to it as a distClient delivering into the
// world's own mailboxes. Nothing here routes, frames or handshakes — an
// in-process TCP world runs exactly the code path esworker deploys, so it
// shares its failure semantics: a lost connection fails the survivors'
// receives with an ErrPeerLost naming the rank.
type tcpTransport struct {
	hub     *distHub
	clients []*distClient // indexed by rank
}

// writeTimeout bounds every hub-side and client-side socket write. A dead
// peer whose kernel buffers have filled then surfaces as a deadline error
// within this window instead of blocking a writer forever.
const writeTimeout = 30 * time.Second

func (t *tcpTransport) start(boxes []*mailbox) error {
	size := len(boxes)
	hub, err := newDistHub("127.0.0.1:0", size)
	if err != nil {
		return err
	}
	t.hub = hub
	addr := hub.ln.Addr().String()
	for rank, box := range boxes {
		// The hub is already listening, so the dial deadline only has to
		// cover the handshake itself.
		c, err := dialDist(rank, size, addr, box, handshakeTimeout, writeTimeout)
		if err != nil {
			_ = t.stop() // the dial failure is the error worth reporting
			t.hub, t.clients = nil, nil
			return err
		}
		t.clients = append(t.clients, c)
	}
	return nil
}

func (t *tcpTransport) send(src, dst, tag int, data []byte) error {
	return t.clients[src].send(src, dst, tag, data)
}

// faults reports the hub's count of lost ranks: with every member in this
// process, each client-side fault is also a connection the hub saw die.
func (t *tcpTransport) faults() int64 {
	if t.hub == nil {
		return 0
	}
	return t.hub.faultCnt.Load()
}

// stop departs every rank in order (LEAVE, so the hub records no fault
// for the closing connections) and then stops the hub, whose error joins
// every fault recorded while the world was live.
func (t *tcpTransport) stop() error {
	if t.hub == nil {
		return nil // never started
	}
	var errs []error
	for _, c := range t.clients {
		if err := c.stop(); err != nil {
			errs = append(errs, err)
		}
	}
	if err := t.hub.stop(); err != nil {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}

// hubWriter serializes hub-side writes to one rank connection. Frames are
// queued so hub reader goroutines never block on a slow destination
// socket, preserving liveness under arbitrary traffic patterns. Once the
// drain loop dies on a write error the writer is dead: subsequent pushes
// are dropped (not queued — a long run with one dead peer must not
// accumulate frames forever) and the error is kept for teardown.
type hubWriter struct {
	mu    sync.Mutex
	cond  *sync.Cond
	queue [][]byte
	done  bool
	dead  bool
	err   error
}

func newHubWriter() *hubWriter {
	hw := &hubWriter{}
	hw.cond = sync.NewCond(&hw.mu)
	return hw
}

// push queues a frame, or drops it if the writer already died.
func (hw *hubWriter) push(frame []byte) {
	hw.mu.Lock()
	if hw.dead {
		hw.mu.Unlock()
		return
	}
	hw.queue = append(hw.queue, frame)
	hw.mu.Unlock()
	hw.cond.Signal()
}

func (hw *hubWriter) close() {
	hw.mu.Lock()
	hw.done = true
	hw.mu.Unlock()
	hw.cond.Signal()
}

// fail marks the writer dead, records the first error, and releases the
// queue (nothing will ever drain it).
func (hw *hubWriter) fail(err error) {
	hw.mu.Lock()
	if !hw.dead {
		hw.dead = true
		hw.err = err
	}
	hw.queue = nil
	hw.mu.Unlock()
	hw.cond.Broadcast()
}

// error reports the write error that killed the writer, if any.
func (hw *hubWriter) error() error {
	hw.mu.Lock()
	defer hw.mu.Unlock()
	return hw.err
}

// drain runs until close or a write error, writing queued frames to conn.
// Each wakeup takes the whole queue and hands it to the connection as one
// vectored write (writev(2) when conn is a *net.TCPConn), so a burst of
// frames costs one syscall instead of one write per frame. Every batch
// write carries a deadline: a destination that stopped reading surfaces
// as an error within writeTimeout instead of blocking the hub forever.
// On error the writer is marked dead (see push) and the error recorded.
func (hw *hubWriter) drain(conn net.Conn) {
	for {
		hw.mu.Lock()
		for len(hw.queue) == 0 && !hw.done && !hw.dead {
			hw.cond.Wait()
		}
		if hw.dead || (len(hw.queue) == 0 && hw.done) {
			hw.mu.Unlock()
			return
		}
		batch := hw.queue
		hw.queue = nil
		hw.mu.Unlock()
		bufs := net.Buffers(batch)
		_ = conn.SetWriteDeadline(time.Now().Add(writeTimeout))
		if _, err := bufs.WriteTo(conn); err != nil {
			hw.fail(fmt.Errorf("mpi: hub write: %w", err))
			return
		}
	}
}
