package mpi

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// Distributed operation: each OS process hosts exactly one rank. Rank 0
// doubles as the coordinator — it runs the routing hub every peer dials.
// This is the fully distributed-memory mode: ranks share nothing but the
// wire. distHub and distClient below are the package's only TCP router:
// an in-process WithTCP world (tcp.go) is the same hub with all of its
// members in one process, so everything said here holds for it too.
//
// Failure semantics: every frame carries a CRC32C trailer and every join
// a versioned handshake, so corruption and mixed binaries fail loudly at
// the first bad frame instead of desynchronizing. When a member's
// connection drops mid-run the hub broadcasts a FAULT control frame, so
// every surviving rank's next (or currently blocked) Recv returns an
// error wrapping ErrPeerLost instead of hanging; an orderly Close sends a
// LEAVE frame first, which suppresses the fault. All socket writes carry
// deadlines, so a peer that stopped reading surfaces as an error within
// the write timeout rather than blocking forever.
//
// Typical use (see cmd/esworker):
//
//	pw, err := JoinDistributed(rank, size, "127.0.0.1:9876")
//	...
//	err = pw.Run(func(c *Comm) error { ... })
//	pw.Close()

// handshakeTimeout bounds the hello/ack exchange on both sides: a stray
// connection that never completes a handshake is dropped by the hub
// without consuming a join slot, and a client whose coordinator dies
// mid-handshake re-dials instead of blocking.
const handshakeTimeout = 5 * time.Second

// distConfig carries the tunables of a distributed membership.
type distConfig struct {
	writeTimeout time.Duration
}

// DistOption configures JoinDistributed.
type DistOption func(*distConfig)

// WithWriteTimeout bounds every socket write of this process's transport.
// A dead peer (kernel buffers full, nobody reading) then surfaces as a
// named error within d instead of blocking a send forever. Default 30s.
func WithWriteTimeout(d time.Duration) DistOption {
	return func(cfg *distConfig) { cfg.writeTimeout = d }
}

// ProcWorld is one process's membership in a distributed world.
type ProcWorld struct {
	rank, size int
	box        *mailbox
	client     *distClient
	hub        *distHub // non-nil on rank 0 only
}

// JoinDistributed connects this process to a distributed world of the
// given size as the given rank. Rank 0 listens on addr and routes all
// traffic; other ranks dial addr (retrying with backoff until the
// coordinator is up — and re-dialing on transient mid-handshake failures
// — within timeout). All ranks must agree on size; the versioned
// handshake rejects a disagreeing or mismatched-binary joiner loudly.
func JoinDistributed(rank, size int, addr string, timeout time.Duration, opts ...DistOption) (*ProcWorld, error) {
	if size <= 0 || rank < 0 || rank >= size {
		return nil, fmt.Errorf("mpi: invalid rank %d of %d", rank, size)
	}
	cfg := distConfig{writeTimeout: writeTimeout}
	for _, o := range opts {
		o(&cfg)
	}
	pw := &ProcWorld{rank: rank, size: size, box: newMailbox(0)} // network receives park (see recvSpin)
	if rank == 0 {
		hub, err := newDistHub(addr, size)
		if err != nil {
			return nil, err
		}
		pw.hub = hub
	}
	client, err := dialDist(rank, size, addr, pw.box, timeout, cfg.writeTimeout)
	if err != nil {
		if pw.hub != nil {
			_ = pw.hub.stop() // the dial failure is the error worth reporting
		}
		return nil, err
	}
	pw.client = client
	return pw, nil
}

// Rank reports this process's rank.
func (pw *ProcWorld) Rank() int { return pw.rank }

// Size reports the world size.
func (pw *ProcWorld) Size() int { return pw.size }

// LostRanks reports the ranks this process has observed as lost, in
// ascending order. On rank 0 it is the coordinator's authoritative fault
// record; on other ranks it is the set announced by FAULT control frames
// (empty if the loss surfaced only as a dead coordinator connection).
// The recovery layer uses it to decide which workers to replace before
// restarting the world from a checkpoint.
func (pw *ProcWorld) LostRanks() []int {
	var lost []int
	if pw.hub != nil {
		pw.hub.mu.Lock()
		for r, f := range pw.hub.faulted {
			if f {
				lost = append(lost, r)
			}
		}
		pw.hub.mu.Unlock()
		return lost
	}
	pw.client.lostMu.Lock()
	for r := range pw.client.lost {
		lost = append(lost, r)
	}
	pw.client.lostMu.Unlock()
	sort.Ints(lost)
	return lost
}

// Run executes body with this process's Comm. Unlike World.Run it runs
// exactly one rank; the peers run in their own processes.
func (pw *ProcWorld) Run(body func(c *Comm) error) error {
	w := &World{size: pw.size, transport: pw.client}
	w.boxes = make([]*mailbox, pw.size)
	w.boxes[pw.rank] = pw.box
	return body(&Comm{world: w, rank: pw.rank})
}

// Close tears down the connection (and the hub on rank 0). Call only
// after all ranks have finished their exchanges. The returned error joins
// every fault recorded while the world was live (lost peers, failed hub
// writers) with any teardown failure.
func (pw *ProcWorld) Close() error {
	pw.box.close()
	var errs []error
	if pw.client != nil {
		if err := pw.client.stop(); err != nil {
			errs = append(errs, err)
		}
	}
	if pw.hub != nil {
		if err := pw.hub.stop(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// distClient is the per-process transport: one connection to the hub.
type distClient struct {
	rank         int
	conn         net.Conn
	box          *mailbox
	writeTimeout time.Duration
	wmu          sync.Mutex
	wg           sync.WaitGroup
	closing      atomic.Bool
	faultCnt     atomic.Int64

	lostMu sync.Mutex
	lost   map[int]bool // ranks announced lost by FAULT frames
}

// testDialWrap, when non-nil, wraps every freshly handshaken client
// connection. Fault-injection tests use it to interpose a faultConn (see
// faultinject.go); production code never sets it.
var testDialWrap func(rank int, conn net.Conn) net.Conn

// dialDist establishes this rank's membership: dial, hello, ack. Both the
// dial and the handshake retry with exponential backoff until the overall
// deadline — the coordinator may not be up yet (connection refused), or
// may die between accepting and acking (transient mid-handshake failure).
// Only an explicit rejection by a live coordinator (ErrHandshake: version
// mismatch, duplicate rank, size disagreement) is permanent and fails
// immediately; retrying cannot change its mind. A joinClosed answer
// (errJoinClosed) is transient like a refused connection: a recovering
// world restarts its coordinator on the same address, so a replacement
// rank dialing during teardown retries until the new hub is up.
func dialDist(rank, size int, addr string, box *mailbox, timeout, wto time.Duration) (*distClient, error) {
	deadline := time.Now().Add(timeout)
	// The first retry comes after 1ms (fast startup when the coordinator
	// is nearly up), doubling to a 64ms cap so a missing coordinator
	// isn't hammered.
	backoff := time.Millisecond
	for {
		conn, err := dialOnce(rank, size, addr, deadline)
		if err == nil {
			c := &distClient{rank: rank, conn: conn, box: box, writeTimeout: wto}
			if testDialWrap != nil {
				c.conn = testDialWrap(rank, conn)
			}
			c.wg.Add(1)
			go func() {
				defer c.wg.Done()
				c.readLoop()
			}()
			return c, nil
		}
		if errors.Is(err, ErrHandshake) {
			return nil, fmt.Errorf("mpi: joining coordinator %s: %w", addr, err)
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("mpi: dialing coordinator %s: %w", addr, err)
		}
		t := time.NewTimer(backoff)
		<-t.C
		if backoff < 64*time.Millisecond {
			backoff *= 2
		}
	}
}

// dialOnce is one dial + handshake attempt under a bounded deadline.
func dialOnce(rank, size int, addr string, deadline time.Time) (net.Conn, error) {
	conn, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		return nil, err
	}
	hd := time.Now().Add(handshakeTimeout)
	if deadline.Before(hd) {
		hd = deadline
	}
	_ = conn.SetDeadline(hd)
	if err := writeHello(conn, size, rank); err != nil {
		_ = conn.Close()
		return nil, fmt.Errorf("handshake write: %w", err)
	}
	if err := readAck(conn); err != nil {
		_ = conn.Close()
		return nil, err
	}
	_ = conn.SetDeadline(time.Time{})
	return conn, nil
}

func (c *distClient) start(boxes []*mailbox) error { return nil }

func (c *distClient) faults() int64 { return c.faultCnt.Load() }

// readLoop deposits inbound frames into the mailbox. A FAULT control
// frame — or an unexpected connection loss — fails the mailbox with
// ErrPeerLost so every blocked receive returns a named error.
func (c *distClient) readLoop() {
	br := bufio.NewReaderSize(c.conn, 1<<16)
	for {
		frame, peer, err := readFrame(br)
		if err != nil {
			if !c.closing.Load() {
				c.faultCnt.Add(1)
				c.box.fail(fmt.Errorf("%w: coordinator connection: %v", ErrPeerLost, err))
			}
			return
		}
		if tag := frameTag(frame); tag == wireTagFault {
			c.faultCnt.Add(1)
			c.lostMu.Lock()
			if c.lost == nil {
				c.lost = make(map[int]bool)
			}
			c.lost[peer] = true
			c.lostMu.Unlock()
			c.box.fail(fmt.Errorf("%w: rank %d: %s", ErrPeerLost, peer, framePayload(frame)))
			continue // keep draining; the loop ends when the conn closes
		} else {
			c.box.put(Message{Src: peer, Tag: tag, Data: framePayload(frame)})
		}
	}
}

func (c *distClient) send(src, dst, tag int, data []byte) error {
	frame := encodeFrame(dst, tag, data)
	c.wmu.Lock()
	defer c.wmu.Unlock()
	_ = c.conn.SetWriteDeadline(time.Now().Add(c.writeTimeout))
	if _, err := c.conn.Write(frame); err != nil {
		return fmt.Errorf("%w: writing to coordinator: %v", ErrPeerLost, err)
	}
	return nil
}

func (c *distClient) stop() error {
	if !c.closing.CompareAndSwap(false, true) {
		return nil
	}
	// Best-effort orderly departure: the LEAVE frame tells the hub our
	// imminent EOF is a clean exit, not a fault to broadcast.
	leave := encodeFrame(c.rank, wireTagLeave, nil)
	c.wmu.Lock()
	_ = c.conn.SetWriteDeadline(time.Now().Add(time.Second))
	_, _ = c.conn.Write(leave)
	c.wmu.Unlock()
	err := c.conn.Close()
	c.wg.Wait()
	if err != nil {
		return fmt.Errorf("mpi: closing client connection: %w", err)
	}
	return nil
}

// distHub is the router. Each member holds one connection to it, so the
// connection count is p instead of p²; a frame carries (peer, tag, len,
// payload, crc) where peer is the destination on the way in and the
// source on the way out (see frame.go). Per-(src,dst) FIFO order holds
// because one goroutine reads each inbound connection (route) and
// forwards to per-destination writer queues in arrival order. Around the
// routing sits the membership control plane: handshake admission and
// LEAVE/FAULT bookkeeping.
type distHub struct {
	ln   net.Listener
	size int

	mu       sync.Mutex
	joined   *sync.Cond   // broadcast on writer registration and on shutdown
	writers  []*hubWriter // per-rank outbound queues; nil until joined
	conns    []net.Conn   // per-rank hub-side connections
	pending  []bool       // rank holds a join slot mid-handshake
	departed []bool       // rank sent LEAVE; its EOF is clean
	faulted  []bool       // rank's connection was declared lost
	anyFault bool
	errs     []error
	closed   bool

	faultCnt atomic.Int64
	wg       sync.WaitGroup
	once     sync.Once
}

// newDistHub listens on addr and starts admitting members. A recovering
// world restarts its coordinator on the address the old hub just closed,
// and a child process forked in that instant holds a duplicate of the old
// listening socket until it execs — so "address already in use" is
// transient here, as a refused connection is for dialers: the listen
// retries it (and nothing else) after 1ms doubling to 256ms, ≈0.5s in all.
func newDistHub(addr string, size int) (*distHub, error) {
	ln, err := net.Listen("tcp", addr)
	for backoff := time.Millisecond; errors.Is(err, syscall.EADDRINUSE) && backoff <= 256*time.Millisecond; backoff *= 2 {
		t := time.NewTimer(backoff)
		<-t.C
		ln, err = net.Listen("tcp", addr)
	}
	if err != nil {
		return nil, fmt.Errorf("mpi: coordinator listen on %s: %w", addr, err)
	}
	h := &distHub{
		ln:       ln,
		size:     size,
		writers:  make([]*hubWriter, size),
		conns:    make([]net.Conn, size),
		pending:  make([]bool, size),
		departed: make([]bool, size),
		faulted:  make([]bool, size),
	}
	h.joined = sync.NewCond(&h.mu)
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		h.accept()
	}()
	return h, nil
}

// writerFor returns rank's writer, blocking on the join condition until
// the rank registers. It returns nil if the hub shuts down first.
func (h *distHub) writerFor(rank int) *hubWriter {
	h.mu.Lock()
	defer h.mu.Unlock()
	for h.writers[rank] == nil && !h.closed {
		h.joined.Wait()
	}
	return h.writers[rank]
}

// accept admits connections until the listener closes. Each handshake
// runs in its own goroutine under a deadline, so one stray connection
// that never sends a hello cannot stall legitimate joiners.
func (h *distHub) accept() {
	for {
		conn, err := h.ln.Accept()
		if err != nil {
			return // listener closed: shutdown
		}
		h.wg.Add(1)
		go func(conn net.Conn) {
			defer h.wg.Done()
			h.admit(conn)
		}(conn)
	}
}

// admit runs the hub half of the handshake. A bad hello — garbage bytes,
// wrong magic or version, out-of-range or duplicate rank, disagreeing
// world size — is answered (best-effort) and that connection closed; it
// does NOT consume a join slot and does NOT stop the accept loop, so
// stray connections can never lock legitimate ranks out of the world.
func (h *distHub) admit(conn net.Conn) {
	_ = conn.SetDeadline(time.Now().Add(handshakeTimeout))
	rank, status, err := readHello(conn, h.size)
	if err != nil {
		_ = conn.Close() // short or garbled hello; nothing to report it to
		return
	}
	if status == joinOK {
		h.mu.Lock()
		switch {
		case h.closed:
			status = joinClosed
		case h.anyFault:
			// The world already lost a member: it is doomed, and the
			// recovery layer (cmd/esworker's rollback loop) will tear it
			// down and restart the coordinator on the same address.
			// Admitting the joiner now — a replacement for the lost rank,
			// or a survivor re-dialing early — would only wedge it in the
			// dying world, or reject it permanently as a duplicate.
			// joinClosed is transient on the dialer side, so it retries
			// against the restarted hub instead.
			status = joinClosed
		case h.writers[rank] != nil || h.pending[rank]:
			status = joinDupRank
		default:
			h.pending[rank] = true
		}
		h.mu.Unlock()
	}
	if status != joinOK {
		_ = writeAck(conn, status)
		_ = conn.Close()
		return
	}
	if err := writeAck(conn, joinOK); err != nil {
		// The joiner died mid-handshake: release the slot so it can retry.
		h.mu.Lock()
		h.pending[rank] = false
		h.mu.Unlock()
		_ = conn.Close()
		return
	}
	_ = conn.SetDeadline(time.Time{})
	hw := newHubWriter()
	h.mu.Lock()
	h.pending[rank] = false
	if h.closed {
		h.mu.Unlock()
		_ = conn.Close()
		return
	}
	h.writers[rank] = hw
	h.conns[rank] = conn
	if h.anyFault {
		// The world already lost a member: tell the newcomer immediately
		// so it cannot block forever on traffic that will never come.
		for r, f := range h.faulted {
			if f {
				hw.push(encodeFaultFrame(r, "rank lost before this rank joined"))
			}
		}
	}
	h.joined.Broadcast()
	h.mu.Unlock()
	h.wg.Add(2)
	go func() {
		defer h.wg.Done()
		hw.drain(conn)
		if err := hw.error(); err != nil {
			h.fault(rank, err)
		}
	}()
	go func() {
		defer h.wg.Done()
		h.route(conn, rank)
	}()
}

// route forwards frames from src to their destination writers. Frames to
// a destination that has not joined yet are held until it does (the
// barrier-free startup case). Any read failure — EOF, reset, checksum
// mismatch, malformed routing — while src has neither departed nor the
// hub shut down declares src lost (see fault).
func (h *distHub) route(conn net.Conn, src int) {
	br := bufio.NewReaderSize(conn, 1<<16)
	// A registered writer never changes, so each destination's is looked
	// up once and the steady state takes no hub-wide lock per frame.
	writers := make([]*hubWriter, h.size)
	for {
		frame, peer, err := readFrame(br)
		if err != nil {
			h.mu.Lock()
			clean := h.closed || h.departed[src]
			h.mu.Unlock()
			if !clean {
				h.fault(src, err)
			}
			return
		}
		if tag := frameTag(frame); tag < 0 {
			if tag == wireTagLeave {
				h.mu.Lock()
				h.departed[src] = true
				h.mu.Unlock()
				continue
			}
			h.fault(src, fmt.Errorf("sent reserved control tag %d", tag))
			return
		}
		if peer < 0 || peer >= h.size {
			h.fault(src, fmt.Errorf("addressed invalid rank %d", peer))
			return
		}
		// Rewrite the peer field to carry the source on the way out; the
		// checksum excludes it, so the frame forwards as-is.
		putFramePeer(frame, src)
		hw := writers[peer]
		if hw == nil {
			// writerFor blocks until the destination joins (startup only).
			if hw = h.writerFor(peer); hw == nil {
				return // hub shut down before the destination joined
			}
			writers[peer] = hw
		}
		hw.push(frame)
	}
}

// fault declares rank lost: records the error, broadcasts a FAULT control
// frame to every other member (so their blocked receives abort with
// ErrPeerLost instead of hanging), kills the dead rank's writer (so
// frames addressed to it are dropped, not queued forever) and severs its
// connection. Idempotent per rank; a no-op during orderly shutdown.
func (h *distHub) fault(rank int, err error) {
	h.mu.Lock()
	if h.closed || h.faulted[rank] || h.departed[rank] {
		h.mu.Unlock()
		return
	}
	h.faulted[rank] = true
	h.anyFault = true
	h.errs = append(h.errs, fmt.Errorf("%w: rank %d: %v", ErrPeerLost, rank, err))
	h.faultCnt.Add(1)
	frame := encodeFaultFrame(rank, err.Error())
	for r, hw := range h.writers {
		if hw != nil && r != rank {
			hw.push(frame)
		}
	}
	if hw := h.writers[rank]; hw != nil {
		hw.fail(fmt.Errorf("mpi: rank %d lost: %w", rank, err))
	}
	conn := h.conns[rank]
	h.mu.Unlock()
	if conn != nil {
		_ = conn.Close() // unblock the route reader
	}
}

// stop shuts the hub down and reports every fault recorded while the
// world was live, joined with any teardown failure.
func (h *distHub) stop() error {
	var errs []error
	h.once.Do(func() {
		h.mu.Lock()
		h.closed = true
		errs = append(errs, h.errs...)
		writers := append([]*hubWriter(nil), h.writers...)
		conns := append([]net.Conn(nil), h.conns...)
		h.joined.Broadcast()
		h.mu.Unlock()
		if cerr := h.ln.Close(); cerr != nil {
			errs = append(errs, fmt.Errorf("mpi: closing coordinator listener: %w", cerr))
		}
		for _, hw := range writers {
			if hw != nil {
				hw.close()
			}
		}
		for _, c := range conns {
			if c != nil {
				_ = c.Close()
			}
		}
		h.wg.Wait()
	})
	return errors.Join(errs...)
}
