package mpi

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// Distributed operation: each OS process hosts exactly one rank, and the
// ranks share nothing but the wire. Rank 0 doubles as the coordinator, a
// rendezvous and membership service: every rank holds one control
// connection to it, joins over it with a versioned hello that carries the
// rank's data-plane listen address, and receives the roster of every
// rank's address once all have joined. Each rank then dials every lower
// rank, so each pair of ranks shares one TCP link, and JoinDistributed
// returns once all p−1 links are up, as MPI_Init does. Data frames never
// touch the coordinator: one reader goroutine per link feeds the rank's
// mailbox, so FIFO order per pair holds by construction, and a send to
// the rank itself goes straight into its own mailbox. An in-process
// WithTCP world (tcp.go) is the same coordinator and ranks in one
// process, so everything said here holds for it too.
//
// Failure semantics: every frame carries a CRC32C trailer and every join
// a versioned handshake, so corruption and mixed binaries fail loudly at
// the first bad frame instead of desynchronizing. A link that ends in EOF
// without a LEAVE, or delivers a frame failing its checksum, loses the
// peer: the rank that sees it fails its own mailbox with an ErrPeerLost
// naming the peer and reports the loss to the coordinator, which declares
// the peer lost and broadcasts a FAULT control frame, so every other
// rank's next (or currently blocked) Recv returns the same named error
// instead of hanging. A rank whose control connection drops is lost the
// same way. An orderly Close sends LEAVE on every link and to the
// coordinator first, which suppresses the fault. All socket writes carry
// deadlines, so a peer that stopped reading surfaces as an error within
// the write timeout rather than blocking forever.
//
// Typical use (see edgeswitch -coordinator):
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
// given size as the given rank. Rank 0 listens on addr (port 0 picks a
// free one) and coordinates; other ranks dial addr, retrying with backoff
// until the coordinator is up — and re-dialing on transient mid-handshake
// failures. It returns once every rank has joined and this rank's links
// to all of them are up, all within timeout. All ranks must agree on
// size; the versioned handshake rejects a disagreeing or mismatched-binary
// joiner loudly.
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
		hub, err := newDistHub(addr, size, cfg.writeTimeout)
		if err != nil {
			return nil, err
		}
		pw.hub = hub
		addr = hub.ln.Addr().String() // the port the hub bound, if addr asked for any
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

// Close leaves the world (and stops the coordinator on rank 0). Call only
// after all ranks have finished their exchanges. It returns once the
// coordinator has read this rank's departure, so a loss this rank
// reported is on record (LostRanks) and a rejoin cannot overtake it. The
// returned error joins every fault the coordinator recorded while the
// world was live with any teardown failure.
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

// ctrlConn is a control connection: control frames are rare, so each is
// written synchronously, under a mutex and a deadline.
type ctrlConn struct {
	net.Conn
	mu sync.Mutex
}

func (cc *ctrlConn) send(frame []byte, timeout time.Duration) error {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	_ = cc.SetWriteDeadline(time.Now().Add(timeout))
	_, err := cc.Write(frame)
	return err
}

// distClient is one rank's transport: a control connection to the
// coordinator and one link to every other rank.
type distClient struct {
	rank         int
	conn         *ctrlConn
	links        []*link // indexed by peer rank; nil at this rank
	box          *mailbox
	writeTimeout time.Duration
	ctrlDone     chan struct{} // closed when the control reader exits
	wg           sync.WaitGroup
	closing      atomic.Bool
	faultCnt     atomic.Int64

	lostMu sync.Mutex
	lost   map[int]bool // ranks announced lost by FAULT frames
}

// link is this rank's end of the connection it shares with one peer.
type link struct {
	peer     int
	conn     net.Conn
	mu       sync.Mutex  // serializes writes
	err      error       // first write failure: later sends fail fast with it
	renew    time.Time   // when the write deadline is next pushed out
	departed atomic.Bool // the peer sent LEAVE: its EOF is clean
}

// testDialWrap, when non-nil, wraps each of rank's freshly handshaken
// connections: its link to peer, or with peer == coordinator its control
// connection. Fault-injection tests use it to interpose a faultConn (see
// faultinject.go); production code never sets it.
var testDialWrap func(rank, peer int, conn net.Conn) net.Conn

// coordinator is the peer testDialWrap names for a control connection.
const coordinator = -1

// dialDist establishes this rank's membership: dial, hello, ack, roster,
// links. The dial and the handshake retry with exponential backoff until
// the overall deadline — the coordinator may not be up yet (connection
// refused), or may die between accepting and acking (transient
// mid-handshake failure). Only an explicit rejection by a live
// coordinator (ErrHandshake: version mismatch, duplicate rank, size
// disagreement) is permanent and fails immediately; retrying cannot
// change its mind. A joinClosed answer (errJoinClosed) is transient like
// a refused connection: a recovering world restarts its coordinator on
// the same address, so a replacement rank dialing during teardown retries
// until the new hub is up.
func dialDist(rank, size int, addr string, box *mailbox, timeout, wto time.Duration) (*distClient, error) {
	deadline := time.Now().Add(timeout)
	// The first retry comes after 1ms (fast startup when the coordinator
	// is nearly up), doubling to a 64ms cap so a missing coordinator
	// isn't hammered.
	backoff := time.Millisecond
	for {
		conn, ln, roster, err := dialOnce(rank, size, addr, deadline)
		if err == nil {
			c := &distClient{rank: rank, conn: &ctrlConn{Conn: conn}, box: box, writeTimeout: wto,
				ctrlDone: make(chan struct{})}
			if err := c.connect(ln, roster, deadline); err != nil {
				_ = conn.Close()
				for _, l := range c.links {
					if l != nil {
						_ = l.conn.Close()
					}
				}
				return nil, err
			}
			c.startReaders()
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

// dialOnce is one join attempt: dial, open this rank's data-plane
// listener on the control connection's local IP, hello, ack, and wait
// for the roster the coordinator sends once every rank has joined.
func dialOnce(rank, size int, addr string, deadline time.Time) (net.Conn, net.Listener, []string, error) {
	conn, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		return nil, nil, nil, err
	}
	host, _, _ := net.SplitHostPort(conn.LocalAddr().String())
	ln, err := net.Listen("tcp", net.JoinHostPort(host, "0"))
	if err != nil {
		_ = conn.Close()
		return nil, nil, nil, err
	}
	roster, err := handshake(conn, size, rank, ln.Addr().String(), deadline)
	if err != nil {
		_ = ln.Close()
		_ = conn.Close()
		return nil, nil, nil, err
	}
	return conn, ln, roster, nil
}

// handshake runs the client half of a join on a fresh connection and
// returns the roster: every rank's data-plane address, by rank.
func handshake(conn net.Conn, size, rank int, listen string, deadline time.Time) ([]string, error) {
	_ = conn.SetDeadline(handshakeDeadline(deadline))
	if err := writeHello(conn, size, rank, listen); err != nil {
		return nil, fmt.Errorf("handshake write: %w", err)
	}
	if err := readAck(conn); err != nil {
		return nil, err
	}
	_ = conn.SetDeadline(deadline)
	frame, _, err := readFrame(conn)
	if err != nil {
		return nil, fmt.Errorf("awaiting the roster: %w", err)
	}
	if tag := frameTag(frame); tag != wireTagRoster {
		return nil, fmt.Errorf("awaiting the roster: got control tag %d", tag)
	}
	parts, err := decodeParts(framePayload(frame))
	if err != nil || len(parts) != size {
		return nil, fmt.Errorf("%w: malformed roster", ErrHandshake)
	}
	roster := make([]string, size)
	for r, p := range parts {
		roster[r] = string(p)
	}
	_ = conn.SetDeadline(time.Time{})
	return roster, nil
}

// handshakeDeadline bounds one hello/ack exchange by handshakeTimeout and
// by the overall deadline, whichever comes first.
func handshakeDeadline(deadline time.Time) time.Time {
	if hd := time.Now().Add(handshakeTimeout); hd.Before(deadline) {
		return hd
	}
	return deadline
}

// connect brings up this rank's links: it dials every lower rank while
// accepting every higher one on ln, and closes ln when done. Dials go
// strictly downward and rank 0 only accepts, so no two ranks wait on
// each other.
func (c *distClient) connect(ln net.Listener, roster []string, deadline time.Time) error {
	size := len(roster)
	c.links = make([]*link, size)
	accepted := make(chan error, 1)
	go func() { accepted <- c.acceptLinks(ln, size, deadline) }() // goroutine-lifecycle: joined by the <-accepted receive below
	var err error
	for peer := 0; peer < c.rank && err == nil; peer++ {
		var conn net.Conn
		if conn, err = dialLink(roster[peer], size, c.rank, deadline); err != nil {
			err = fmt.Errorf("mpi: rank %d linking to rank %d at %s: %w", c.rank, peer, roster[peer], err)
			break
		}
		c.links[peer] = &link{peer: peer, conn: conn}
	}
	if err != nil {
		_ = ln.Close() // stops the acceptor
	}
	if aerr := <-accepted; err == nil {
		err = aerr
	}
	_ = ln.Close()
	return err
}

// acceptLinks admits one link from each higher rank. A connection whose
// hello is garbled, out of range or a duplicate is answered (best
// effort), closed and does not count.
func (c *distClient) acceptLinks(ln net.Listener, size int, deadline time.Time) error {
	if tl, ok := ln.(*net.TCPListener); ok {
		_ = tl.SetDeadline(deadline)
	}
	for want := size - 1 - c.rank; want > 0; {
		conn, err := ln.Accept()
		if err != nil {
			return fmt.Errorf("mpi: rank %d awaiting links: %w", c.rank, err)
		}
		_ = conn.SetDeadline(handshakeDeadline(deadline))
		peer, _, status, err := readHello(conn, size)
		if err != nil {
			_ = conn.Close()
			continue
		}
		if status == joinOK && peer <= c.rank {
			status = joinBadRank
		} else if status == joinOK && c.links[peer] != nil {
			status = joinDupRank
		}
		if err := writeAck(conn, status); err != nil || status != joinOK {
			_ = conn.Close()
			continue
		}
		_ = conn.SetDeadline(time.Time{})
		c.links[peer] = &link{peer: peer, conn: conn}
		want--
	}
	return nil
}

// dialLink opens this rank's link to the rank listening on addr; the
// link hello names the dialer.
func dialLink(addr string, size, rank int, deadline time.Time) (net.Conn, error) {
	conn, err := net.DialTimeout("tcp", addr, time.Until(deadline))
	if err != nil {
		return nil, err
	}
	_ = conn.SetDeadline(handshakeDeadline(deadline))
	err = writeHello(conn, size, rank, "")
	if err == nil {
		err = readAck(conn)
	}
	if err != nil {
		_ = conn.Close()
		return nil, err
	}
	_ = conn.SetDeadline(time.Time{})
	return conn, nil
}

// startReaders starts one reader per link and one for the control
// connection.
func (c *distClient) startReaders() {
	if testDialWrap != nil {
		c.conn.Conn = testDialWrap(c.rank, coordinator, c.conn.Conn)
	}
	for _, l := range c.links {
		if l == nil {
			continue
		}
		if testDialWrap != nil {
			l.conn = testDialWrap(c.rank, l.peer, l.conn)
		}
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			c.readLink(l)
		}()
	}
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		defer close(c.ctrlDone)
		c.readControl()
	}()
}

func (c *distClient) start(boxes []*mailbox) error { return nil }

func (c *distClient) faults() int64 { return c.faultCnt.Load() }

// readLink deposits the peer's frames into the mailbox until the link
// ends. EOF after the peer's LEAVE, or after this rank closed the link
// itself, is clean; any other end loses the peer.
func (c *distClient) readLink(l *link) {
	br := bufio.NewReaderSize(l.conn, 1<<16)
	for {
		frame, _, err := readFrame(br)
		if err != nil {
			if !c.closing.Load() && !l.departed.Load() && !errors.Is(err, net.ErrClosed) {
				c.lose(l.peer, err)
			}
			return
		}
		switch tag := frameTag(frame); {
		case tag >= 0:
			c.box.put(Message{Src: l.peer, Tag: tag, Data: framePayload(frame)})
		case tag == wireTagLeave:
			l.departed.Store(true)
		default:
			c.lose(l.peer, fmt.Errorf("sent reserved control tag %d", tag))
			return
		}
	}
}

// lose reports peer lost to the coordinator and fails this rank's
// mailbox with an ErrPeerLost naming it.
func (c *distClient) lose(peer int, err error) {
	c.faultCnt.Add(1)
	_ = c.conn.send(encodeFrame(peer, wireTagLost, []byte(err.Error())), c.writeTimeout)
	c.box.fail(fmt.Errorf("%w: rank %d: %v", ErrPeerLost, peer, err))
}

// readControl waits for FAULT frames from the coordinator. A FAULT — or
// an unexpected loss of the coordinator — fails the mailbox with
// ErrPeerLost so every blocked receive returns a named error.
func (c *distClient) readControl() {
	br := bufio.NewReader(c.conn)
	for {
		frame, peer, err := readFrame(br)
		if err != nil {
			if !c.closing.Load() {
				c.faultCnt.Add(1)
				c.box.fail(fmt.Errorf("%w: coordinator connection: %v", ErrPeerLost, err))
			}
			return
		}
		if frameTag(frame) != wireTagFault {
			continue
		}
		c.faultCnt.Add(1)
		c.lostMu.Lock()
		if c.lost == nil {
			c.lost = make(map[int]bool)
		}
		c.lost[peer] = true
		c.lostMu.Unlock()
		c.box.fail(fmt.Errorf("%w: rank %d: %s", ErrPeerLost, peer, framePayload(frame)))
	}
}

func (c *distClient) send(src, dst, tag int, data []byte) error {
	if dst == c.rank {
		c.box.put(Message{Src: src, Tag: tag, Data: data})
		return nil
	}
	l := c.links[dst]
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil || l.departed.Load() {
		return l.err // a peer that left in order receives nothing more
	}
	if now := time.Now(); now.After(l.renew) {
		// Renewing the deadline costs about as much as a small write, so
		// it is pushed out only once half of it has passed: a write
		// still fails within the write timeout, and no sooner than half.
		_ = l.conn.SetWriteDeadline(now.Add(c.writeTimeout))
		l.renew = now.Add(c.writeTimeout / 2)
	}
	_, err := l.conn.Write(encodeFrame(src, tag, data))
	if err == nil || l.departed.Load() {
		return nil
	}
	if errors.Is(err, os.ErrDeadlineExceeded) {
		// The peer stopped reading: only this rank can tell. Any other
		// failure kills the socket at both ends, and the reader reports it.
		c.lose(dst, err)
	}
	l.err = fmt.Errorf("%w: writing to rank %d: %v", ErrPeerLost, dst, err)
	return l.err
}

// stop leaves the world: LEAVE on every link, then to the coordinator,
// whose closing of the control connection it waits for (within the write
// timeout) so the departure — and any loss reported before it — is on
// record first.
func (c *distClient) stop() error {
	if !c.closing.CompareAndSwap(false, true) {
		return nil
	}
	leave := encodeFrame(c.rank, wireTagLeave, nil)
	for _, l := range c.links {
		if l == nil {
			continue
		}
		l.mu.Lock()
		if l.err == nil {
			_ = l.conn.SetWriteDeadline(time.Now().Add(time.Second))
			_, _ = l.conn.Write(leave)
		}
		l.mu.Unlock()
		_ = l.conn.Close()
	}
	_ = c.conn.send(leave, c.writeTimeout)
	_ = c.conn.SetReadDeadline(time.Now().Add(c.writeTimeout))
	<-c.ctrlDone
	err := c.conn.Close()
	c.wg.Wait()
	if err != nil && !errors.Is(err, net.ErrClosed) {
		return fmt.Errorf("mpi: closing client connection: %w", err)
	}
	return nil
}

// distHub is the coordinator: it admits members, sends the roster once
// all have joined, and keeps the membership record — LEAVE, lost ranks,
// FAULT broadcasts. It carries no data frames.
type distHub struct {
	ln           net.Listener
	size         int
	writeTimeout time.Duration

	mu       sync.Mutex
	members  []*ctrlConn // per-rank control connections; nil until joined
	addrs    []string    // per-rank data-plane listen addresses
	joined   int
	formed   bool   // the roster went out
	pending  []bool // rank holds a join slot mid-handshake
	departed []bool // rank sent LEAVE; its EOF is clean
	faulted  []bool // rank was declared lost
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
func newDistHub(addr string, size int, wto time.Duration) (*distHub, error) {
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
		ln:           ln,
		size:         size,
		writeTimeout: wto,
		members:      make([]*ctrlConn, size),
		addrs:        make([]string, size),
		pending:      make([]bool, size),
		departed:     make([]bool, size),
		faulted:      make([]bool, size),
	}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		h.accept()
	}()
	return h, nil
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

// admit runs the hub half of the handshake, then serves the member's
// control connection. A bad hello — garbage bytes, wrong magic or
// version, out-of-range or duplicate rank, disagreeing world size — is
// answered (best-effort) and that connection closed; it does NOT consume
// a join slot and does NOT stop the accept loop, so stray connections can
// never lock legitimate ranks out of the world.
func (h *distHub) admit(conn net.Conn) {
	_ = conn.SetDeadline(time.Now().Add(handshakeTimeout))
	rank, addr, status, err := readHello(conn, h.size)
	if err != nil {
		_ = conn.Close() // short or garbled hello; nothing to report it to
		return
	}
	if status == joinOK {
		h.mu.Lock()
		switch {
		case h.closed || h.anyFault:
			// A world that lost a member is doomed, and the recovery
			// layer (cmd/edgeswitch's rollback loop) will tear it down
			// and restart the coordinator on the same address. Admitting
			// the joiner now — a replacement for the lost rank, or a
			// survivor re-dialing early — would only wedge it in the
			// dying world, or reject it permanently as a duplicate.
			// joinClosed is transient on the dialer side, so it retries
			// against the restarted hub instead.
			status = joinClosed
		case h.members[rank] != nil || h.pending[rank]:
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
	err = writeAck(conn, joinOK)
	_ = conn.SetDeadline(time.Time{})
	cc := &ctrlConn{Conn: conn}
	h.mu.Lock()
	h.pending[rank] = false
	if err != nil || h.closed || h.anyFault {
		// The joiner died mid-handshake (its slot is free for a retry),
		// or the world stopped or faulted meanwhile.
		h.mu.Unlock()
		_ = conn.Close()
		return
	}
	h.members[rank], h.addrs[rank] = cc, addr
	h.joined++
	var members []*ctrlConn
	var roster []byte
	if h.joined == h.size {
		h.formed = true
		members = append(members, h.members...)
		parts := make([][]byte, h.size)
		for r, a := range h.addrs {
			parts[r] = []byte(a)
		}
		roster = encodeFrame(0, wireTagRoster, encodeParts(parts))
	}
	h.mu.Unlock()
	for _, m := range members {
		_ = m.send(roster, h.writeTimeout) // a failed send surfaces as that member's EOF
	}
	h.serve(rank, cc)
}

// serve reads rank's control frames: LOST reports and, last, its LEAVE.
// A read failure before the roster went out only frees the rank's slot;
// after it, unless the rank departed or the hub is stopping, it declares
// the rank lost.
func (h *distHub) serve(rank int, cc *ctrlConn) {
	defer cc.Close() // after a LEAVE: the EOF the leaving rank waits for
	br := bufio.NewReader(cc)
	for {
		frame, peer, err := readFrame(br)
		if err != nil {
			h.mu.Lock()
			switch {
			case h.closed || h.departed[rank] || h.faulted[rank]:
			case !h.formed:
				h.members[rank] = nil
				h.joined--
			default:
				h.mu.Unlock()
				h.fault(rank, err)
				return
			}
			h.mu.Unlock()
			return
		}
		switch tag := frameTag(frame); {
		case tag == wireTagLeave:
			h.mu.Lock()
			h.departed[rank] = true
			h.mu.Unlock()
			return
		case tag == wireTagLost && peer >= 0 && peer < h.size && peer != rank:
			h.mu.Lock()
			reporterLost := h.faulted[rank]
			h.mu.Unlock()
			if !reporterLost {
				h.fault(peer, fmt.Errorf("reported by rank %d: %s", rank, framePayload(frame)))
			}
		default:
			h.fault(rank, fmt.Errorf("sent the coordinator tag %d for rank %d", tag, peer))
			return
		}
	}
}

// fault declares rank lost: records the error, sends a FAULT control
// frame to every other live member (so their blocked receives abort with
// ErrPeerLost instead of hanging) and severs the lost rank's control
// connection. Idempotent per rank; a no-op for a departed rank and
// during orderly shutdown.
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
	var notify []*ctrlConn
	for r, m := range h.members {
		if m != nil && !h.departed[r] && !h.faulted[r] {
			notify = append(notify, m)
		}
	}
	lost := h.members[rank]
	h.mu.Unlock()
	frame := encodeFaultFrame(rank, err.Error())
	for _, m := range notify {
		_ = m.send(frame, h.writeTimeout)
	}
	if lost != nil {
		_ = lost.Close()
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
		members := append([]*ctrlConn(nil), h.members...)
		h.mu.Unlock()
		if cerr := h.ln.Close(); cerr != nil {
			errs = append(errs, fmt.Errorf("mpi: closing coordinator listener: %w", cerr))
		}
		for _, m := range members {
			if m != nil {
				_ = m.Close()
			}
		}
		h.wg.Wait()
	})
	return errors.Join(errs...)
}
