package mpi

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"
)

// joinWorld joins all ranks of a size-n world on addr concurrently and
// returns the ProcWorlds (nil entries for ranks whose join failed, with
// the error in errs).
func joinWorld(t *testing.T, addr string, size int) ([]*ProcWorld, []error) {
	t.Helper()
	worlds := make([]*ProcWorld, size)
	errs := make([]error, size)
	var wg sync.WaitGroup
	for rank := 0; rank < size; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			worlds[rank], errs[rank] = JoinDistributed(rank, size, addr, 10*time.Second)
		}(rank)
	}
	wg.Wait()
	return worlds, errs
}

func closeWorlds(worlds []*ProcWorld) {
	for _, pw := range worlds {
		if pw != nil {
			_ = pw.Close()
		}
	}
}

// joinRankZero starts rank 0 of a size-n world on addr — the join returns
// only once the whole world has formed — and waits until its coordinator
// accepts connections.
func joinRankZero(t *testing.T, addr string, size int) <-chan *ProcWorld {
	t.Helper()
	joined := make(chan *ProcWorld, 1)
	go func() {
		pw, err := JoinDistributed(0, size, addr, 10*time.Second)
		if err != nil {
			t.Errorf("rank 0: %v", err)
		}
		joined <- pw
	}()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		conn, err := net.Dial("tcp", addr)
		if err == nil {
			_ = conn.Close()
			return joined
		}
		if time.Now().After(deadline) {
			t.Fatalf("coordinator never listened on %s: %v", addr, err)
		}
	}
}

// TestStrayConnectionsDoNotBlockJoin drives the coordinator's accept loop
// with garbage while a legitimate world forms: a connection sending a
// malformed hello, one sending nothing, and one closing immediately. None
// may consume a join slot or stop the accept loop — the full world must
// still form (the seed code returned out of the accept loop on the first
// bad handshake, permanently locking out all not-yet-joined ranks).
func TestStrayConnectionsDoNotBlockJoin(t *testing.T) {
	addr := freeAddr(t)

	// Rank 0 first, so the hub is up before the strays attack.
	joined0 := joinRankZero(t, addr, 3)

	// Stray 1: garbage hello (wrong magic, full length).
	stray1, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer stray1.Close()
	if _, err := stray1.Write(make([]byte, helloLen)); err != nil {
		t.Fatal(err)
	}
	// Stray 2: connects and sends nothing (parks in the hub's handshake
	// deadline; must not stall other joiners meanwhile).
	stray2, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer stray2.Close()
	// Stray 3: connects and hangs up immediately.
	stray3, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	_ = stray3.Close()

	// The remaining legitimate ranks must still be able to join and talk.
	var wg sync.WaitGroup
	errs := make([]error, 3)
	worlds := make([]*ProcWorld, 3)
	for rank := 1; rank < 3; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			worlds[rank], errs[rank] = JoinDistributed(rank, 3, addr, 10*time.Second)
		}(rank)
	}
	wg.Wait()
	worlds[0] = <-joined0
	defer closeWorlds(worlds)
	if worlds[0] == nil {
		t.FailNow()
	}
	for rank := 1; rank < 3; rank++ {
		if errs[rank] != nil {
			t.Fatalf("rank %d locked out by stray connection: %v", rank, errs[rank])
		}
	}
	runErrs := make([]error, 3)
	for rank := 0; rank < 3; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			runErrs[rank] = worlds[rank].Run(func(c *Comm) error {
				sum, err := c.AllreduceInt64s([]int64{int64(c.Rank())}, OpSum)
				if err != nil {
					return err
				}
				if sum[0] != 3 {
					return fmt.Errorf("allreduce = %v", sum)
				}
				return nil
			})
		}(rank)
	}
	wg.Wait()
	for rank, err := range runErrs {
		if err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
	}
}

// TestDuplicateRankRejected: a second claimant of a live rank is turned
// away with a named handshake error, without consuming a join slot or
// harming the incumbent world.
func TestDuplicateRankRejected(t *testing.T) {
	addr := freeAddr(t)
	worlds, errs := joinWorld(t, addr, 2)
	defer closeWorlds(worlds)
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
	}

	if _, err := JoinDistributed(1, 2, addr, 2*time.Second); !errors.Is(err, ErrHandshake) {
		t.Fatalf("duplicate rank: err = %v, want ErrHandshake", err)
	}

	// The incumbent world must be unharmed.
	var wg sync.WaitGroup
	runErrs := make([]error, 2)
	for rank := 0; rank < 2; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			runErrs[rank] = worlds[rank].Run(func(c *Comm) error {
				if c.Rank() == 0 {
					return c.Send(1, 4, []byte("still alive"))
				}
				m, err := c.Recv(0, 4)
				if err != nil {
					return err
				}
				if string(m.Data) != "still alive" {
					return fmt.Errorf("got %q", m.Data)
				}
				return nil
			})
		}(rank)
	}
	wg.Wait()
	for rank, err := range runErrs {
		if err != nil {
			t.Fatalf("rank %d after duplicate join: %v", rank, err)
		}
	}
}

// TestVersionMismatchRejected: a binary speaking a different wire version
// is refused loudly at join, instead of desynchronizing the frame stream
// later.
func TestVersionMismatchRejected(t *testing.T) {
	addr := freeAddr(t)
	joined0 := joinRankZero(t, addr, 2)

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	hello := make([]byte, helloLen)             // a hello of another version may be shaped differently past these 16 bytes
	copy(hello, []byte{0x31, 0x57, 0x53, 0x45}) // wireMagic little-endian
	hello[4] = wireVersion + 1
	hello[8] = 2  // size
	hello[12] = 1 // rank
	if _, err := conn.Write(hello); err != nil {
		t.Fatal(err)
	}
	if err := readAck(conn); !errors.Is(err, ErrHandshake) {
		t.Fatalf("version mismatch: err = %v, want ErrHandshake", err)
	}

	// The true rank 1 can still join afterwards.
	pw1, err := JoinDistributed(1, 2, addr, 10*time.Second)
	pw0 := <-joined0
	closeWorlds([]*ProcWorld{pw0, pw1})
	if err != nil {
		t.Fatalf("legitimate rank blocked after version-mismatch reject: %v", err)
	}
}

// TestSizeMismatchRejected: ranks disagreeing on the world size must not
// form a world.
func TestSizeMismatchRejected(t *testing.T) {
	addr := freeAddr(t)
	joined0 := joinRankZero(t, addr, 2)
	_, err := JoinDistributed(1, 4, addr, 2*time.Second)
	// The true rank 1 completes the world, so rank 0's join returns.
	pw1, err1 := JoinDistributed(1, 2, addr, 10*time.Second)
	closeWorlds([]*ProcWorld{<-joined0, pw1})
	if !errors.Is(err, ErrHandshake) {
		t.Fatalf("size mismatch: err = %v, want ErrHandshake", err)
	}
	if err1 != nil {
		t.Fatalf("legitimate rank blocked after size-mismatch reject: %v", err1)
	}
}

// TestSeveredRankFaultsSurvivors is the acceptance scenario: rank 2's
// link to rank 0 is severed mid-run; every surviving rank must return a
// named ErrPeerLost error promptly — rank 0 from the EOF it reads, rank 1
// from the coordinator's FAULT broadcast — instead of hanging in Recv
// until an external timeout.
func TestSeveredRankFaultsSurvivors(t *testing.T) {
	addr := freeAddr(t)
	testDialWrap = func(rank, peer int, conn net.Conn) net.Conn {
		if rank == 2 && peer == 0 {
			return newFaultConn(conn, map[int]faultRule{3: {action: faultSever}})
		}
		return conn
	}
	t.Cleanup(func() { testDialWrap = nil })

	worlds, errs := joinWorld(t, addr, 3)
	defer closeWorlds(worlds)
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("rank %d join: %v", rank, err)
		}
	}

	var survivorFaults atomic.Int64
	start := time.Now()
	runErrs := make([]error, 3)
	var wg sync.WaitGroup
	for rank := 0; rank < 3; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			runErrs[rank] = worlds[rank].Run(func(c *Comm) error {
				next, prev := (c.Rank()+1)%3, (c.Rank()+2)%3
				for i := 0; i < 50; i++ {
					if err := c.Send(next, 1, []byte{byte(i)}); err != nil {
						return err
					}
					if _, err := c.Recv(prev, 1); err != nil {
						survivorFaults.Add(c.Stats().Faults)
						return err
					}
				}
				return nil
			})
		}(rank)
	}
	wg.Wait()
	elapsed := time.Since(start)

	for _, rank := range []int{0, 1} {
		if runErrs[rank] == nil {
			t.Fatalf("survivor rank %d returned nil after peer loss", rank)
		}
		if !errors.Is(runErrs[rank], ErrPeerLost) {
			t.Fatalf("survivor rank %d: err = %v, want ErrPeerLost", rank, runErrs[rank])
		}
	}
	if runErrs[2] == nil {
		t.Fatal("severed rank returned nil")
	}
	// The FAULT broadcast must beat any write deadline by a wide margin:
	// survivors learn of the loss in milliseconds, not timeouts.
	if elapsed > 15*time.Second {
		t.Fatalf("fault propagation took %v; survivors hung instead of failing fast", elapsed)
	}
	if survivorFaults.Load() == 0 {
		t.Fatal("survivor Stats().Faults = 0, want the fault counted")
	}
}

// TestCorruptedFrameFaultsWorld: a frame corrupted on the wire is caught
// by the CRC32C trailer at the receiving rank, the corrupting rank is
// declared lost, and the survivor's error names both the rank and the
// checksum failure.
func TestCorruptedFrameFaultsWorld(t *testing.T) {
	addr := freeAddr(t)
	testDialWrap = func(rank, peer int, conn net.Conn) net.Conn {
		if rank == 1 && peer == 0 {
			return newFaultConn(conn, map[int]faultRule{2: {action: faultCorrupt}})
		}
		return conn
	}
	t.Cleanup(func() { testDialWrap = nil })

	worlds, errs := joinWorld(t, addr, 2)
	defer closeWorlds(worlds)
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("rank %d join: %v", rank, err)
		}
	}

	runErrs := make([]error, 2)
	var wg sync.WaitGroup
	for rank := 0; rank < 2; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			runErrs[rank] = worlds[rank].Run(func(c *Comm) error {
				if c.Rank() == 1 {
					for i := 0; i < 10; i++ {
						if err := c.Send(0, 1, []byte("data")); err != nil {
							return err
						}
					}
					_, err := c.Recv(0, 2) // never sent; unblocked by the fault
					return err
				}
				for i := 0; i < 10; i++ {
					if _, err := c.Recv(1, 1); err != nil {
						return err
					}
				}
				return nil
			})
		}(rank)
	}
	wg.Wait()

	if runErrs[0] == nil || runErrs[1] == nil {
		t.Fatalf("corruption unnoticed: errs = %v", runErrs)
	}
	if !errors.Is(runErrs[0], ErrPeerLost) {
		t.Fatalf("survivor: err = %v, want ErrPeerLost", runErrs[0])
	}
	if !strings.Contains(runErrs[0].Error(), "checksum") {
		t.Fatalf("survivor error does not name the checksum failure: %v", runErrs[0])
	}
	if !strings.Contains(runErrs[0].Error(), "rank 1") {
		t.Fatalf("survivor error does not name the lost rank: %v", runErrs[0])
	}
}

// TestDroppedFrameIsLocalized: a silently dropped frame stalls only the
// conversation that needed it — and the delay action just postpones
// delivery. (This pins the injector's semantics more than the transport's;
// the transport cannot detect a drop, only higher-level protocols can.)
func TestDelayedFrameStillDelivers(t *testing.T) {
	addr := freeAddr(t)
	testDialWrap = func(rank, peer int, conn net.Conn) net.Conn {
		if rank == 1 && peer == 0 {
			return newFaultConn(conn, map[int]faultRule{0: {action: faultDelay, delay: 300 * time.Millisecond}})
		}
		return conn
	}
	t.Cleanup(func() { testDialWrap = nil })

	worlds, errs := joinWorld(t, addr, 2)
	defer closeWorlds(worlds)
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("rank %d join: %v", rank, err)
		}
	}
	runErrs := make([]error, 2)
	var wg sync.WaitGroup
	for rank := 0; rank < 2; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			runErrs[rank] = worlds[rank].Run(func(c *Comm) error {
				if c.Rank() == 1 {
					return c.Send(0, 3, []byte("late but intact"))
				}
				m, err := c.Recv(1, 3)
				if err != nil {
					return err
				}
				if string(m.Data) != "late but intact" {
					return fmt.Errorf("got %q", m.Data)
				}
				return nil
			})
		}(rank)
	}
	wg.Wait()
	for rank, err := range runErrs {
		if err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
	}
}

// TestReconnectMidHandshake: the coordinator address is first served by a
// flaky listener that accepts one connection and drops it before acking —
// the client must re-dial (within its timeout) and join the real
// coordinator that takes over the address.
func TestReconnectMidHandshake(t *testing.T) {
	addr := freeAddr(t)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	flakyDone := make(chan struct{})
	go func() {
		defer close(flakyDone)
		conn, err := ln.Accept()
		if err == nil {
			// Read the hello then hang up without an ack: the client sees a
			// transient mid-handshake failure, not a rejection.
			buf := make([]byte, helloLen)
			_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
			_, _ = conn.Read(buf)
			_ = conn.Close()
		}
		_ = ln.Close()
	}()

	var pw1 *ProcWorld
	var err1 error
	joined := make(chan struct{})
	go func() {
		defer close(joined)
		pw1, err1 = JoinDistributed(1, 2, addr, 15*time.Second)
	}()

	<-flakyDone // the flaky listener has dropped one connection and freed the address
	pw0, err := JoinDistributed(0, 2, addr, 15*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer pw0.Close()
	<-joined
	if err1 != nil {
		t.Fatalf("client did not survive mid-handshake drop: %v", err1)
	}
	defer pw1.Close()

	runErrs := make([]error, 2)
	var wg sync.WaitGroup
	for rank, pw := range []*ProcWorld{pw0, pw1} {
		wg.Add(1)
		go func(rank int, pw *ProcWorld) {
			defer wg.Done()
			runErrs[rank] = pw.Run(func(c *Comm) error {
				return c.Barrier()
			})
		}(rank, pw)
	}
	wg.Wait()
	for rank, err := range runErrs {
		if err != nil {
			t.Fatalf("rank %d after reconnect: %v", rank, err)
		}
	}
}

// TestReplacementJoinWaitsForRestartedHub pins the recovery handshake:
// once a world has lost a member, its hub answers every join attempt
// with joinClosed — transient on the dialer side — so a replacement for
// the lost rank spins instead of being rejected permanently (or, worse,
// admitted into the doomed world as a duplicate). When the recovery
// layer restarts the coordinator on the same address, the replacement's
// pending dial joins the fresh world.
func TestReplacementJoinWaitsForRestartedHub(t *testing.T) {
	addr := freeAddr(t)
	worlds, errs := joinWorld(t, addr, 3)
	defer closeWorlds(worlds)
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("rank %d join: %v", rank, err)
		}
	}

	// Kill rank 2 abruptly: no LEAVE, so the hub must declare it lost.
	_ = worlds[2].client.conn.Close()
	deadline := time.Now().Add(5 * time.Second)
	for len(worlds[0].LostRanks()) == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if lost := worlds[0].LostRanks(); len(lost) != 1 || lost[0] != 2 {
		t.Fatalf("coordinator LostRanks = %v, want [2]", lost)
	}
	// The survivor learns the same set from the FAULT broadcast.
	for time.Now().Before(deadline) {
		if lost := worlds[1].LostRanks(); len(lost) == 1 && lost[0] == 2 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if lost := worlds[1].LostRanks(); len(lost) != 1 || lost[0] != 2 {
		t.Fatalf("survivor LostRanks = %v, want [2]", lost)
	}

	// A short-deadline retry against the doomed world exhausts its
	// deadline on the transient joinClosed; it is neither admitted nor
	// rejected for good (the reported error is whichever transient
	// failure the final attempt hit, so only its class is asserted).
	if _, err := JoinDistributed(2, 3, addr, 300*time.Millisecond); err == nil {
		t.Fatal("join against a faulted world was admitted")
	} else if errors.Is(err, ErrHandshake) {
		t.Fatalf("join against a faulted world was permanently rejected: %v", err)
	}

	// A patient replacement spins while the old world tears down and the
	// coordinator restarts on the same address.
	type joinResult struct {
		pw  *ProcWorld
		err error
	}
	repl := make(chan joinResult, 1)
	go func() {
		pw, err := JoinDistributed(2, 3, addr, 10*time.Second)
		repl <- joinResult{pw, err}
	}()
	time.Sleep(200 * time.Millisecond)
	select {
	case j := <-repl:
		t.Fatalf("replacement joined a doomed world: (%v, %v)", j.pw, j.err)
	default:
	}
	_ = worlds[1].Close()
	_ = worlds[0].Close()
	worlds[0], worlds[1], worlds[2] = nil, nil, nil

	// The restarted world: fresh ranks 0 and 1 plus the already-spinning
	// replacement as rank 2.
	fresh := make([]*ProcWorld, 2)
	ferrs := make([]error, 2)
	var wg sync.WaitGroup
	for rank := 0; rank < 2; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			fresh[rank], ferrs[rank] = JoinDistributed(rank, 3, addr, 10*time.Second)
		}(rank)
	}
	wg.Wait()
	defer closeWorlds(fresh)
	for rank, err := range ferrs {
		if err != nil {
			t.Fatalf("restarted rank %d join: %v", rank, err)
		}
	}
	j := <-repl
	if j.err != nil {
		t.Fatalf("replacement join after hub restart: %v", j.err)
	}
	defer j.pw.Close()

	// The rebuilt world must be fully functional end to end.
	all := []*ProcWorld{fresh[0], fresh[1], j.pw}
	runErrs := make([]error, 3)
	for rank, pw := range all {
		wg.Add(1)
		go func(rank int, pw *ProcWorld) {
			defer wg.Done()
			runErrs[rank] = pw.Run(func(c *Comm) error {
				if c.Rank() != 0 {
					return c.Send(0, 7, []byte{byte(c.Rank())})
				}
				seen := map[int]bool{}
				for i := 0; i < 2; i++ {
					m, err := c.Recv(AnySource, 7)
					if err != nil {
						return err
					}
					seen[m.Src] = true
				}
				if !seen[1] || !seen[2] {
					return fmt.Errorf("rank 0 heard from %v, want ranks 1 and 2", seen)
				}
				return nil
			})
		}(rank, pw)
	}
	wg.Wait()
	for rank, err := range runErrs {
		if err != nil {
			t.Fatalf("rebuilt world rank %d: %v", rank, err)
		}
	}
}

// settleGoroutines waits for the goroutine count to come back down to
// want: a joined goroutine has called wg.Done but may not have left the
// scheduler's count yet, so the check polls for a bounded time.
func settleGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > want && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > want {
		t.Fatalf("%d goroutines after Close, started with %d: hub or client goroutines leaked", got, want)
	}
}

// TestInProcessTCPSeveredRank pins what an in-process WithTCP world gains
// by being the distributed coordinator and ranks in one process: rank 1's
// link to rank 0 is severed at its third frame, and ranks 0 and 2 —
// blocked in Recv — get an ErrPeerLost naming rank 1, rank 0 from the EOF
// and rank 2 from the coordinator's FAULT broadcast. The fault is
// counted, World.Close reports it, and every coordinator and rank
// goroutine is joined.
func TestInProcessTCPSeveredRank(t *testing.T) {
	before := runtime.NumGoroutine()
	testDialWrap = func(rank, peer int, conn net.Conn) net.Conn {
		if rank == 1 && peer == 0 {
			return newFaultConn(conn, map[int]faultRule{2: {action: faultSever}})
		}
		return conn
	}
	t.Cleanup(func() { testDialWrap = nil })

	w, err := NewWorld(3, WithTCP())
	if err != nil {
		t.Fatal(err)
	}
	errs := make([]error, 3)
	if err := w.Run(func(c *Comm) error {
		switch c.Rank() {
		case 1:
			for i := 0; i < 5 && errs[1] == nil; i++ {
				errs[1] = c.Send(0, 1, []byte{byte(i)})
			}
		case 0:
			for i := 0; i < 5 && errs[0] == nil; i++ {
				_, errs[0] = c.Recv(1, 1)
			}
		default:
			_, errs[2] = c.Recv(AnySource, 2) // never sent; unblocked by the fault
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	if !errors.Is(errs[1], ErrPeerLost) {
		t.Fatalf("severed rank 1: err = %v, want ErrPeerLost", errs[1])
	}
	for _, rank := range []int{0, 2} {
		if !errors.Is(errs[rank], ErrPeerLost) || !strings.Contains(errs[rank].Error(), "rank 1") {
			t.Fatalf("survivor rank %d: err = %v, want ErrPeerLost naming rank 1", rank, errs[rank])
		}
	}
	if f := w.Stats().Faults; f < 1 {
		t.Fatalf("Stats().Faults = %d, want the lost rank counted", f)
	}
	if err := w.Close(); !errors.Is(err, ErrPeerLost) || !strings.Contains(err.Error(), "rank 1") {
		t.Fatalf("Close() = %v, want the recorded loss of rank 1", err)
	}
	settleGoroutines(t, before)
}

// TestInProcessTCPCloseJoinsGoroutines: a clean world — two consecutive
// SPMD programs, then Close — records no fault and leaves no goroutine.
func TestInProcessTCPCloseJoinsGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	w, err := NewWorld(3, WithTCP())
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		if err := w.Run(func(c *Comm) error {
			if _, err := c.AllreduceInt64s([]int64{int64(c.Rank())}, OpSum); err != nil {
				return err
			}
			return c.Barrier()
		}); err != nil {
			t.Fatal(err)
		}
	}
	if f := w.Stats().Faults; f != 0 {
		t.Fatalf("Stats().Faults = %d on a clean run", f)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close() = %v on a clean run", err)
	}
	settleGoroutines(t, before)
}

// TestHubListenRetriesAddrInUse: a recovering world re-listens on the
// address its old hub just closed, where a stale duplicate of the old
// socket can linger for a moment (see newDistHub). A holder that lets go
// within the retry window must not fail the new hub.
func TestHubListenRetriesAddrInUse(t *testing.T) {
	addr := freeAddr(t)
	holder, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	time.AfterFunc(20*time.Millisecond, func() { _ = holder.Close() })
	hub, err := newDistHub(addr, 1, writeTimeout)
	if err != nil {
		t.Fatalf("listen did not ride out a 20ms holder: %v", err)
	}
	if err := hub.stop(); err != nil {
		t.Fatal(err)
	}
}

// TestHubListenGivesUpOnHeldAddr: an address that stays taken still fails
// with the named listen error, once the retry window has passed.
func TestHubListenGivesUpOnHeldAddr(t *testing.T) {
	addr := freeAddr(t)
	holder, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer holder.Close()
	start := time.Now()
	hub, err := newDistHub(addr, 1, writeTimeout)
	if err == nil {
		_ = hub.stop()
		t.Fatal("listen on a held address succeeded")
	}
	if !errors.Is(err, syscall.EADDRINUSE) || !strings.Contains(err.Error(), "mpi: coordinator listen on "+addr) {
		t.Fatalf("err = %v, want the coordinator listen error wrapping EADDRINUSE", err)
	}
	if waited := time.Since(start); waited < 500*time.Millisecond || waited > 5*time.Second {
		t.Fatalf("gave up after %v, want the ≈0.5s retry window", waited)
	}
}

// TestLinkFaultReachesBystander: a fault on the link between ranks 1 and
// 2 reaches rank 0, which is no party to it, through the coordinator.
// Rank 0's blocked Recv returns an ErrPeerLost naming the faulty rank
// (and the checksum failure, for a corrupted frame), its LostRanks names
// that rank, and Close joins every goroutine. The sever row faults the
// link's dialing end, the corrupt row its accepting end.
func TestLinkFaultReachesBystander(t *testing.T) {
	for _, tc := range []struct {
		name         string
		faulty, peer int // the faulty rank and the far end of its faulty link
		rule         faultRule
		want         string
	}{
		{"sever", 2, 1, faultRule{action: faultSever}, "rank 2"},
		{"corrupt", 1, 2, faultRule{action: faultCorrupt}, "checksum"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			testDialWrap = func(rank, peer int, conn net.Conn) net.Conn {
				if rank == tc.faulty && peer == tc.peer {
					return newFaultConn(conn, map[int]faultRule{3: tc.rule})
				}
				return conn
			}
			t.Cleanup(func() { testDialWrap = nil })

			worlds, errs := joinWorld(t, freeAddr(t), 3)
			for rank, err := range errs {
				if err != nil {
					closeWorlds(worlds)
					t.Fatalf("rank %d join: %v", rank, err)
				}
			}
			runErrs := make([]error, 3)
			var wg sync.WaitGroup
			for rank, pw := range worlds {
				wg.Add(1)
				go func() {
					defer wg.Done()
					runErrs[rank] = pw.Run(func(c *Comm) error {
						if c.Rank() == 0 {
							_, err := c.Recv(AnySource, 9) // never sent; unblocked by the FAULT
							return err
						}
						other := 3 - c.Rank()
						for i := 0; i < 10; i++ {
							if err := c.Send(other, 1, []byte{byte(i)}); err != nil {
								return err
							}
							if _, err := c.Recv(other, 1); err != nil {
								return err
							}
						}
						return nil
					})
				}()
			}
			wg.Wait()
			lost := worlds[0].LostRanks()
			closeWorlds(worlds)

			err := runErrs[0]
			if !errors.Is(err, ErrPeerLost) || !strings.Contains(err.Error(), fmt.Sprintf("rank %d", tc.faulty)) ||
				!strings.Contains(err.Error(), tc.want) {
				t.Fatalf("bystander rank 0: err = %v, want ErrPeerLost naming rank %d and %q", err, tc.faulty, tc.want)
			}
			if len(lost) != 1 || lost[0] != tc.faulty {
				t.Fatalf("rank 0 LostRanks = %v, want [%d]", lost, tc.faulty)
			}
			settleGoroutines(t, before)
		})
	}
}
