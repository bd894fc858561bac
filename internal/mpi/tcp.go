package mpi

import (
	"errors"
	"sync"
	"time"
)

// tcpTransport is a whole distributed world in one process: start opens
// the coordinator (distHub, see distributed.go) on a loopback port and
// joins every rank to it as a distClient delivering into the world's own
// mailboxes, each with its own links to the others. Nothing here links,
// frames or handshakes — an in-process TCP world runs exactly the code
// multi-process runs deploy, so it shares its failure semantics: a lost
// link or connection fails the survivors' receives with an ErrPeerLost
// naming the rank.
type tcpTransport struct {
	hub     *distHub
	clients []*distClient // indexed by rank
}

// writeTimeout bounds every socket write of the coordinator and the
// ranks. A dead peer whose kernel buffers have filled then surfaces as a
// deadline error within this window instead of blocking a writer forever.
const writeTimeout = 30 * time.Second

// start returns once every rank has joined and linked; the joins run
// concurrently, since each waits for the others as JoinDistributed does.
func (t *tcpTransport) start(boxes []*mailbox) error {
	size := len(boxes)
	hub, err := newDistHub("127.0.0.1:0", size, writeTimeout)
	if err != nil {
		return err
	}
	t.hub = hub
	addr := hub.ln.Addr().String()
	t.clients = make([]*distClient, size)
	errs := make([]error, size)
	var wg sync.WaitGroup
	for rank, box := range boxes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// The hub is already listening, so the deadline only has to
			// cover the handshakes and links.
			t.clients[rank], errs[rank] = dialDist(rank, size, addr, box, handshakeTimeout, writeTimeout)
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		_ = t.stop() // the join failure is the error worth reporting
		t.hub, t.clients = nil, nil
		return err
	}
	return nil
}

func (t *tcpTransport) send(src, dst, tag int, data []byte) error {
	return t.clients[src].send(src, dst, tag, data)
}

// faults reports the coordinator's count of lost ranks: with every rank
// in this process, each rank-side fault is also one the coordinator
// recorded.
func (t *tcpTransport) faults() int64 {
	if t.hub == nil {
		return 0
	}
	return t.hub.faultCnt.Load()
}

// stop departs every rank in order (LEAVE, so no closing link or
// connection counts as a fault) and then stops the coordinator, whose
// error joins every fault recorded while the world was live.
func (t *tcpTransport) stop() error {
	if t.hub == nil {
		return nil // never started
	}
	var errs []error
	for _, c := range t.clients {
		if c == nil {
			continue
		}
		if err := c.stop(); err != nil {
			errs = append(errs, err)
		}
	}
	if err := t.hub.stop(); err != nil {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}
