package mpi

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"
)

// freeAddr reserves a loopback port for a test coordinator.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// runDistributed simulates `size` processes: each ProcWorld joins the
// same coordinator from its own goroutine (in production each would be a
// separate OS process; the wire path is identical).
func runDistributed(t *testing.T, size int, body func(c *Comm) error) {
	t.Helper()
	addr := freeAddr(t)
	var wg sync.WaitGroup
	errs := make([]error, size)
	worlds := make([]*ProcWorld, size)
	for rank := 0; rank < size; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			pw, err := JoinDistributed(rank, size, addr, 5*time.Second)
			if err != nil {
				errs[rank] = err
				return
			}
			worlds[rank] = pw
			errs[rank] = pw.Run(body)
		}(rank)
	}
	wg.Wait()
	for _, pw := range worlds {
		if pw != nil {
			pw.Close()
		}
	}
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
	}
}

func TestJoinDistributedValidation(t *testing.T) {
	if _, err := JoinDistributed(-1, 2, "127.0.0.1:0", time.Second); err == nil {
		t.Fatal("negative rank accepted")
	}
	if _, err := JoinDistributed(2, 2, "127.0.0.1:0", time.Second); err == nil {
		t.Fatal("rank >= size accepted")
	}
	if _, err := JoinDistributed(0, 0, "127.0.0.1:0", time.Second); err == nil {
		t.Fatal("size 0 accepted")
	}
}

func TestJoinDistributedDialTimeout(t *testing.T) {
	// No coordinator at this address: the non-zero rank must give up.
	addr := freeAddr(t)
	start := time.Now()
	if _, err := JoinDistributed(1, 2, addr, 300*time.Millisecond); err == nil {
		t.Fatal("dial to absent coordinator succeeded")
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("timeout not honoured")
	}
}

func TestDistributedPointToPoint(t *testing.T) {
	runDistributed(t, 3, func(c *Comm) error {
		next := (c.Rank() + 1) % 3
		prev := (c.Rank() + 2) % 3
		if err := c.Send(next, 7, []byte{byte(c.Rank())}); err != nil {
			return err
		}
		m, err := c.Recv(prev, 7)
		if err != nil {
			return err
		}
		if int(m.Data[0]) != prev {
			return fmt.Errorf("got %v from %d", m.Data, m.Src)
		}
		return nil
	})
}

func TestDistributedFIFO(t *testing.T) {
	const n = 300
	runDistributed(t, 2, func(c *Comm) error {
		if c.Rank() == 0 {
			for i := 0; i < n; i++ {
				if err := c.Send(1, 5, []byte{byte(i), byte(i >> 8)}); err != nil {
					return err
				}
			}
			return nil
		}
		for i := 0; i < n; i++ {
			m, err := c.Recv(0, 5)
			if err != nil {
				return err
			}
			if got := int(m.Data[0]) | int(m.Data[1])<<8; got != i {
				return fmt.Errorf("seq %d, want %d", got, i)
			}
		}
		return nil
	})
}

func TestDistributedCollectives(t *testing.T) {
	runDistributed(t, 4, func(c *Comm) error {
		if err := c.Barrier(); err != nil {
			return err
		}
		sum, err := c.AllreduceInt64s([]int64{int64(c.Rank())}, OpSum)
		if err != nil {
			return err
		}
		if sum[0] != 6 {
			return fmt.Errorf("allreduce = %v", sum)
		}
		got, err := c.Bcast(2, []byte("from-two"))
		if err != nil {
			return err
		}
		if c.Rank() == 2 {
			got = []byte("from-two")
		}
		if string(got) != "from-two" {
			return fmt.Errorf("bcast got %q", got)
		}
		parts, err := c.Allgather([]byte{byte(10 * c.Rank())})
		if err != nil {
			return err
		}
		for i, p := range parts {
			if len(p) != 1 || p[0] != byte(10*i) {
				return fmt.Errorf("allgather %v", parts)
			}
		}
		return c.Barrier()
	})
}

// TestRecvSpinByTransport pins who spins before parking: a mem world's
// mailboxes poll recvSpin times, because the sender is another rank's
// goroutine; every network mailbox — a WithTCP world's and a
// ProcWorld's — parks at once, leaving the P to the netpoller that
// delivers its frames.
func TestRecvSpinByTransport(t *testing.T) {
	spinIs := func(want int) func(c *Comm) error {
		return func(c *Comm) error {
			if got := c.world.boxes[c.rank].spin; got != want {
				return fmt.Errorf("mailbox spins %d, want %d", got, want)
			}
			return nil
		}
	}
	for _, tc := range []struct {
		name string
		opts []Option
		want int
	}{
		{"mem", nil, recvSpin},
		{"tcp", []Option{WithTCP()}, 0},
	} {
		w, err := NewWorld(2, tc.opts...)
		if err != nil {
			t.Fatal(err)
		}
		err = w.Run(spinIs(tc.want))
		if cerr := w.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
	}
	runDistributed(t, 2, spinIs(0))
}

func TestDistributedLateJoiner(t *testing.T) {
	// Rank 1 joins late; rank 0's early sends must be held and delivered.
	addr := freeAddr(t)
	var wg sync.WaitGroup
	errs := make([]error, 2)
	wg.Add(2)
	go func() {
		defer wg.Done()
		pw, err := JoinDistributed(0, 2, addr, 5*time.Second)
		if err != nil {
			errs[0] = err
			return
		}
		defer pw.Close()
		errs[0] = pw.Run(func(c *Comm) error {
			if err := c.Send(1, 9, []byte("early")); err != nil {
				return err
			}
			_, err := c.Recv(1, 10) // wait for the ack before closing
			return err
		})
	}()
	go func() {
		defer wg.Done()
		time.Sleep(400 * time.Millisecond) // join late
		pw, err := JoinDistributed(1, 2, addr, 5*time.Second)
		if err != nil {
			errs[1] = err
			return
		}
		defer pw.Close()
		errs[1] = pw.Run(func(c *Comm) error {
			m, err := c.Recv(0, 9)
			if err != nil {
				return err
			}
			if string(m.Data) != "early" {
				return fmt.Errorf("got %q", m.Data)
			}
			return c.Send(0, 10, nil)
		})
	}()
	wg.Wait()
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
	}
}
