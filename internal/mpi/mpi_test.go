package mpi

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// transports runs the test body against both transports.
func transports(t *testing.T, size int, body func(c *Comm) error) {
	t.Helper()
	for _, tc := range []struct {
		name string
		opts []Option
	}{
		{"mem", nil},
		{"tcp", []Option{WithTCP()}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w, err := NewWorld(size, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			if err := w.Run(body); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestNewWorldRejectsBadSize(t *testing.T) {
	for _, n := range []int{0, -3} {
		if _, err := NewWorld(n); err == nil {
			t.Fatalf("size %d accepted", n)
		}
	}
}

func TestPointToPoint(t *testing.T) {
	transports(t, 2, func(c *Comm) error {
		if c.Rank() == 0 {
			return c.Send(1, 7, []byte("hello"))
		}
		m, err := c.Recv(0, 7)
		if err != nil {
			return err
		}
		if m.Src != 0 || m.Tag != 7 || string(m.Data) != "hello" {
			return fmt.Errorf("got %+v", m)
		}
		return nil
	})
}

func TestSendCopiesData(t *testing.T) {
	transports(t, 2, func(c *Comm) error {
		if c.Rank() == 0 {
			buf := []byte("aaaa")
			if err := c.Send(1, 0, buf); err != nil {
				return err
			}
			copy(buf, "bbbb") // must not affect the delivered message
			return c.Send(1, 1, nil)
		}
		m, err := c.Recv(0, 0)
		if err != nil {
			return err
		}
		if _, err := c.Recv(0, 1); err != nil {
			return err
		}
		if string(m.Data) != "aaaa" {
			return fmt.Errorf("send aliased caller buffer: %q", m.Data)
		}
		return nil
	})
}

func TestFIFOPerSender(t *testing.T) {
	const n = 500
	transports(t, 3, func(c *Comm) error {
		switch c.Rank() {
		case 0, 1:
			for i := 0; i < n; i++ {
				if err := c.Send(2, 5, []byte{byte(c.Rank()), byte(i), byte(i >> 8)}); err != nil {
					return err
				}
			}
			return nil
		default:
			next := []int{0, 0}
			for got := 0; got < 2*n; got++ {
				m, err := c.Recv(AnySource, 5)
				if err != nil {
					return err
				}
				i := int(m.Data[1]) | int(m.Data[2])<<8
				if i != next[m.Src] {
					return fmt.Errorf("from %d: got seq %d, want %d", m.Src, i, next[m.Src])
				}
				next[m.Src]++
			}
			return nil
		}
	})
}

func TestSelectiveReceiveByTag(t *testing.T) {
	transports(t, 2, func(c *Comm) error {
		if c.Rank() == 0 {
			// Send tag 1 first, then tag 2; receiver asks for 2 first.
			if err := c.Send(1, 1, []byte("one")); err != nil {
				return err
			}
			return c.Send(1, 2, []byte("two"))
		}
		m2, err := c.Recv(0, 2)
		if err != nil {
			return err
		}
		m1, err := c.Recv(0, 1)
		if err != nil {
			return err
		}
		if string(m2.Data) != "two" || string(m1.Data) != "one" {
			return fmt.Errorf("selective receive broken: %q %q", m2.Data, m1.Data)
		}
		return nil
	})
}

func TestSelectiveReceiveBySource(t *testing.T) {
	transports(t, 3, func(c *Comm) error {
		switch c.Rank() {
		case 0, 1:
			return c.Send(2, 9, []byte{byte(c.Rank())})
		default:
			// Ask for rank 1's message first regardless of arrival order.
			m1, err := c.Recv(1, 9)
			if err != nil {
				return err
			}
			m0, err := c.Recv(0, 9)
			if err != nil {
				return err
			}
			if m1.Data[0] != 1 || m0.Data[0] != 0 {
				return fmt.Errorf("wrong sources: %v %v", m1, m0)
			}
			return nil
		}
	})
}

func TestSendOwned(t *testing.T) {
	transports(t, 2, func(c *Comm) error {
		if c.Rank() == 0 {
			buf := []byte("owned")
			return c.SendOwned(1, 2, buf)
		}
		m, err := c.Recv(0, 2)
		if err != nil {
			return err
		}
		if string(m.Data) != "owned" {
			return fmt.Errorf("got %q", m.Data)
		}
		return nil
	})
}

func TestSendOwnedValidation(t *testing.T) {
	w, _ := NewWorld(2)
	defer w.Close()
	err := w.Run(func(c *Comm) error {
		if c.Rank() != 0 {
			return nil
		}
		if err := c.SendOwned(9, 0, nil); err == nil {
			return fmt.Errorf("bad rank accepted")
		}
		if err := c.SendOwned(1, collTagBase, nil); err == nil {
			return fmt.Errorf("reserved tag accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRecvAll(t *testing.T) {
	transports(t, 2, func(c *Comm) error {
		if c.Rank() == 0 {
			for i := 0; i < 5; i++ {
				if err := c.Send(1, 3, []byte{byte(i)}); err != nil {
					return err
				}
			}
			// Different tag must not be drained.
			if err := c.Send(1, 4, []byte{99}); err != nil {
				return err
			}
			return c.Send(1, 5, nil) // completion marker
		}
		// Wait for the marker so all prior messages are queued (FIFO).
		if _, err := c.Recv(0, 5); err != nil {
			return err
		}
		batch := c.RecvAllInto(AnySource, 3, nil)
		if len(batch) != 5 {
			return fmt.Errorf("drained %d messages, want 5", len(batch))
		}
		for i, m := range batch {
			if int(m.Data[0]) != i {
				return fmt.Errorf("out of order: %v at %d", m.Data, i)
			}
		}
		if more := c.RecvAllInto(AnySource, 3, batch[:0]); len(more) != 0 {
			return fmt.Errorf("second drain returned %d messages", len(more))
		}
		m, err := c.Recv(0, 4)
		if err != nil {
			return err
		}
		if m.Data[0] != 99 {
			return fmt.Errorf("tag-4 message corrupted: %v", m.Data)
		}
		return nil
	})
}

func TestSendValidation(t *testing.T) {
	w, _ := NewWorld(2)
	defer w.Close()
	err := w.Run(func(c *Comm) error {
		if c.Rank() != 0 {
			return nil
		}
		if err := c.Send(5, 0, nil); err == nil {
			return fmt.Errorf("send to invalid rank accepted")
		}
		if err := c.Send(1, -2, nil); err == nil {
			return fmt.Errorf("negative tag accepted")
		}
		if err := c.Send(1, collTagBase, nil); err == nil {
			return fmt.Errorf("reserved tag accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestWorldRunReusable: a world must support multiple consecutive SPMD
// programs (the harness runs many experiments over fresh worlds, but the
// engine's step protocol relies on clean reuse semantics within one).
func TestWorldRunReusable(t *testing.T) {
	w, err := NewWorld(3)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for round := 0; round < 5; round++ {
		round := round
		err := w.Run(func(c *Comm) error {
			vs, err := c.AllreduceInt64s([]int64{int64(c.Rank() + round)}, OpSum)
			if err != nil {
				return err
			}
			want := int64(0 + 1 + 2 + 3*round)
			if vs[0] != want {
				return fmt.Errorf("round %d: sum %d, want %d", round, vs[0], want)
			}
			return c.Barrier()
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestRunRecoversPanic(t *testing.T) {
	w, _ := NewWorld(2)
	defer w.Close()
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 1 {
			panic("boom")
		}
		return nil
	})
	if err == nil {
		t.Fatal("panic not reported")
	}
}

func TestRunReportsError(t *testing.T) {
	w, _ := NewWorld(3)
	defer w.Close()
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 2 {
			return fmt.Errorf("deliberate")
		}
		return nil
	})
	if err == nil {
		t.Fatal("error not reported")
	}
}

// TestRunFailsPeersOfAFailedRank: a rank that errors or panics while its
// peers wait on it — rank 0 in a receive, rank 2 in an allreduce — fails
// the world, so Run returns within seconds with the failed rank's own
// error, not a peer's ErrPeerLost, and each peer's wait ends in an
// ErrPeerLost naming the failed rank.
func TestRunFailsPeersOfAFailedRank(t *testing.T) {
	boom := errors.New("deliberate")
	for _, tr := range []struct {
		name string
		opts []Option
	}{{"mem", nil}, {"tcp", []Option{WithTCP()}}} {
		for _, panics := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/panic=%v", tr.name, panics), func(t *testing.T) {
				w, err := NewWorld(3, tr.opts...)
				if err != nil {
					t.Fatal(err)
				}
				defer w.Close()
				peerErrs := make([]error, 3)
				done := make(chan error, 1)
				go func() {
					done <- w.Run(func(c *Comm) error {
						switch c.Rank() {
						case 0:
							_, peerErrs[0] = c.Recv(1, 7)
						case 1:
							time.Sleep(20 * time.Millisecond) // let the peers block first
							if panics {
								panic(boom)
							}
							return boom
						case 2:
							_, peerErrs[2] = c.AllreduceInt64s([]int64{1}, OpSum)
						}
						return peerErrs[c.Rank()]
					})
				}()
				select {
				case err = <-done:
				case <-time.After(10 * time.Second):
					w.Close()
					t.Fatal("Run still waiting 10 s after rank 1 failed")
				}
				if !strings.HasPrefix(fmt.Sprint(err), "rank 1: ") || (!panics && !errors.Is(err, boom)) || (panics && !strings.Contains(err.Error(), "panicked: deliberate")) {
					t.Fatalf("Run = %v, want rank 1's %v", err, boom)
				}
				for _, r := range []int{0, 2} {
					if !errors.Is(peerErrs[r], ErrPeerLost) || !strings.Contains(peerErrs[r].Error(), "rank 1") {
						t.Errorf("rank %d: %v, want ErrPeerLost naming rank 1", r, peerErrs[r])
					}
				}
			})
		}
	}
}

// TestRunPrefersRootCause: when ranks agree through a collective that one
// of them failed, a peer that reports only that (ErrPeerFailed) may
// return first, yet Run returns the failed rank's own error.
func TestRunPrefersRootCause(t *testing.T) {
	boom := errors.New("deliberate")
	w, err := NewWorld(3)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	err = w.Run(func(c *Comm) error {
		ok := int64(1)
		if c.Rank() == 2 {
			ok = 0
		}
		agreed, err := c.AllreduceInt64s([]int64{ok}, OpMin)
		if err != nil || agreed[0] == 1 {
			return err
		}
		if c.Rank() == 2 {
			time.Sleep(20 * time.Millisecond) // the echoes fail first
			return boom
		}
		return fmt.Errorf("rank %d: %w", c.Rank(), ErrPeerFailed)
	})
	if !errors.Is(err, boom) || !strings.HasPrefix(err.Error(), "rank 2: ") {
		t.Fatalf("Run = %v, want rank 2's %v", err, boom)
	}
}

func TestCloseUnblocksRecv(t *testing.T) {
	w, _ := NewWorld(1)
	done := make(chan error, 1)
	go func() {
		done <- w.Run(func(c *Comm) error {
			_, err := c.Recv(AnySource, AnyTag)
			if err == nil {
				return fmt.Errorf("recv returned without message")
			}
			return nil
		})
	}()
	w.Close()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestBarrier(t *testing.T) {
	for _, p := range []int{1, 2, 3, 5, 8, 13} {
		p := p
		t.Run(fmt.Sprintf("p=%d", p), func(t *testing.T) {
			var phase int32
			transports(t, p, func(c *Comm) error {
				for round := 0; round < 5; round++ {
					atomic.AddInt32(&phase, 1)
					if err := c.Barrier(); err != nil {
						return err
					}
					// After the barrier all p increments of this round
					// must be visible.
					if v := atomic.LoadInt32(&phase); int(v) < (round+1)*p {
						return fmt.Errorf("barrier leaked: phase %d at round %d", v, round)
					}
					if err := c.Barrier(); err != nil {
						return err
					}
				}
				return nil
			})
			phase = 0
		})
	}
}

func TestBcastAllRootsAndSizes(t *testing.T) {
	for _, p := range []int{1, 2, 4, 7} {
		p := p
		t.Run(fmt.Sprintf("p=%d", p), func(t *testing.T) {
			transports(t, p, func(c *Comm) error {
				for root := 0; root < p; root++ {
					var data []byte
					if c.Rank() == root {
						data = []byte(fmt.Sprintf("payload-from-%d", root))
					}
					got, err := c.Bcast(root, data)
					if err != nil {
						return err
					}
					want := fmt.Sprintf("payload-from-%d", root)
					if string(got) != want {
						return fmt.Errorf("rank %d root %d: got %q", c.Rank(), root, got)
					}
				}
				return nil
			})
		})
	}
}

func TestGatherScatter(t *testing.T) {
	transports(t, 4, func(c *Comm) error {
		parts, err := c.Gather(2, []byte{byte(c.Rank() * 10)})
		if err != nil {
			return err
		}
		if c.Rank() == 2 {
			for i, p := range parts {
				if len(p) != 1 || p[0] != byte(i*10) {
					return fmt.Errorf("gather part %d = %v", i, p)
				}
			}
		} else if parts != nil {
			return fmt.Errorf("non-root got gather result")
		}
		return nil
	})
}

func TestAllgather(t *testing.T) {
	transports(t, 5, func(c *Comm) error {
		parts, err := c.Allgather([]byte{byte(c.Rank()), byte(c.Rank() + 1)})
		if err != nil {
			return err
		}
		if len(parts) != 5 {
			return fmt.Errorf("got %d parts", len(parts))
		}
		for i, p := range parts {
			if !bytes.Equal(p, []byte{byte(i), byte(i + 1)}) {
				return fmt.Errorf("part %d = %v", i, p)
			}
		}
		return nil
	})
}

func TestAlltoall(t *testing.T) {
	transports(t, 4, func(c *Comm) error {
		parts := make([][]byte, 4)
		for i := range parts {
			parts[i] = []byte{byte(c.Rank()), byte(i)}
		}
		got, err := c.Alltoall(parts)
		if err != nil {
			return err
		}
		for i, p := range got {
			// Rank i sent us {i, ourRank}.
			if !bytes.Equal(p, []byte{byte(i), byte(c.Rank())}) {
				return fmt.Errorf("rank %d from %d: %v", c.Rank(), i, p)
			}
		}
		return nil
	})
}

// reduceInt64sAt element-wise reduces each rank's xs at root by gather —
// with allreduceInt64sViaGather, the O(p) oracle the butterfly is
// checked against. Non-root ranks receive nil.
func reduceInt64sAt(c *Comm, root int, xs []int64, op ReduceOp) ([]int64, error) {
	parts, err := c.Gather(root, Int64sToBytes(xs))
	if err != nil || c.Rank() != root {
		return nil, err
	}
	acc := append([]int64(nil), xs...)
	for i, p := range parts {
		if i == root {
			continue
		}
		vs, err := BytesToInt64s(p)
		if err != nil {
			return nil, err
		}
		if len(vs) != len(acc) {
			return nil, fmt.Errorf("mpi: reduce length mismatch from rank %d", i)
		}
		for j := range acc {
			acc[j] = reduceInt64(op, acc[j], vs[j])
		}
	}
	return acc, nil
}

// allreduceInt64sViaGather is the gather+broadcast allreduce oracle.
func allreduceInt64sViaGather(c *Comm, xs []int64, op ReduceOp) ([]int64, error) {
	acc, err := reduceInt64sAt(c, 0, xs, op)
	if err != nil {
		return nil, err
	}
	var flat []byte
	if c.Rank() == 0 {
		flat = Int64sToBytes(acc)
	}
	if flat, err = c.Bcast(0, flat); err != nil {
		return nil, err
	}
	return BytesToInt64s(flat)
}

func TestReduceAllreduceInt64(t *testing.T) {
	transports(t, 4, func(c *Comm) error {
		xs := []int64{int64(c.Rank()), int64(c.Rank() * 2), -int64(c.Rank())}
		sum, err := reduceInt64sAt(c, 0, xs, OpSum)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			want := []int64{6, 12, -6}
			for i := range want {
				if sum[i] != want[i] {
					return fmt.Errorf("reduce sum = %v", sum)
				}
			}
		}
		all, err := c.AllreduceInt64s([]int64{int64(c.Rank())}, OpMax)
		if err != nil {
			return err
		}
		if all[0] != 3 {
			return fmt.Errorf("allreduce max = %v", all)
		}
		mins, err := c.AllreduceInt64s([]int64{int64(10 + c.Rank())}, OpMin)
		if err != nil {
			return err
		}
		if mins[0] != 10 {
			return fmt.Errorf("allreduce min = %v", mins)
		}
		return nil
	})
}

// TestAllreduceButterflyMatchesGather cross-validates the butterfly
// against the gather+broadcast baseline for every op across awkward
// world sizes.
func TestAllreduceButterflyMatchesGather(t *testing.T) {
	for _, p := range []int{1, 2, 3, 5, 6, 7, 8, 9} {
		p := p
		t.Run(fmt.Sprintf("p=%d", p), func(t *testing.T) {
			w, err := NewWorld(p)
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			err = w.Run(func(c *Comm) error {
				xs := []int64{int64(c.Rank() * 3), -int64(c.Rank()), 7}
				for _, op := range []ReduceOp{OpSum, OpMin, OpMax} {
					bf, err := c.AllreduceInt64s(xs, op)
					if err != nil {
						return err
					}
					gb, err := allreduceInt64sViaGather(c, xs, op)
					if err != nil {
						return err
					}
					for i := range bf {
						if bf[i] != gb[i] {
							return fmt.Errorf("op %v: butterfly %v != gather %v", op, bf, gb)
						}
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestAllreduceButterflyIdenticalOnAllRanks(t *testing.T) {
	const p = 6
	w, err := NewWorld(p)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	results := make([][]int64, p)
	err = w.Run(func(c *Comm) error {
		out, err := c.AllreduceInt64s([]int64{int64(c.Rank() + 1)}, OpSum)
		if err != nil {
			return err
		}
		results[c.Rank()] = out
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for rank := 1; rank < p; rank++ {
		if results[rank][0] != results[0][0] {
			t.Fatalf("ranks disagree: %v vs %v", results[rank], results[0])
		}
	}
}

// TestCollectivesInterleavedWithP2P checks that application messages
// queued before a collective survive it untouched.
func TestCollectivesInterleavedWithP2P(t *testing.T) {
	transports(t, 3, func(c *Comm) error {
		next := (c.Rank() + 1) % 3
		prev := (c.Rank() + 2) % 3
		if err := c.Send(next, 11, []byte("app")); err != nil {
			return err
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		if _, err := c.AllreduceInt64s([]int64{1}, OpSum); err != nil {
			return err
		}
		m, err := c.Recv(prev, 11)
		if err != nil {
			return err
		}
		if string(m.Data) != "app" {
			return fmt.Errorf("application message corrupted: %q", m.Data)
		}
		return nil
	})
}

// TestManyCollectivesSequence stresses the collective tag sequencing.
func TestManyCollectivesSequence(t *testing.T) {
	transports(t, 4, func(c *Comm) error {
		for i := 0; i < 200; i++ {
			vs, err := c.AllreduceInt64s([]int64{int64(i)}, OpSum)
			if err != nil {
				return err
			}
			if vs[0] != int64(4*i) {
				return fmt.Errorf("iteration %d: got %d", i, vs[0])
			}
		}
		return nil
	})
}

func TestPartsRoundTrip(t *testing.T) {
	in := [][]byte{{1, 2, 3}, nil, {}, {255}}
	out, err := decodeParts(encodeParts(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("len %d", len(out))
	}
	for i := range in {
		if !bytes.Equal(out[i], in[i]) {
			t.Fatalf("part %d: %v != %v", i, out[i], in[i])
		}
	}
	if _, err := decodeParts([]byte{1, 2}); err == nil {
		t.Fatal("truncated encoding accepted")
	}
}

func TestInt64BytesRoundTrip(t *testing.T) {
	in := []int64{0, 1, -1, 1 << 62, -(1 << 62)}
	out, err := BytesToInt64s(Int64sToBytes(in))
	if err != nil {
		t.Fatal(err)
	}
	for i := range in {
		if out[i] != in[i] {
			t.Fatalf("round trip %v -> %v", in, out)
		}
	}
	if _, err := BytesToInt64s([]byte{1, 2, 3}); err == nil {
		t.Fatal("bad length accepted")
	}
}

// TestStressRandomTraffic floods the world with random point-to-point
// traffic and verifies per-pair FIFO and message integrity.
func TestStressRandomTraffic(t *testing.T) {
	const p, msgs = 6, 400
	transports(t, p, func(c *Comm) error {
		// Every rank sends `msgs` sequenced messages to every other rank,
		// then receives (p-1)*msgs messages.
		for i := 0; i < msgs; i++ {
			for dst := 0; dst < p; dst++ {
				if dst == c.Rank() {
					continue
				}
				payload := []byte{byte(i), byte(i >> 8), byte(c.Rank())}
				if err := c.Send(dst, 21, payload); err != nil {
					return err
				}
			}
		}
		next := make([]int, p)
		for got := 0; got < (p-1)*msgs; got++ {
			m, err := c.Recv(AnySource, 21)
			if err != nil {
				return err
			}
			seq := int(m.Data[0]) | int(m.Data[1])<<8
			if int(m.Data[2]) != m.Src {
				return fmt.Errorf("payload source %d != envelope %d", m.Data[2], m.Src)
			}
			if seq != next[m.Src] {
				return fmt.Errorf("from %d: seq %d want %d", m.Src, seq, next[m.Src])
			}
			next[m.Src]++
		}
		return nil
	})
}

func BenchmarkP2PMem(b *testing.B) {
	w, _ := NewWorld(2)
	defer w.Close()
	b.ResetTimer()
	w.Run(func(c *Comm) error {
		payload := make([]byte, 64)
		if c.Rank() == 0 {
			for i := 0; i < b.N; i++ {
				c.Send(1, 0, payload)
			}
		} else {
			for i := 0; i < b.N; i++ {
				c.Recv(0, 0)
			}
		}
		return nil
	})
}

// BenchmarkPingPong times a 64 B round trip between two ranks on each
// transport — rank 0 sends, rank 1 echoes — and reports it as us/op
// (µs per round trip), the latency a remote switch pays per hop pair.
func BenchmarkPingPong(b *testing.B) {
	for _, tc := range []struct {
		name string
		opts []Option
	}{
		{"mem", nil},
		{"tcp", []Option{WithTCP()}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			w, err := NewWorld(2, tc.opts...)
			if err != nil {
				b.Fatal(err)
			}
			defer w.Close()
			if err := w.Run(func(c *Comm) error { return c.Barrier() }); err != nil {
				b.Fatal(err) // the transport is up before the clock starts
			}
			payload := make([]byte, 64)
			var elapsed time.Duration
			b.ResetTimer()
			err = w.Run(func(c *Comm) error {
				peer := 1 - c.Rank()
				start := time.Now()
				for i := 0; i < b.N; i++ {
					if c.Rank() == 0 {
						if err := c.Send(peer, 1, payload); err != nil {
							return err
						}
					}
					m, err := c.Recv(peer, 1)
					if err != nil {
						return err
					}
					if c.Rank() == 1 {
						if err := c.SendOwned(peer, 1, m.Data); err != nil {
							return err
						}
					}
				}
				if c.Rank() == 0 {
					elapsed = time.Since(start)
				}
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(elapsed.Nanoseconds())/1e3/float64(b.N), "us/op")
		})
	}
}

func BenchmarkBarrier8(b *testing.B) {
	w, _ := NewWorld(8)
	defer w.Close()
	b.ResetTimer()
	w.Run(func(c *Comm) error {
		for i := 0; i < b.N; i++ {
			c.Barrier()
		}
		return nil
	})
}

// TestAllreduceUint32s covers the uint32 butterfly the curveball degree
// bootstrap rides: sums agree with the int64 path and every rank sees
// the identical vector, across the same world sizes as the int64 tests.
func TestAllreduceUint32s(t *testing.T) {
	for _, p := range []int{1, 2, 3, 5, 8} {
		p := p
		t.Run(fmt.Sprintf("p=%d", p), func(t *testing.T) {
			w, err := NewWorld(p)
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			results := make([][]uint32, p)
			err = w.Run(func(c *Comm) error {
				xs := []uint32{uint32(c.Rank() + 1), 7, uint32(c.Rank() * c.Rank())}
				for _, op := range []ReduceOp{OpSum, OpMin, OpMax} {
					u32, err := c.AllreduceUint32s(xs, op)
					if err != nil {
						return err
					}
					i64s := make([]int64, len(xs))
					for i, x := range xs {
						i64s[i] = int64(x)
					}
					i64, err := c.AllreduceInt64s(i64s, op)
					if err != nil {
						return err
					}
					for i := range u32 {
						if int64(u32[i]) != i64[i] {
							return fmt.Errorf("op %v index %d: uint32 %d != int64 %d", op, i, u32[i], i64[i])
						}
					}
					if op == OpSum {
						results[c.Rank()] = u32
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			for rank := 1; rank < p; rank++ {
				for i := range results[rank] {
					if results[rank][i] != results[0][i] {
						t.Fatalf("ranks disagree at %d: %v vs %v", i, results[rank], results[0])
					}
				}
			}
		})
	}
}

// TestBytesToUint32sRejectsRaggedPayload pins the codec validation.
func TestBytesToUint32sRejectsRaggedPayload(t *testing.T) {
	xs := []uint32{1, 2, 3}
	rt, err := BytesToUint32s(Uint32sToBytes(xs))
	if err != nil {
		t.Fatal(err)
	}
	for i := range xs {
		if rt[i] != xs[i] {
			t.Fatalf("round trip %v -> %v", xs, rt)
		}
	}
	if _, err := BytesToUint32s(make([]byte, 5)); err == nil {
		t.Fatal("ragged payload accepted")
	}
}
