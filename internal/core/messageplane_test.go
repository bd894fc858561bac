package core

import (
	"fmt"
	"testing"

	"edgeswitch/internal/gen"
	"edgeswitch/internal/graph"
	"edgeswitch/internal/mpi"
	"edgeswitch/internal/rng"
)

// TestBatchFIFOAcrossTransports drives the sendBuffer directly on both
// transports: every rank streams coalesced batches of sequence-numbered
// messages to every peer, with collectives interleaved between rounds,
// and each receiver asserts that the per-source sequence is strictly
// increasing — the ordering property the conversation protocol relies on.
func TestBatchFIFOAcrossTransports(t *testing.T) {
	const (
		p        = 4
		rounds   = 8
		perBatch = 5
	)
	for _, tc := range []struct {
		name string
		opts []mpi.Option
	}{
		{name: "mem"},
		{name: "tcp", opts: []mpi.Option{mpi.WithTCP()}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w, err := mpi.NewWorld(p, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			err = w.Run(func(c *mpi.Comm) error {
				var sb sendBuffer
				sb.init(c)
				seq := uint64(0)
				for r := 0; r < rounds; r++ {
					for dst := 0; dst < p; dst++ {
						if dst == c.Rank() {
							continue
						}
						for k := 0; k < perBatch; k++ {
							seq++
							sb.add(dst, opMsg{
								kind: mSelectSecond,
								id:   opID{rank: int32(c.Rank()), seq: seq},
								e1:   graph.Edge{U: graph.Vertex(r), V: graph.Vertex(k + rounds)},
							})
						}
					}
					if err := sb.flush(); err != nil {
						return err
					}
					// Collectives use reserved tags; interleaving them must
					// not disturb opTag ordering.
					if r%2 == 0 {
						if err := c.Barrier(); err != nil {
							return err
						}
					} else if _, err := c.Allgather([]byte{byte(r)}); err != nil {
						return err
					}
				}
				want := (p - 1) * rounds * perBatch
				lastSeq := make(map[int32]uint64)
				got := 0
				for got < want {
					m, err := c.Recv(mpi.AnySource, opTag)
					if err != nil {
						return err
					}
					err = forEachOpMsg(m.Data, func(om opMsg) error {
						if om.id.seq <= lastSeq[om.id.rank] {
							return fmt.Errorf("rank %d: message from %d out of order: seq %d after %d",
								c.Rank(), om.id.rank, om.id.seq, lastSeq[om.id.rank])
						}
						lastSeq[om.id.rank] = om.id.seq
						got++
						return nil
					})
					sb.recycle(m.Data)
					if err != nil {
						return err
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

// runCounted executes one full engine run on a fresh world and returns
// the world-level transport counters plus rank 0's collective count.
func runCounted(t *testing.T, g *graph.Graph, ops int64, cfg Config) (mpi.CommStats, int64) {
	t.Helper()
	var opts []mpi.Option
	if cfg.UseTCP {
		opts = append(opts, mpi.WithTCP())
	}
	w, err := mpi.NewWorld(cfg.Ranks, opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	var collectives int64
	err = w.Run(func(c *mpi.Comm) error {
		if _, err := RunRank(c, g, ops, cfg); err != nil {
			return err
		}
		if c.Rank() == 0 {
			collectives = c.Stats().Collectives
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return w.Stats(), collectives
}

// TestBatchingReducesTransportSends is the message plane's headline
// acceptance check: at p = 8 on the mem transport, the batched engine
// must reach the target in at least 5x fewer transport sends than the
// unbatched one (ISSUE acceptance criterion).
func TestBatchingReducesTransportSends(t *testing.T) {
	g, err := gen.ErdosRenyi(rng.Split(11, 0), 1200, 6000)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Ranks:      8,
		Scheme:     SchemeHPD,
		StepSize:   1500,
		Seed:       11,
		SkipResult: true,
	}
	const ops = 6000

	unbatched := cfg
	unbatched.noBatch = true
	base, _ := runCounted(t, g, ops, unbatched)
	batched, _ := runCounted(t, g, ops, cfg)

	t.Logf("unbatched: %d sends / %d bytes; batched: %d sends / %d bytes (%.1fx fewer sends)",
		base.Sends, base.Bytes, batched.Sends, batched.Bytes,
		float64(base.Sends)/float64(batched.Sends))
	if batched.Sends == 0 || base.Sends == 0 {
		t.Fatalf("transport counters did not move: base %+v batched %+v", base, batched)
	}
	if base.Sends < 5*batched.Sends {
		t.Errorf("batching saved only %.1fx sends (%d -> %d), want >= 5x",
			float64(base.Sends)/float64(batched.Sends), base.Sends, batched.Sends)
	}
}

// TestSanitizerSingleCollectivePerStep pins the fused step exchange: with
// the sanitizer enabled, degree-drift verification rides inside the
// step-boundary exchange, so the per-step collective count is identical
// to an unchecked run. The only sanitizer-specific collectives are the
// two whole-run baseline allreduces (record + final verify), independent
// of the number of steps.
func TestSanitizerSingleCollectivePerStep(t *testing.T) {
	g, err := gen.ErdosRenyi(rng.Split(23, 0), 400, 2000)
	if err != nil {
		t.Fatal(err)
	}
	for _, steps := range []struct {
		name     string
		stepSize int64
		ops      int64
	}{
		{name: "1step", stepSize: 0, ops: 800},
		{name: "4steps", stepSize: 200, ops: 800},
	} {
		t.Run(steps.name, func(t *testing.T) {
			cfg := Config{
				Ranks:      4,
				Scheme:     SchemeHPD,
				StepSize:   steps.stepSize,
				Seed:       23,
				SkipResult: true,
			}
			_, plain := runCounted(t, g, steps.ops, cfg)
			checked := cfg
			checked.CheckInvariants = true
			_, sanitized := runCounted(t, g, steps.ops, checked)
			if sanitized != plain+2 {
				t.Errorf("sanitizer cost %d extra collectives (%d vs %d), want exactly 2 (baseline record + final verify)",
					sanitized-plain, sanitized, plain)
			}
		})
	}
}
