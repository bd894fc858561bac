package core

import (
	"encoding/binary"
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

// TestOneCollectivePerStepBoundary pins the step protocol's price: a
// boundary is the fused step exchange and nothing else, on both
// transports. Ten more edge-switch steps cost exactly ten more
// collectives — the operation quotas come from the exchanged counts,
// not from a collective of their own.
func TestOneCollectivePerStepBoundary(t *testing.T) {
	g, err := gen.ErdosRenyi(rng.Split(29, 0), 400, 2000)
	if err != nil {
		t.Fatal(err)
	}
	const stepSize = 100
	for _, tcp := range []bool{false, true} {
		cfg := Config{Ranks: 2, Scheme: SchemeHPD, StepSize: stepSize, Seed: 29, SkipResult: true, UseTCP: tcp}
		_, short := runCounted(t, g, 2*stepSize, cfg)
		_, long := runCounted(t, g, 12*stepSize, cfg)
		if long-short != 10 {
			t.Errorf("tcp=%v: 10 more steps cost %d more collectives (%d vs %d), want exactly 10",
				tcp, long-short, long, short)
		}
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

// runRecorder is a randomizer that only logs what the chassis's batch
// decoder hands it: conversation records by sequence number, edge runs by
// their entries' keys.
type runRecorder struct {
	randomizer // the step-loop half is never called
	seqs       []uint64
	runs       [][]uint32
}

func (r *runRecorder) handle(om opMsg, _ int) error {
	r.seqs = append(r.seqs, om.id.seq)
	return nil
}

func (r *runRecorder) handleRun(run []byte, _ int) (int, error) {
	n := int(binary.LittleEndian.Uint32(run[1:]))
	end := runHdrLen + n*runEntryLen
	if end > len(run) {
		return 0, fmt.Errorf("run of %d entries in %d bytes", n, len(run))
	}
	var keys []uint32
	for off := runHdrLen; off < end; off += runEntryLen {
		keys = append(keys, binary.LittleEndian.Uint32(run[off:]))
	}
	r.runs = append(r.runs, keys)
	return end, nil
}

// TestFlushRule pins when a batch reaches the transport, on a 2-rank mem
// world where rank 0 is the only sender (so the world's send counter is
// its own): per record under noBatch, at convFlushCap for conversation
// records, at batchFlushCap for edge runs, and otherwise only when the
// step loop's flush-before-block drains the plane. Rank 1 decodes every
// payload through rankEngine.handle and checks the batch sizes, FIFO
// order across the early flushes, and that a control record between two
// runs closes the first and the second opens its own header.
func TestFlushRule(t *testing.T) {
	const (
		recLen   = 1 + opMsgLen
		convFull = (convFlushCap + recLen - 1) / recLen                            // records that reach convFlushCap
		runFull  = (batchFlushCap - 1 - runHdrLen + runEntryLen - 1) / runEntryLen // entries that reach batchFlushCap
		sentinel = uint64(1) << 40
	)
	wantSizes := []int{
		recLen, recLen, recLen, 1 + runHdrLen + runEntryLen, // noBatch
		convFull * recLen, 5 * recLen, // the cap, then the remainder at the block point
		1 + runHdrLen + runFull*runEntryLen,
		(1 + runHdrLen + 3*runEntryLen) + recLen + (1 + runHdrLen + 2*runEntryLen) + recLen,
	}
	w, err := mpi.NewWorld(2)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	err = w.Run(func(c *mpi.Comm) error {
		e := &rankEngine{c: c, stalled: make([]bool, 2)}
		e.sb.init(c)
		if c.Rank() == 1 {
			rec := &runRecorder{}
			e.rand = rec
			var sizes []int
			for len(rec.seqs) == 0 || rec.seqs[len(rec.seqs)-1] != sentinel {
				m, err := c.Recv(0, opTag)
				if err != nil {
					return err
				}
				sizes = append(sizes, len(m.Data))
				if err := e.handle(m); err != nil {
					return err
				}
			}
			if fmt.Sprint(sizes) != fmt.Sprint(wantSizes) {
				return fmt.Errorf("payload sizes %v, want %v", sizes, wantSizes)
			}
			for i, s := range rec.seqs[:len(rec.seqs)-1] {
				if s != uint64(i+1) {
					return fmt.Errorf("conversation record %d carries seq %d: FIFO broken across flushes", i, s)
				}
			}
			var runLens []int
			next := uint32(0)
			for _, keys := range rec.runs {
				runLens = append(runLens, len(keys))
				for _, k := range keys {
					if k != next {
						return fmt.Errorf("run entry %d arrived where %d was due", k, next)
					}
					next++
				}
			}
			if want := []int{1, runFull, 3, 2}; fmt.Sprint(runLens) != fmt.Sprint(want) {
				return fmt.Errorf("runs of %v entries, want %v", runLens, want)
			}
			if e.eosOthers != 1 {
				return fmt.Errorf("the control record between the runs was seen %d times", e.eosOthers)
			}
			return nil
		}

		seq, key := uint64(0), uint32(0)
		// step sends one record and requires the transport's send counter
		// to move by exactly sent.
		step := func(what string, run bool, sent int64) error {
			before := c.Stats().Sends
			var err error
			if run {
				err = e.sendRun(1, key, key+1, runOrig)
				key++
			} else {
				seq++
				err = e.send(1, opMsg{kind: mSelectSecond, id: opID{seq: seq}})
			}
			if err != nil {
				return err
			}
			if got := c.Stats().Sends - before; got != sent {
				return fmt.Errorf("%s: %d transport sends, want %d (batch now %d bytes)", what, got, sent, e.sb.pendingBytes())
			}
			return nil
		}
		e.noBatch = true
		for i := 0; i < 3; i++ {
			if err := step("noBatch record", false, 1); err != nil {
				return err
			}
		}
		if err := step("noBatch run entry", true, 1); err != nil {
			return err
		}
		e.noBatch = false
		for i := 1; i <= convFull+5; i++ {
			sent := int64(0)
			if i == convFull {
				sent = 1
			}
			if err := step(fmt.Sprintf("conversation record %d", i), false, sent); err != nil {
				return err
			}
		}
		if err := e.sb.flush(); err != nil { // what the step loop does before it blocks
			return err
		}
		for i := 1; i <= runFull; i++ {
			sent := int64(0)
			if i == runFull {
				sent = 1
			}
			if err := step(fmt.Sprintf("run entry %d", i), true, sent); err != nil {
				return err
			}
		}
		for _, run := range []bool{true, true, true} {
			if err := step("short run", run, 0); err != nil {
				return err
			}
		}
		if err := e.send(1, opMsg{kind: mEndOfStep}); err != nil {
			return err
		}
		for _, run := range []bool{true, true} {
			if err := step("run after the control record", run, 0); err != nil {
				return err
			}
		}
		seq = sentinel - 1
		if err := step("sentinel", false, 0); err != nil {
			return err
		}
		return e.sb.flush()
	})
	if err != nil {
		t.Fatal(err)
	}
}
