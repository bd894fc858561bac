package core

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"edgeswitch/internal/graph"
	"edgeswitch/internal/mpi"
	"edgeswitch/internal/partition"
	"edgeswitch/internal/rng"
	"edgeswitch/internal/store"
)

// rankEngine is one rank's chassis: its partition of the graph (reduced
// adjacency lists of the vertices it owns), the step loop with its
// drain/stall/EOS machinery, the batching message plane, and the
// sanitizer bookkeeping. The algorithm-specific protocol state lives
// behind rand (see randomizer.go). Ranks never touch each other's
// engines; everything flows through c.
type rankEngine struct {
	c   *mpi.Comm
	pt  partition.Partitioner
	rnd *rng.RNG

	// seed is the run seed verbatim (rnd is already split per rank);
	// randomizers that key counter streams off global coordinates
	// (curveball's trades, the edge switcher's quotas) need the shared value.
	seed uint64

	n int   // global vertex count
	m int64 // global edge count (invariant)

	// rand is the protocol implementation driven by the step loop.
	rand randomizer

	// Local storage: verts lists owned vertices ascending; slot is the
	// one vertex→slot table, dense over all n vertices: the local slot of
	// a vertex this rank owns, ^owner (negative) of one it does not; adj
	// holds the reduced adjacencies (slot li's entries are global
	// neighbour ids, each > the owner vertex) behind the store seam —
	// all in memory, or the tiered mmap-base-plus-overlay store when
	// Config.SpillDir is set; deg is the 16-ary counted tree over reduced
	// degrees for O(log16 n) uniform edge selection.
	verts []graph.Vertex
	slot  []int32
	adj   store.Store
	deg   *graph.Fenwick

	initialEdges int64

	// drainLocal's plumbing: drainEach is e.drainEntry bound once (no
	// closure per drain); drainU and drainFn are the vertex being drained
	// and the caller's sink.
	drainEach func(v graph.Vertex, orig bool)
	drainU    graph.Vertex
	drainFn   func(ed graph.Edge, orig bool)

	// load is loadSlotEdges' working memory, reused across rounds.
	load struct {
		cnt   []int32    // n+1 counting-sort counters, by neighbour then by slot
		spare []slotEdge // the last load's entries: the next one's scatter buffer
		keys  []graph.Vertex
		prios []uint32
		origs []bool
	}

	// origLocal counts local adjacency entries still flagged original,
	// maintained by the takeLocal/insertLocal/drainLocal/loadSlotEdges
	// accounting helpers. Summed across ranks at every step boundary
	// (fused into stepExchange) it yields the exact global visit rate
	// without reassembling the graph.
	origLocal int64

	// targetX, when positive, stops the run at the first step boundary
	// whose fused originals exchange shows the global visit rate reached
	// the target (Config.TargetVisitRate). Deterministic across ranks:
	// every rank evaluates the same gathered sum.
	targetX float64

	// stepsRun counts completed steps, including a final partial one cut
	// short by targetX — the number Result.Steps reports.
	stepsRun int64

	// recvBuf is the reused RecvAllInto batch slice for the drain loop.
	recvBuf []mpi.Message

	// Step-boundary signalling: sentEOS/eosOthers implement the
	// end-of-step barrier; myStalled/stalled/stalledCount the stall
	// detection (see mStalled in messages.go).
	sentEOS      bool
	eosOthers    int
	myStalled    bool
	stalled      []bool
	stalledCount int

	// sb is the batching message plane (see sendbuf.go): outbound
	// protocol messages coalesce per destination and flush whenever the
	// step loop is about to block.
	sb sendBuffer

	// Invariant sanitizer (Config.CheckInvariants): when sanitize is set,
	// baseDeg records the global degree sequence at load time, degDelta
	// accumulates local degree changes between step boundaries for the
	// sparse conservation check fused into stepExchange, and the full
	// state is re-verified against baseDeg at the end of the run (see
	// sanitize.go and stepsync.go).
	sanitize bool
	baseDeg  []int64
	degDelta map[graph.Vertex]int32

	// Checkpointing (Config.CheckpointDir): ckpt runs the per-boundary
	// snapshot/manifest protocol after every CheckpointEvery-th completed
	// step; restoredStep records the boundary a restored run resumed from
	// (0 for fresh runs) — see checkpoint.go and snapshot.go.
	ckpt         *checkpointer
	restoredStep int64

	// Statistics.
	opsInitiated int64
	restarts     int64
	forfeited    int64
	msgsSent     int64
	flushes      int64 // message-plane flushes forced by the step loop blocking
}

// opWindow caps the number of own operations a rank pipelines.
const opWindow = 64

// opWindowSize bounds the in-flight window by the local partition: a rank
// never holds more than a fraction of its current edges in flight, so tiny
// partitions degrade to the unpipelined protocol instead of emptying
// themselves into custody (which would inflate conflicts and stalls):
// 64 ∧ |E_local|/8 of the live partition, at least 1. Only waiting
// operations count, so at p = 1, where all complete inline, the chain is
// the sequential one (TestSequentialMatchesParallelP1Distribution).
func (e *rankEngine) opWindowSize() int {
	w := int(e.deg.Total() / 8)
	if w < 1 {
		w = 1
	}
	if w > opWindow {
		w = opWindow
	}
	return w
}

// promotePrioSplit namespaces the tiered store's promotion-priority
// stream in the seed's split space, clear of the per-rank run streams
// (rank+2) and the HP-U streams (1<<20 block). Treap priorities shape only
// tree form, never results, but drawing them from the run RNG would
// desynchronize spill and in-memory runs — this stream keeps the two
// bit-identical.
const promotePrioSplit = 1 << 22

// newStore builds the rank's one partition store: all in memory, or
// spilling to a base segment under SpillDir/rank-NNNN when configured.
func newStore(c *mpi.Comm, verts []graph.Vertex, cfg Config) (store.Store, error) {
	if cfg.SpillDir == "" {
		return store.NewMem(verts), nil
	}
	dir := filepath.Join(cfg.SpillDir, fmt.Sprintf("rank-%04d", c.Rank()))
	prio := rng.Split(cfg.Seed, promotePrioSplit+c.Rank())
	return store.NewTiered(dir, verts, cfg.overlayBudget, prio.Uint32)
}

// newEmptyRankEngine prepares a rank's state with an empty partition and
// a live store the caller must close; bootstrap fills it (loadSlotEdges)
// and then calls finishLoad. Only cfg.Seed, cfg.CheckInvariants,
// cfg.TargetVisitRate and the storage fields (SpillDir, overlayBudget)
// are consulted here; the communicator decides everything else.
func newEmptyRankEngine(c *mpi.Comm, pt partition.Partitioner, n int, cfg Config) (*rankEngine, error) {
	e := &rankEngine{
		c:        c,
		pt:       pt,
		rnd:      rng.Split(cfg.Seed, c.Rank()+2),
		seed:     cfg.Seed,
		n:        n,
		verts:    partition.LocalVertices(pt, n, c.Rank()),
		sanitize: cfg.CheckInvariants,
		targetX:  cfg.TargetVisitRate,
		stalled:  make([]bool, c.Size()),
	}
	e.sb.init(c)
	e.drainEach = e.drainEntry
	e.load.cnt = make([]int32, n+1)
	if e.sanitize {
		e.degDelta = make(map[graph.Vertex]int32)
	}
	e.slot = make([]int32, n)
	for v := range e.slot {
		e.slot[v] = ^int32(pt.Owner(graph.Vertex(v)))
	}
	for li, v := range e.verts {
		e.slot[v] = int32(li)
	}
	var err error
	if e.adj, err = newStore(c, e.verts, cfg); err != nil {
		return nil, fmt.Errorf("core: rank %d storage: %w", c.Rank(), err)
	}
	e.deg = graph.NewFenwick(len(e.verts))
	return e, nil
}

// finishLoad records the global edge count m and the partition size,
// counts the loaded originals, and attaches the configured randomizer —
// the steps that need the local edges to be in place.
func (e *rankEngine) finishLoad(m int64, cfg Config) error {
	if err := e.adj.EndLoad(); err != nil {
		return fmt.Errorf("core: rank %d finishing storage load: %w", e.c.Rank(), err)
	}
	e.m = m
	e.initialEdges = e.deg.Total()
	// What a bulk load accounted is the baseline, not a step's deltas.
	clear(e.degDelta)
	e.origLocal = 0
	for li := range e.verts {
		e.origLocal += int64(e.adj.Originals(li))
	}
	algo, err := cfg.algorithm()
	if err != nil {
		return err
	}
	switch algo {
	case AlgoCurveball:
		e.rand, err = newCurveball(e)
		if err != nil {
			return err
		}
	default:
		e.rand = newEdgeSwitcher(e)
	}
	return nil
}

// run executes t operations in steps of stepSize (§4.5's step protocol;
// for curveball a step is one global round and stepSize is 1). Each step
// boundary costs exactly one collective, the fused stepExchange: it
// carries the edge counts prepare needs (step quotas are drawn from them,
// not exchanged), the global originals sum for visit-rate targeting, and,
// in sanitized runs, the sparse degree-delta conservation check — a
// step's deltas are verified by the next boundary's exchange, and the
// final step by the full verifyBaseline pass at the end of the run.
func (e *rankEngine) run(t, stepSize int64) error {
	if t == 0 {
		return nil
	}
	if e.sanitize {
		if err := e.recordBaseline(); err != nil {
			return err
		}
	}
	// A restored engine resumes after its stepsRun completed steps; the
	// uninterrupted run reaches the same loop state at that boundary with
	// the same storage, RNG position and randomizer cursor, so the two
	// runs are indistinguishable from here on.
	step := int(e.stepsRun)
	for done := e.stepsRun * stepSize; done < t; done += stepSize {
		step++
		s := stepSize
		if t-done < s {
			s = t - done
		}
		counts, origs, err := e.stepExchange()
		if err != nil {
			return e.stepErr(step, "step exchange", err)
		}
		if e.targetX > 0 && VisitRate(origs, e.m) >= e.targetX {
			// Target visit rate reached; every rank sees the same sum and
			// breaks here together, so no step machinery is in flight.
			break
		}
		if err := e.beginStep(s, counts); err != nil {
			return e.stepErr(step, "step preparation", err)
		}
		if err := e.stepLoop(); err != nil {
			return e.stepErr(step, "step loop", err)
		}
		if err := e.checkStepInvariants(); err != nil {
			return err
		}
		// The boundary is the store's compaction point: no reads are
		// outstanding, so a tiered store past its overlay budget can fold
		// the overlay into a fresh base segment here. Runs before the
		// checkpoint hook so a snapshot always links a current base.
		if err := e.adj.EndStep(); err != nil {
			return e.stepErr(step, "store compaction", err)
		}
		e.stepsRun++
		if e.ckpt != nil && e.stepsRun%e.ckpt.every == 0 {
			// The boundary is a consistent cut: the plane is empty and the
			// randomizer quiescent (checkStepInvariants), so the snapshot
			// protocol runs here, between steps.
			if err := e.ckpt.save(e, stepSize); err != nil {
				return e.stepErr(step, "checkpoint", err)
			}
		}
	}
	if e.sanitize {
		return e.verifyBaseline()
	}
	return nil
}

// stepErr labels an error with the failing rank, step and phase. The %w
// chain is preserved so transport faults stay matchable: a run aborted by
// a lost peer satisfies errors.Is(err, mpi.ErrPeerLost) all the way up
// through RunRank to edgeswitch -coordinator.
func (e *rankEngine) stepErr(step int, phase string, err error) error {
	return fmt.Errorf("core: rank %d, step %d (%s): %w", e.c.Rank(), step, phase, err)
}

// beginStep resets the chassis's step-boundary signalling and arms the
// randomizer for a step of size s.
func (e *rankEngine) beginStep(s int64, counts []int64) error {
	e.sentEOS = false
	e.eosOthers = 0
	e.myStalled = false
	for i := range e.stalled {
		e.stalled[i] = false
	}
	e.stalledCount = 0
	return e.rand.prepare(s, counts)
}

// broadcastCtl sends a control message (EOS/stalled/resumed) to every
// other rank, through the message plane so signals coalesce with any
// protocol traffic already batched for the same destinations.
func (e *rankEngine) broadcastCtl(kind msgKind) error {
	for dst := 0; dst < e.c.Size(); dst++ {
		if dst == e.c.Rank() {
			continue
		}
		if err := e.send(dst, opMsg{kind: kind}); err != nil {
			return err
		}
	}
	return nil
}

// stepLoop is the per-step event loop: drain messages, let the
// randomizer advance, emit/collect end-of-step signals, block when idle.
// Everything here is algorithm-independent; the randomizer contributes
// only progress (advance/handle) and its done/starved status.
func (e *rankEngine) stepLoop() error {
	p := e.c.Size()
	r := e.rand
	for {
		// Drain everything already queued, in arrival order.
		for {
			batch := e.c.RecvAllInto(mpi.AnySource, opTag, e.recvBuf[:0])
			e.recvBuf = batch
			if len(batch) == 0 {
				break
			}
			for _, m := range batch {
				if err := e.handle(m); err != nil {
					return err
				}
			}
		}
		// The drain may have delivered the work a stalled rank was
		// waiting for; withdraw the announcement before advancing.
		if e.myStalled && !r.starved() && !r.done() {
			e.myStalled = false
			if err := e.broadcastCtl(mResumed); err != nil {
				return err
			}
		}
		progressed, err := r.advance()
		if err != nil {
			return err
		}
		if progressed {
			continue
		}
		if !r.done() && r.starved() {
			if !e.myStalled {
				// Starved with nothing in flight: announce the stall so
				// peers in the same state can detect global quiescence.
				e.myStalled = true
				if err := e.broadcastCtl(mStalled); err != nil {
					return err
				}
				continue
			}
			if e.eosOthers+e.stalledCount == p-1 {
				// Every peer is finished or stalled, and nothing of ours
				// is in flight: no message exists anywhere that could
				// deliver us work, so forfeit the rest.
				r.forfeitRemaining()
				e.myStalled = false
				if err := e.broadcastCtl(mResumed); err != nil {
					return err
				}
				continue
			}
		}
		// Announce quota completion exactly once.
		if r.done() && !e.sentEOS {
			if err := e.broadcastCtl(mEndOfStep); err != nil {
				return err
			}
			e.sentEOS = true
			continue
		}
		// Exit when everyone is done. The final drain may have produced
		// replies (e.g. an ack for a commit delivered alongside the last
		// end-of-step signal), so push out anything still batched.
		if e.sentEOS && e.eosOthers == p-1 {
			return e.sb.flush()
		}
		// Nothing to do right now: block for the next message.
		// Everything batched must go out first: peers may be blocked on
		// exactly the messages we are holding.
		if e.sb.pendingBytes() > 0 {
			e.flushes++
		}
		if err := e.sb.flush(); err != nil {
			return err
		}
		if debugTrace {
			e.trace("blocking: done=%v starved=%v deg=%d eos=%d stalled=%d myStalled=%v sentEOS=%v",
				r.done(), r.starved(), e.deg.Total(), e.eosOthers, e.stalledCount, e.myStalled, e.sentEOS)
		}
		m, err := e.c.Recv(mpi.AnySource, opTag)
		if err != nil {
			return err
		}
		if err := e.handle(m); err != nil {
			return err
		}
	}
}

// checkStepInvariants asserts the step left no dangling state: the
// randomizer's protocol is quiescent (and its held-back store writes are
// applied) and the message plane is empty.
func (e *rankEngine) checkStepInvariants() error {
	if err := e.rand.endStep(); err != nil {
		return err
	}
	if n := e.sb.pendingBytes(); n != 0 {
		return fmt.Errorf("core: rank %d ends step with %d unflushed batch bytes", e.c.Rank(), n)
	}
	return nil
}

// ---- local structure helpers ----

// owner returns the rank owning a normalized edge.
func (e *rankEngine) owner(ed graph.Edge) int { return e.pt.Owner(ed.U) }

// localSlot returns the slot of vertex u when this rank owns it. A
// conversation record's endpoints arrive unvalidated, so a vertex outside
// the graph is as foreign as one a peer owns.
func (e *rankEngine) localSlot(u graph.Vertex) (int, bool) {
	if uint(u) >= uint(len(e.slot)) || e.slot[u] < 0 {
		return 0, false
	}
	return int(e.slot[u]), true
}

// takeLocal removes a uniform random local edge, returning it with its
// original flag. The fused accounting (degree Fenwick, sanitizer delta,
// originals counter) is what makes the sanitizer and the visit-rate
// exchange algorithm-agnostic: any randomizer that mutates storage only
// through these helpers keeps both exact.
func (e *rankEngine) takeLocal() (graph.Edge, bool) {
	slot, offset := e.deg.FindByPrefix(e.rnd.Int64n(e.deg.Total()))
	v, orig := e.adj.TakeKth(slot, int(offset))
	e.deg.Add(slot, -1)
	ed := graph.Edge{U: e.verts[slot], V: v}
	e.noteDegree(ed, -1)
	if orig {
		e.origLocal--
	}
	return ed, orig
}

// insertLocal adds a normalized edge this rank owns, with the given
// original flag, updating the fused accounting (see takeLocal).
func (e *rankEngine) insertLocal(ed graph.Edge, orig bool) error {
	li, ok := e.localSlot(ed.U)
	if !ok {
		return fmt.Errorf("core: rank %d inserting foreign edge %v", e.c.Rank(), ed)
	}
	if !e.adj.Insert(li, ed.V, orig, e.rnd.Uint32()) {
		return fmt.Errorf("core: rank %d insert found duplicate edge %v", e.c.Rank(), ed)
	}
	e.deg.Add(li, 1)
	e.noteDegree(ed, 1)
	if orig {
		e.origLocal++
	}
	return nil
}

// drainLocal empties one owned vertex's whole adjacency in ascending
// order, handing each (edge, original) to fn and keeping the fused
// accounting exact — curveball's per-round bulk extraction. The removal
// deltas cancel against the loadSlotEdges call that restores the traded
// lists, so the sanitizer's conservation check holds across a round.
func (e *rankEngine) drainLocal(li int, fn func(ed graph.Edge, orig bool)) {
	cnt := e.adj.Len(li)
	if cnt == 0 {
		return
	}
	e.origLocal -= int64(e.adj.Originals(li))
	e.drainU, e.drainFn = e.verts[li], fn
	e.adj.Drain(li, e.drainEach)
	e.deg.Add(li, int64(-cnt))
}

// drainEntry is drainLocal's per-entry step (bound once as e.drainEach).
func (e *rankEngine) drainEntry(v graph.Vertex, orig bool) {
	ed := graph.Edge{U: e.drainU, V: v}
	e.noteDegree(ed, -1)
	e.drainFn(ed, orig)
}

// slotEdge is one adjacency entry keyed by the local slot of its owner
// vertex — the unit of the bulk loader.
type slotEdge struct {
	slot int32
	v    graph.Vertex
	orig bool
}

// loadSlotEdges bulk-loads the rank's whole partition — every slot must
// be empty — from entries in any order: the only way edges enter a store
// in bulk, shared by every bootstrap source, a checkpoint restore and
// curveball's per-round rebuild. A stable LSD counting sort — scatter by
// neighbour into load.spare, then by slot back into ents — leaves each
// slot's group ascending in v with no comparison sort. ents is consumed
// as the second half of that ping-pong: its array becomes load.spare for
// the next load, and the buffer scattered through is dropped before the
// slots are built, so a load never holds two copies of the partition
// while the store grows. A neighbour outside [0, n) is a named error
// before anything moves. Each slot is built in O(d) (BuildSortedFlagged,
// which a tiered store streams into a base segment) with one treap
// priority from the run RNG per entry. The accounting is insertLocal's,
// fused: Fenwick degree, sanitizer deltas, originals counter. A repeated
// entry is an error unless collapseDup: the contact generator's rare
// cross-slot collisions collapse (both copies share their minimum
// endpoint, so they meet inside one rank), a randomizer producing a
// parallel edge is a bug.
func (e *rankEngine) loadSlotEdges(ents []slotEdge, collapseDup bool) error {
	nv := len(e.verts)
	ld := &e.load
	byV := ld.spare
	if cap(byV) < len(ents) {
		byV = make([]slotEdge, len(ents)+len(ents)/8)
	}
	byV = byV[:len(ents)]
	// Each pass counts key k into cnt[k+1]; after the prefix sums cnt[k]
	// is group k's start, and the scatter advances it to the group's end.
	cnt := ld.cnt
	clear(cnt)
	for i := range ents {
		v := ents[i].v
		if uint(v) >= uint(e.n) {
			return fmt.Errorf("core: rank %d bulk load: slot %d names vertex %d of %d", e.c.Rank(), ents[i].slot, v, e.n)
		}
		cnt[v+1]++
	}
	for k := 1; k < len(cnt); k++ {
		cnt[k] += cnt[k-1]
	}
	for i := range ents {
		v := ents[i].v
		byV[cnt[v]] = ents[i]
		cnt[v]++
	}
	cnt = cnt[:nv+1]
	clear(cnt)
	for i := range byV {
		cnt[byV[i].slot+1]++
	}
	for li := 1; li <= nv; li++ {
		cnt[li] += cnt[li-1]
	}
	for i := range byV {
		li := byV[i].slot
		ents[cnt[li]] = byV[i]
		cnt[li]++
	}
	ld.spare = ents

	start := int32(0)
	for li := 0; li < nv; li++ {
		grp := ents[start:cnt[li]]
		start = cnt[li]
		if len(grp) == 0 {
			continue
		}
		if n := len(grp); cap(ld.keys) < n {
			ld.keys, ld.prios, ld.origs = make([]graph.Vertex, 2*n), make([]uint32, 2*n), make([]bool, 2*n)
		}
		u := e.verts[li]
		n := 0
		for i := range grp {
			// One draw per entry, collapsed or not, as insertLocal would.
			prio := e.rnd.Uint32()
			if n > 0 && ld.keys[n-1] == grp[i].v {
				if collapseDup {
					continue
				}
				return fmt.Errorf("core: rank %d bulk load found duplicate edge %v", e.c.Rank(), graph.Edge{U: u, V: grp[i].v})
			}
			ld.keys[n], ld.prios[n], ld.origs[n] = grp[i].v, prio, grp[i].orig
			n++
			e.noteDegree(graph.Edge{U: u, V: grp[i].v}, 1)
			if grp[i].orig {
				e.origLocal++
			}
		}
		e.adj.BuildSortedFlagged(li, ld.keys[:n], ld.prios[:n], ld.origs[:n])
		e.deg.Add(li, int64(n))
	}
	return nil
}

// edgeHash fingerprints this rank's edge set: an order-independent sum
// of mixed (u, v, original) hashes. Partitions are disjoint, so rank 0's
// fold of the per-rank sums identifies the global edge set regardless of
// rank count or storage tier — Result.EdgeHash.
func (e *rankEngine) edgeHash() uint64 {
	var h, u uint64
	mix := func(v graph.Vertex, orig bool) bool {
		x := u<<33 | uint64(v)<<1
		if orig {
			x |= 1
		}
		// SplitMix64's finalizer: full avalanche, so the unordered sum
		// still separates edge sets differing in a single entry.
		x ^= x >> 30
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 27
		x *= 0x94d049bb133111eb
		x ^= x >> 31
		h += x
		return true
	}
	for li := range e.verts {
		u = uint64(e.verts[li])
		e.adj.Walk(li, mix)
	}
	return h
}

// send queues one conversation or step-control record for a peer; a
// batch that has reached convFlushCap goes out now. A rank's own share
// of the protocol runs inline, so a record addressed to itself is a bug.
func (e *rankEngine) send(dst int, m opMsg) error {
	if dst == e.c.Rank() {
		return fmt.Errorf("core: rank %d addressed %v for %v to itself", dst, m.kind, m.id)
	}
	e.msgsSent++
	e.sb.add(dst, m)
	return e.flushIfDue(dst, convFlushCap)
}

// sendRun queues one edge-run entry (messages.go) for a remote rank; a
// batch that has reached batchFlushCap goes out now.
func (e *rankEngine) sendRun(dst int, key, other uint32, flags byte) error {
	e.sb.addRun(dst, key, other, flags)
	return e.flushIfDue(dst, batchFlushCap)
}

// flushIfDue hands dst's batch to the transport once it holds limit
// bytes; otherwise the batch waits for the step loop to block.
func (e *rankEngine) flushIfDue(dst, limit int) error {
	if len(e.sb.bufs[dst]) >= limit {
		return e.sb.flushDst(dst)
	}
	return nil
}

// handle dispatches one mailbox payload — a batch of one or more framed
// protocol messages and edge runs — then recycles the buffer (the sender
// transferred ownership with SendOwned, and decoding copies every field
// out). The record loop is written out rather than delegated to
// forEachOpMsg: a closure over (e, m.Src) escapes and this is the
// hottest path in the engine.
func (e *rankEngine) handle(m mpi.Message) error {
	data := m.Data
	for off := 0; off < len(data); {
		rl := int(data[off])
		off++
		if rl == 0 || off+rl > len(data) {
			return fmt.Errorf("core: truncated message batch at byte %d", off-1)
		}
		if msgKind(data[off]) == mEdgeRun {
			n, err := e.rand.handleRun(data[off:], m.Src)
			if err != nil {
				return err
			}
			off += n
			continue
		}
		om, err := decodeOpMsg(data[off : off+rl])
		if err != nil {
			return err
		}
		off += rl
		if err := e.handleMsg(om, m.Src); err != nil {
			return err
		}
	}
	e.sb.recycle(m.Data)
	return nil
}

// handleMsg dispatches one message from src: the chassis consumes the
// step-control kinds and hands everything else to the randomizer.
func (e *rankEngine) handleMsg(om opMsg, src int) error {
	if debugTrace {
		e.trace("recv %v %v e=%v from %d", om.kind, om.id, om.e1, src)
	}
	switch om.kind {
	case mEndOfStep:
		e.eosOthers++
		// A finished rank is no longer "stalled with quota".
		if e.stalled[src] {
			e.stalled[src] = false
			e.stalledCount--
		}
		return nil
	case mStalled:
		if !e.stalled[src] {
			e.stalled[src] = true
			e.stalledCount++
		}
		return nil
	case mResumed:
		if e.stalled[src] {
			e.stalled[src] = false
			e.stalledCount--
		}
		return nil
	default:
		return e.rand.handle(om, src)
	}
}

// debugTrace, when enabled via the ESDEBUG environment variable, prints
// every message a rank handles plus its loop state. Temporary diagnostic.
var debugTrace = os.Getenv("ESDEBUG") != ""

// traceOut receives debug traces. A variable rather than a hardcoded
// fmt.Fprintf(os.Stderr, ...) so tests can capture traces and the
// noprint check's "no direct terminal writes in library packages" rule
// holds; writes are serialized per line by the underlying file.
var traceOut io.Writer = os.Stderr

func (e *rankEngine) trace(format string, args ...any) {
	if debugTrace {
		fmt.Fprintf(traceOut, "[rank %d] %s\n", e.c.Rank(), fmt.Sprintf(format, args...))
	}
}
