package core

import (
	"fmt"
	"path/filepath"

	"edgeswitch/internal/graph"
	"edgeswitch/internal/mpi"
	"edgeswitch/internal/partition"
	"edgeswitch/internal/rng"
	"edgeswitch/internal/store"
)

// rankEngine is one rank's chassis: its partition of the graph (reduced
// adjacency lists of the vertices it owns), the step loop with its
// drain and EOS machinery, the batching message plane, and the
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

	// outside counts the partition's edges held outside the store —
	// curveball's list, which carries the partition from its bootstrap and
	// from round to round — so the partition holds localEdges() =
	// deg.Total() + outside. newCurveball, carryIn and carryOut maintain
	// it, and storeCarried returns it to 0.
	outside      int64
	initialEdges int64

	// carried is that list between steps, the whole partition while the
	// store is empty; spare is the idle list buffer (the one a round fills
	// is curveball's until endStep hands it over). A boundary that reads
	// the list sorts it through spare; the end of the run stores it.
	carried, spare []slotEdge

	// load is the bulk loader's working memory, reused across loads.
	load struct {
		cnt   []int32 // n+1 counting-sort counters, by neighbour then by slot
		keys  []graph.Vertex
		prios []uint32
		origs []bool
		dups  []int32 // the kept entry of each collapsed copy, for buildStore
	}

	// origLocal counts the partition's edges still flagged original,
	// maintained by the takeLocal/insertLocal/carryIn/carryOut accounting
	// helpers. Summed across ranks at every step boundary
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
	// end-of-step barrier.
	sentEOS   bool
	eosOthers int

	// sb is the batching message plane (see sendbuf.go): outbound
	// protocol messages coalesce per destination and flush whenever the
	// step loop is about to block.
	sb sendBuffer

	// Invariant sanitizer (Config.CheckInvariants): when sanitize is set,
	// baseDeg records the global degree sequence at load time, degSig
	// fingerprints the local degree changes since the last step boundary
	// for the conservation check fused into stepExchange, and the full
	// state is re-verified against baseDeg at the end of the run (see
	// sanitize.go and stepsync.go).
	sanitize bool
	baseDeg  []int64
	degSig   int64

	// Checkpointing (Config.CheckpointDir): ckpt runs the per-boundary
	// segment/manifest protocol after every CheckpointEvery-th completed
	// step; restoredStep records the boundary a restored run resumed from
	// (0 for fresh runs) — see checkpoint.go.
	ckpt         *checkpointer
	restoredStep int64

	// Statistics.
	opsInitiated int64
	restarts     int64
	forfeited    int64
	msgsSent     int64
	flushes      int64 // message-plane flushes forced by the step loop blocking
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
// a live store the caller must close; bootstrap hands it the sorted
// partition (finishLoad). Only cfg.Seed, cfg.CheckInvariants,
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
	}
	e.sb.init(c)
	e.load.cnt = make([]int32, n+1)
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

// finishLoad hands the sorted partition to the configured randomizer —
// the edge switcher's is built into the store, curveball carries its list
// to round 1 — and records the global edge count m.
func (e *rankEngine) finishLoad(m int64, ents []slotEdge, cfg Config) error {
	algo, err := cfg.algorithm()
	if err != nil {
		return err
	}
	if algo != AlgoCurveball {
		e.origLocal = e.buildStore(ents)
		e.rand = newEdgeSwitcher(e)
	} else if e.rand, err = newCurveball(e, ents); err != nil {
		return err
	}
	if err := e.adj.EndLoad(); err != nil {
		return fmt.Errorf("core: rank %d finishing storage load: %w", e.c.Rank(), err)
	}
	e.m, e.initialEdges = m, e.localEdges()
	return nil
}

// run executes t operations in steps of stepSize (§4.5's step protocol;
// for curveball a step is one global round and stepSize is 1). Each step
// boundary costs exactly one collective, the fused stepExchange: it
// carries the edge counts prepare needs (step quotas are drawn from them,
// not exchanged), the global originals sum for visit-rate targeting, and,
// in sanitized runs, the degree fingerprint — a step's moves are verified
// by the next boundary's exchange, and the final step's by the full
// verifyBaseline pass at the end of the run.
func (e *rankEngine) run(t, stepSize int64) error {
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
		e.stepsRun++
		save := e.ckpt != nil && e.stepsRun%e.ckpt.every == 0
		// A randomizer may carry the partition to the next step as an
		// unordered list; a boundary that reads it — the sanitizer's scan,
		// a checkpoint's segment — sorts it in place first.
		if (e.sanitize || save) && len(e.carried) > 0 {
			if e.carried, err = e.sortSlotEdges(e.carried, e.spare, false); err != nil {
				return e.stepErr(step, "partition sort", err)
			}
		}
		// The boundary is the store's compaction point: no reads are
		// outstanding, so a tiered store past its overlay budget can fold
		// the overlay into a fresh base segment here.
		if err := e.adj.EndStep(); err != nil {
			return e.stepErr(step, "store compaction", err)
		}
		if save {
			// The boundary is a consistent cut: the plane is empty and the
			// randomizer quiescent (checkStepInvariants), so the checkpoint
			// protocol runs here, between steps.
			if err := e.ckpt.save(e, stepSize); err != nil {
				return e.stepErr(step, "checkpoint", err)
			}
		}
	}
	// Everything after the run, of any length, reads the store: the full
	// sanitizer pass, the edge hash, the statistics and the reassembly.
	// EndStep finalizes a base segment the fill streamed before Stats.
	if err := e.storeCarried(); err != nil {
		return fmt.Errorf("core: rank %d, after step %d (store fill): %w", e.c.Rank(), e.stepsRun, err)
	}
	if err := e.adj.EndStep(); err != nil {
		return fmt.Errorf("core: rank %d, after step %d (store compaction): %w", e.c.Rank(), e.stepsRun, err)
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

// beginStep resets the chassis's end-of-step signalling and arms the
// randomizer for a step of size s.
func (e *rankEngine) beginStep(s int64, counts []int64) error {
	e.sentEOS = false
	e.eosOthers = 0
	return e.rand.prepare(s, counts)
}

// broadcastCtl sends a control record (the chassis's end-of-step, the
// edge switcher's stall signals) to every other rank, through the message
// plane so signals coalesce with any protocol traffic already batched for
// the same destinations.
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
// only progress (advance/handle) and its done status.
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
		progressed, err := r.advance()
		if err != nil {
			return err
		}
		if progressed {
			continue
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
// randomizer's protocol is quiescent and the message plane is empty.
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
// original flag. The fused accounting (degree Fenwick, sanitizer
// fingerprint, originals counter) is what makes the sanitizer and the
// visit-rate exchange algorithm-agnostic: any randomizer that mutates
// storage only through these helpers keeps both exact.
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

// localEdges is the partition's edge count, wherever its edges are.
func (e *rankEngine) localEdges() int64 { return e.deg.Total() + e.outside }

// storeCarried bulk-loads a carried partition into the empty store,
// sorting it through the spare list — once, at the end of the run, where
// the full sanitizer pass, the edge hash and the reassembly read the
// store.
func (e *rankEngine) storeCarried() error {
	if len(e.carried) == 0 {
		return nil
	}
	ents, err := e.sortSlotEdges(e.carried, e.spare, false)
	if err != nil {
		return err
	}
	e.buildStore(ents) // the list's originals are already counted
	e.outside -= int64(len(ents))
	e.carried = ents[:0]
	return nil
}

// writeSegment writes the partition to path as one segment — a
// checkpoint's image — and reports the file's size and CRC32C. Each slot
// is its store list or its group of the carried list, which the boundary
// sorted; one of the two is always empty, so the image is the same
// wherever the partition sits.
func (e *rankEngine) writeSegment(path string) (int64, uint32, error) {
	w, err := store.NewSegmentWriter(path, len(e.verts))
	if err != nil {
		return 0, 0, err
	}
	var buf []byte
	var keys []graph.Vertex
	var origs []bool
	ents := e.carried
	for li, u := range e.verts {
		keys, origs = keys[:0], origs[:0]
		for ; len(ents) > 0 && ents[0].slot == int32(li); ents = ents[1:] {
			keys, origs = append(keys, ents[0].v), append(origs, ents[0].orig)
		}
		if len(keys) > 0 {
			buf = graph.AppendSortedAdjFlagged(buf[:0], u, keys, origs)
		} else {
			buf = e.adj.AppendList(buf[:0], li)
		}
		if err := w.Append(buf); err != nil {
			w.Abort()
			return 0, 0, err
		}
	}
	seg, err := w.Finalize()
	if err != nil {
		return 0, 0, err
	}
	return seg.Size(), seg.CRC(), seg.Close()
}

// slotEdge is one adjacency entry keyed by the local slot of its owner
// vertex — the unit of the bulk loader and of curveball's settled list.
type slotEdge struct {
	slot int32
	v    graph.Vertex
	orig bool
}

// carryIn and carryOut are the fused accounting (see takeLocal) of an
// owned edge joining or leaving the partition outside the store:
// curveball's settled list, which carries the partition from one round
// to the next. carryOut returns the edge.
func (e *rankEngine) carryIn(se slotEdge) {
	e.outside++
	if e.sanitize { // spares the random verts load noteDegree would discard
		e.noteDegree(graph.Edge{U: e.verts[se.slot], V: se.v}, 1)
	}
	if se.orig {
		e.origLocal++
	}
}

func (e *rankEngine) carryOut(se slotEdge) graph.Edge {
	ed := graph.Edge{U: e.verts[se.slot], V: se.v}
	e.outside--
	e.noteDegree(ed, -1)
	if se.orig {
		e.origLocal--
	}
	return ed
}

// sortSlotEdges orders a partition's entries, given in any order, by
// (slot, v) in ents and returns them — every bulk source's first step. A
// stable LSD counting sort scatters by neighbour into spare (allocated
// when too small), then by slot back into ents. A neighbour outside
// [0, n) is a named error before anything moves. A repeated entry is an
// error unless collapseDup: the contact generator's rare cross-slot
// collisions collapse to their first copy (both copies share their
// minimum endpoint, so they meet inside one rank), a randomizer producing
// a parallel edge is a bug.
func (e *rankEngine) sortSlotEdges(ents, spare []slotEdge, collapseDup bool) ([]slotEdge, error) {
	nv := len(e.verts)
	ld := &e.load
	byV := spare
	if cap(byV) < len(ents) {
		byV = make([]slotEdge, len(ents))
	}
	byV = byV[:len(ents)]
	// Each pass counts key k into cnt[k+1]; after the prefix sums cnt[k]
	// is group k's start, and the scatter advances it to the group's end.
	cnt := ld.cnt
	clear(cnt)
	for i := range ents {
		v := ents[i].v
		if uint(v) >= uint(e.n) {
			return nil, fmt.Errorf("core: rank %d bulk load: slot %d names vertex %d of %d", e.c.Rank(), ents[i].slot, v, e.n)
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

	// A repeat follows its first copy in its ascending group. cnt[li] is
	// left the end of group li, and ld.dups each collapse's kept entry.
	ld.dups = ld.dups[:0]
	n, start := int32(0), int32(0)
	for li := range nv {
		end := cnt[li]
		for i := start; i < end; i++ {
			if i > start && ents[i].v == ents[i-1].v {
				if !collapseDup {
					return nil, fmt.Errorf("core: rank %d bulk load found duplicate edge %v", e.c.Rank(), graph.Edge{U: e.verts[li], V: ents[i].v})
				}
				ld.dups = append(ld.dups, n-1)
				continue
			}
			ents[n] = ents[i]
			n++
		}
		start, cnt[li] = end, n
	}
	return ents[:n], nil
}

// buildStore fills the empty store from the last sortSlotEdges' result
// (its group ends and collapsed copies are in e.load) and returns how
// many entries are originals; it moves no counter. Each slot is built in
// O(d) (BuildSortedFlagged, which a tiered store streams into a base
// segment) with one run-RNG treap priority per entry, collapsed copies
// included, drawn in (slot, v) order — so the store and the run RNG
// depend on the entries' multiset, never on their order.
func (e *rankEngine) buildStore(ents []slotEdge) int64 {
	ld := &e.load
	dups := append(ld.dups, int32(len(ents))) // a sentinel no entry matches
	var origs int64
	start := int32(0)
	for li, end := range ld.cnt[:len(e.verts)] {
		grp, at, n := ents[start:end], start, int(end-start)
		start = end
		if n == 0 {
			continue
		}
		if cap(ld.keys) < n {
			ld.keys, ld.prios, ld.origs = make([]graph.Vertex, 2*n), make([]uint32, 2*n), make([]bool, 2*n)
		}
		for k, se := range grp {
			ld.keys[k], ld.prios[k], ld.origs[k] = se.v, e.rnd.Uint32(), se.orig
			for ; dups[0] == at+int32(k); dups = dups[1:] {
				e.rnd.Uint32()
			}
			if se.orig {
				origs++
			}
		}
		e.adj.BuildSortedFlagged(li, ld.keys[:n], ld.prios[:n], ld.origs[:n])
		e.deg.Add(li, int64(n))
	}
	return origs
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
		h += mix64(x)
		return true
	}
	for li := range e.verts {
		u = uint64(e.verts[li])
		e.adj.Walk(li, mix)
	}
	return h
}

// mix64 is SplitMix64's finalizer: full avalanche, so an unordered sum of
// mixed keys still separates key sets differing in a single key.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
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
// end-of-step signal and hands everything else to the randomizer.
func (e *rankEngine) handleMsg(om opMsg, src int) error {
	if om.kind == mEndOfStep {
		e.eosOthers++
		return nil
	}
	return e.rand.handle(om, src)
}
