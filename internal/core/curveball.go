package core

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"

	"edgeswitch/internal/graph"
	"edgeswitch/internal/mpi"
	"edgeswitch/internal/rng"
)

// Global curveball trades (Carstens/Hamann/Meyer et al., arXiv:1804.08487)
// behind the Randomizer seam: each step is one global round. A counter
// stream keyed on (seed, round) draws a pairing permutation of all
// vertices; trade i pairs perm[2i] with perm[2i+1]. A trade keeps the
// neighbours the pair shares (and the pair edge itself, if present) and
// redistributes the disjoint neighbours uniformly between the two
// vertices, preserving both degrees — no reservations, no restarts, no
// conversations.
//
// Distribution: the owner of perm[2i] orchestrates trade i, and a round
// moves flat arrays only (DESIGN.md §5). prepare lays out one arrival
// arena sized exactly from the global degrees — invariant across the run,
// bootstrapped by one AllreduceUint32s — and drains the whole partition
// (drainLocal), routing each edge to the EARLIEST trade this round
// touching one of its endpoints, anchored there (cbFirstTrade; an edge
// touching no trade — the sat-out vertex of an odd-n round — is final at
// once): into that trade's arena slice, or into its orchestrator's edge
// run (messages.go). A trade holding every edge incident to its two
// vertices goes on the ready stack; executing it writes each result into
// the slice or run of the later trade of its non-traded endpoint, or,
// when no later trade wants it, onto its owner's settled list, which
// endStep bulk-loads back into the store. Induction on the trade index
// makes this deadlock-free: trade 0's inputs come only from drains,
// trade i's only from drains and trades < i. The step-boundary Allgather
// barriers rounds, so nothing leaks across them.
//
// Determinism (the p-invariance pin): a trade's inputs are sorted by
// non-anchor endpoint before the uniform redistribution, which draws from
// a counter stream keyed on (seed, round, trade) — so the outcome depends
// only on the multiset of arrivals, never on arrival order or on which
// rank computed it (where in its arena slice an arrival lands does depend
// on arrival order, but the slice is sorted before the trade reads it).

// Stream-id name spaces: the top two bits split the 64-bit id space so
// curveball's pairing and trade draws, the edge switcher's step quotas
// and every other stream (pergen's small ids) can never collide.
const (
	cbStreamPair  = uint64(1) << 62
	esStreamQuota = uint64(2) << 62
	cbStreamTrade = uint64(3) << 62
)

// cbPairStream keys the round's pairing permutation.
func cbPairStream(seed uint64, round int64) rng.Stream {
	return rng.NewStream(seed, cbStreamPair|uint64(round))
}

// cbTradeStream keys one trade's redistribution draws. Rounds are
// bounded far below 2^31 and trades by n < 2^31, so the packed id is
// collision-free within the name space.
func cbTradeStream(seed uint64, round int64, trade int32) rng.Stream {
	return rng.NewStream(seed, cbStreamTrade|uint64(round)<<31|uint64(uint32(trade)))
}

// cbEdge is one adjacency entry in flight through a trade: the non-anchor
// endpoint, which side of the trade the anchor is (u = perm[2t],
// v = perm[2t+1]), and the original flag.
type cbEdge struct {
	other   graph.Vertex
	anchorV bool
	orig    bool
}

// cbPermute fills perm with the round's pairing permutation: identity
// seeded, then a downward Fisher–Yates whose swaps come from the pairing
// stream at counter i — every rank computes the identical permutation
// with zero communication.
func cbPermute(perm []graph.Vertex, seed uint64, round int64) {
	st := cbPairStream(seed, round)
	for i := range perm {
		perm[i] = graph.Vertex(i)
	}
	for i := len(perm) - 1; i > 0; i-- {
		j := st.Uint64nAt(uint64(i), uint64(i)+1)
		perm[i], perm[j] = perm[j], perm[i]
	}
}

// cbAssignTrades inverts the permutation into tradeOf: tradeOf[x] is the
// index of the trade vertex x joins this round, or −1 for the sat-out
// last vertex of an odd-n permutation.
func cbAssignTrades(tradeOf []int32, perm []graph.Vertex) {
	for i := range tradeOf {
		tradeOf[i] = -1
	}
	for t := 0; 2*t+1 < len(perm); t++ {
		tradeOf[perm[2*t]] = int32(t)
		tradeOf[perm[2*t+1]] = int32(t)
	}
}

// cbFirstTrade returns the earliest trade this round touching edge
// {u, w} and which endpoint anchors it there (anchorW means w does), or
// trade −1 when neither endpoint trades this round.
func cbFirstTrade(tradeOf []int32, u, w graph.Vertex) (trade int32, anchorW bool) {
	tu, tw := tradeOf[u], tradeOf[w]
	switch {
	case tu < 0:
		return tw, true
	case tw < 0 || tu <= tw:
		return tu, false
	default:
		return tw, true
	}
}

// sortCBEdges orders arrivals by non-anchor endpoint: insertion sort for
// the common small lists, slices.SortFunc beyond (generic, so no
// interface boxing or closure capture on the per-trade path).
func sortCBEdges(es []cbEdge) {
	if len(es) <= 24 {
		for i := 1; i < len(es); i++ {
			for j := i; j > 0 && es[j].other < es[j-1].other; j-- {
				es[j], es[j-1] = es[j-1], es[j]
			}
		}
		return
	}
	slices.SortFunc(es, func(a, b cbEdge) int { return cmp.Compare(a.other, b.other) })
}

// cbApplyTrade performs one trade on sorted per-side arrival lists
// (uList anchored at u, vList at v; the pair edge, if any, is handled by
// the caller and appears in neither). Shared neighbours keep their
// sides; the disjoint rest is pooled in ascending endpoint order — the
// canonical order that makes the outcome arrival-order-independent — and
// a partial Fisher–Yates over the trade stream selects |u-only| entries
// for u, the rest going to v. An entry that changes sides loses its
// original flag (that adjacency was modified); one that stays keeps it.
// pool and out are caller scratch, returned for reuse.
func cbApplyTrade(uList, vList, pool, out []cbEdge, st rng.Stream) (poolOut, outOut []cbEdge) {
	pool, out = pool[:0], out[:0]
	nU := 0
	i, j := 0, 0
	for i < len(uList) || j < len(vList) {
		switch {
		case j >= len(vList) || (i < len(uList) && uList[i].other < vList[j].other):
			pool = append(pool, uList[i]) // hotalloc: amortized; caller scratch persists at its high-water capacity
			nU++
			i++
		case i >= len(uList) || vList[j].other < uList[i].other:
			pool = append(pool, vList[j]) // hotalloc: amortized; caller scratch persists at its high-water capacity
			j++
		default:
			// Shared neighbour: both sides keep it, flags intact.
			out = append(out, uList[i], vList[j]) // hotalloc: amortized; caller scratch persists at its high-water capacity
			i++
			j++
		}
	}
	// Partial Fisher–Yates: the first nU slots become u's new disjoint
	// neighbours, drawn uniformly without replacement from the pool.
	var ctr uint64
	for k := 0; k < nU && k < len(pool); k++ {
		r := k + int(st.Uint64nAt(ctr, uint64(len(pool)-k)))
		ctr++
		pool[k], pool[r] = pool[r], pool[k]
	}
	for k := range pool {
		ed := pool[k]
		toV := k >= nU
		if ed.anchorV != toV {
			ed.anchorV = toV
			ed.orig = false
		}
		out = append(out, ed) // hotalloc: amortized; caller scratch persists at its high-water capacity
	}
	return pool, out
}

// cbTrade is the orchestrator-side state of one trade, stored at the
// local slot of perm[2t] (a vertex joins at most one trade per round, so
// the slot is a perfect key and the table recycles across rounds). Its
// arrivals live in the round's arena: the u side at
// arena[off : off+du], the v side right behind it.
type cbTrade struct {
	u, v   graph.Vertex // perm[2t], perm[2t+1]
	off    int          // arena offset of the u side
	du, dv uint32       // globalDeg of u and v: the arrivals each side collects
	nU, nV uint32       // arrivals stored per side
	// pairFlag records an arrived pair edge {u, v}: 0 absent, 1 original,
	// 2 modified. It counts toward both arrival totals but sits out the
	// redistribution, so it takes no arena entry.
	pairFlag uint8
	done     bool
}

// curveball implements the randomizer seam for global curveball trades.
type curveball struct {
	e *rankEngine

	// globalDeg holds every vertex's global reduced degree — the exact
	// number of arrivals each trade side must collect. Degrees are
	// invariant under trading, so one bootstrap allreduce serves the run.
	globalDeg []uint32

	round   int64
	perm    []graph.Vertex
	tradeOf []int32
	// orch[t] is the slot of trade t's state in trades, or ^owner of
	// perm[2t] when another rank orchestrates it; sideV is a bitset of the
	// vertices that are the v of their trade. Routing an entry reads these
	// two instead of perm, slot and perm again.
	orch    []int32
	sideV   []uint64
	trades  []cbTrade // indexed by local slot of the trade's u
	pending int       // owned trades not yet executed this round

	arena   []cbEdge   // this round's arrivals, one slice pair per owned trade
	ready   []int32    // owned trades holding every arrival, not yet executed
	settled []slotEdge // edges final for the round that this rank owns

	// routeEach is r.routeDrained bound once (no closure per round);
	// drainErr is the first error it hit — a store drain cannot abort.
	routeEach func(ed graph.Edge, orig bool)
	drainErr  error

	// Execution scratch, reused across trades.
	pool, out []cbEdge
}

// newCurveball bootstraps the curveball randomizer: one O(n)
// AllreduceUint32s establishes the global degree vector.
func newCurveball(e *rankEngine) (*curveball, error) {
	loc := make([]uint32, e.n)
	var u graph.Vertex
	count := func(v graph.Vertex, _ bool) bool {
		loc[u]++
		loc[v]++
		return true
	}
	for li := range e.verts {
		u = e.verts[li]
		e.adj.Walk(li, count)
	}
	deg, err := e.c.AllreduceUint32s(loc, mpi.OpSum)
	if err != nil {
		return nil, fmt.Errorf("core: curveball degree bootstrap: %w", err)
	}
	r := &curveball{
		e:         e,
		globalDeg: deg,
		perm:      make([]graph.Vertex, e.n),
		tradeOf:   make([]int32, e.n),
		orch:      make([]int32, e.n/2),
		sideV:     make([]uint64, (e.n+63)/64),
		trades:    make([]cbTrade, len(e.verts)),
		ready:     make([]int32, 0, len(e.verts)),
	}
	r.routeEach = r.routeDrained
	return r, nil
}

// roundBuf empties a per-round buffer, reallocating it with headroom
// only when n entries do not fit.
func roundBuf[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, 0, n+n/8) // hotalloc: sized once per round; persists at its high-water capacity
	}
	return buf[:0]
}

// prepare arms one round: derive the pairing, lay out the arena, and
// drain the whole partition into it and into the peers' runs, executing
// owned trades as they complete.
//
//es:hotpath
func (r *curveball) prepare(s int64, counts []int64) error {
	e := r.e
	if s != 1 {
		return fmt.Errorf("core: curveball step size %d != 1 (a step is one round)", s)
	}
	_ = counts // partner selection is an edge-switch concept
	r.round++
	cbPermute(r.perm, e.seed, r.round)
	cbAssignTrades(r.tradeOf, r.perm)

	// One arena slice pair per owned trade, by prefix sums over the
	// degrees; a trade with none gets no arrivals and is ready at once.
	r.pending = 0
	r.ready = r.ready[:0]
	clear(r.sideV)
	need := 0
	for t := range r.orch {
		u, v := r.perm[2*t], r.perm[2*t+1]
		r.sideV[v>>6] |= 1 << (v & 63)
		li := e.slot[u]
		r.orch[t] = li
		if li < 0 {
			continue
		}
		du, dv := r.globalDeg[u], r.globalDeg[v]
		r.trades[li] = cbTrade{u: u, v: v, off: need, du: du, dv: dv}
		r.pending++
		if du+dv > 0 {
			need += int(du) + int(dv)
		} else {
			r.pushReady(int32(t))
		}
	}
	r.arena = roundBuf(r.arena, need)[:need]
	r.settled = roundBuf(r.settled, int(e.deg.Total()))

	// Drain every owned adjacency, executing trades as they complete.
	r.drainErr = nil
	for li := range e.verts {
		e.drainLocal(li, r.routeEach)
		if r.drainErr != nil {
			return r.drainErr
		}
		if err := r.runReady(); err != nil {
			return err
		}
	}
	return r.runReady()
}

// routeDrained sends one drained edge to its earliest incident trade, or
// to the settled list when neither endpoint trades this round.
func (r *curveball) routeDrained(ed graph.Edge, orig bool) {
	if r.drainErr != nil {
		return
	}
	t, anchorW := cbFirstTrade(r.tradeOf, ed.U, ed.V)
	switch {
	case t < 0:
		r.drainErr = r.settle(ed, orig)
	case anchorW:
		r.drainErr = r.toTrade(t, ed.V, ed.U, orig)
	default:
		r.drainErr = r.toTrade(t, ed.U, ed.V, orig)
	}
}

// toTrade delivers one adjacency entry, anchored at the traded endpoint,
// to trade t: its arena slice here, or its orchestrator's run.
func (r *curveball) toTrade(t int32, anchor, other graph.Vertex, orig bool) error {
	r.e.msgsSent++
	anchorV := r.sideV[anchor>>6]>>(anchor&63)&1 != 0
	li := r.orch[t]
	if li >= 0 {
		return r.arrive(&r.trades[li], t, anchorV, other, orig)
	}
	flags := byte(runTrade)
	if anchorV {
		flags |= runAnchorV
	}
	if orig {
		flags |= runOrig
	}
	return r.e.sendRun(int(^li), uint32(t), uint32(other), flags)
}

// settle hands a normalized edge that is final for the round to its
// owner: this rank's settled list, or the owner's run.
func (r *curveball) settle(ed graph.Edge, orig bool) error {
	r.e.msgsSent++
	li := r.e.slot[ed.U]
	if li >= 0 {
		r.keep(li, ed.V, orig)
		return nil
	}
	flags := byte(0)
	if orig {
		flags = runOrig
	}
	return r.e.sendRun(int(^li), uint32(ed.U), uint32(ed.V), flags)
}

// keep appends one owned edge to the settled list.
func (r *curveball) keep(li int32, v graph.Vertex, orig bool) {
	r.settled = append(r.settled, slotEdge{slot: li, v: v, orig: orig}) // hotalloc: amortized; prepare sizes the list to the partition, which a round changes by a few percent
}

func (r *curveball) pushReady(t int32) {
	r.ready = r.ready[:len(r.ready)+1] // capacity: one entry per owned vertex, and a trade is pushed once
	r.ready[len(r.ready)-1] = t
}

// arrive stores one arrival of owned trade t (state ts) on the anchorV
// side and readies the trade once it holds every edge incident to its
// two vertices. The degrees bound each side: an arrival beyond them is
// an error, never a write outside the trade's arena slice.
func (r *curveball) arrive(ts *cbTrade, t int32, anchorV bool, other graph.Vertex, orig bool) error {
	if ts.done {
		return fmt.Errorf("core: rank %d round %d: edge for finished trade %d", r.e.c.Rank(), r.round, t)
	}
	// The arriving side: its vertex, partner, stored count, degree, slice.
	anchor, partner, n, d, base := ts.u, ts.v, &ts.nU, ts.du, ts.off
	if anchorV {
		anchor, partner, n, d, base = ts.v, ts.u, &ts.nV, ts.dv, ts.off+int(ts.du)
	}
	pair := uint32(0)
	if ts.pairFlag != 0 {
		pair = 1
	}
	switch {
	case other == anchor:
		return fmt.Errorf("core: rank %d round %d: edge for trade %d of (%d, %d) anchored at its own endpoint %d", r.e.c.Rank(), r.round, t, ts.u, ts.v, anchor)
	case other == partner:
		// The pair edge: completes one arrival on each side and sits out
		// the redistribution.
		if pair != 0 {
			return fmt.Errorf("core: rank %d round %d: duplicate pair edge for trade %d", r.e.c.Rank(), r.round, t)
		}
		if ts.nU >= ts.du || ts.nV >= ts.dv {
			return fmt.Errorf("core: rank %d round %d: pair edge overfills trade %d of (%d, %d): degrees (%d, %d)", r.e.c.Rank(), r.round, t, ts.u, ts.v, ts.du, ts.dv)
		}
		ts.pairFlag = 2
		if orig {
			ts.pairFlag = 1
		}
		pair = 1
	case *n+pair >= d:
		return fmt.Errorf("core: rank %d round %d: trade %d got more than the %d edges of vertex %d", r.e.c.Rank(), r.round, t, d, anchor)
	default:
		r.arena[base+int(*n)] = cbEdge{other: other, anchorV: anchorV, orig: orig}
		*n++
	}
	if ts.nU+pair == ts.du && ts.nV+pair == ts.dv {
		r.pushReady(t)
	}
	return nil
}

// handle: curveball has no conversations; the chassis consumes the
// step-control kinds before they get here.
func (r *curveball) handle(om opMsg, src int) error {
	return fmt.Errorf("core: rank %d curveball cannot handle %v from rank %d", r.e.c.Rank(), om.kind, src)
}

// handleRun decodes one edge run in place — trade arrivals into the
// arena, settled edges onto the settled list — then executes every trade
// it completed. The bytes come off a socket, so every field is checked
// before it indexes anything. (A hotpath root of its own: the interface
// dispatch ends hotalloc's static call walk.)
//
//es:hotpath
func (r *curveball) handleRun(run []byte, src int) (int, error) {
	rank := r.e.c.Rank()
	if len(run) < runHdrLen {
		return 0, fmt.Errorf("core: rank %d round %d: edge run from rank %d cut off inside its %d-byte header", rank, r.round, src, runHdrLen)
	}
	cnt := int(binary.LittleEndian.Uint32(run[1:]))
	body := run[runHdrLen:]
	if cnt > len(body)/runEntryLen {
		return 0, fmt.Errorf("core: rank %d round %d: edge run from rank %d claims %d entries, its payload holds %d", rank, r.round, src, cnt, len(body)/runEntryLen)
	}
	n := uint32(len(r.perm))
	for ; cnt > 0; cnt, body = cnt-1, body[runEntryLen:] {
		key := binary.LittleEndian.Uint32(body)
		other := binary.LittleEndian.Uint32(body[4:])
		flags := body[8]
		orig := flags&runOrig != 0
		switch {
		case flags&^runFlags != 0 || flags&(runTrade|runAnchorV) == runAnchorV:
			return 0, fmt.Errorf("core: rank %d round %d: edge run entry from rank %d has bad flags %#x", rank, r.round, src, flags)
		case other >= n:
			return 0, fmt.Errorf("core: rank %d round %d: edge run entry from rank %d names vertex %d of %d", rank, r.round, src, other, n)
		case flags&runTrade == 0:
			// A settled edge (key, other) for this rank's partition.
			if key >= other {
				return 0, fmt.Errorf("core: rank %d round %d: settled edge (%d, %d) from rank %d is not normalized", rank, r.round, key, other, src)
			}
			li := r.e.slot[key]
			if li < 0 {
				return 0, fmt.Errorf("core: rank %d round %d: settled edge (%d, %d) from rank %d belongs to rank %d", rank, r.round, key, other, src, ^li)
			}
			r.keep(li, graph.Vertex(other), orig)
		default:
			// An arrival for trade key, compared in int: as an int32 a
			// corrupt index past 2^31 would go negative and pass.
			if int(key) >= len(r.orch) {
				return 0, fmt.Errorf("core: rank %d round %d: edge for invalid trade %d from rank %d", rank, r.round, key, src)
			}
			li := r.orch[key]
			if li < 0 {
				return 0, fmt.Errorf("core: rank %d round %d: edge for foreign trade %d (rank %d orchestrates it) from rank %d", rank, r.round, key, ^li, src)
			}
			if err := r.arrive(&r.trades[li], int32(key), flags&runAnchorV != 0, graph.Vertex(other), orig); err != nil {
				return 0, err
			}
		}
	}
	return len(run) - len(body), r.runReady()
}

// runReady executes complete trades until none is left; a trade's output
// may complete later local trades, which join the stack.
//
//es:hotpath
func (r *curveball) runReady() error {
	for n := len(r.ready); n > 0; n = len(r.ready) {
		t := r.ready[n-1]
		r.ready = r.ready[:n-1]
		if err := r.execute(t); err != nil {
			return err
		}
	}
	return nil
}

// execute runs a complete trade and routes every result edge onward: to
// the LATER trade of its non-traded endpoint (anchored there) when there
// is one, otherwise — final for the round — to its owner.
func (r *curveball) execute(t int32) error {
	e := r.e
	ts := &r.trades[r.orch[t]]
	ts.done = true
	r.pending--
	e.opsInitiated++

	// Sort each side by the non-anchor endpoint so the redistribution
	// sees a canonical, arrival-order-free input.
	vOff := ts.off + int(ts.du)
	uList, vList := r.arena[ts.off:ts.off+int(ts.nU)], r.arena[vOff:vOff+int(ts.nV)]
	sortCBEdges(uList)
	sortCBEdges(vList)
	r.pool, r.out = cbApplyTrade(uList, vList, r.pool, r.out, cbTradeStream(e.seed, r.round, t))

	for _, ed := range r.out {
		anchor := ts.u
		if ed.anchorV {
			anchor = ts.v
		}
		var err error
		if tx := r.tradeOf[ed.other]; tx > t {
			err = r.toTrade(tx, ed.other, anchor, ed.orig)
		} else {
			err = r.settle(graph.Edge{U: anchor, V: ed.other}.Norm(), ed.orig)
		}
		if err != nil {
			return err
		}
	}
	if ts.pairFlag != 0 {
		return r.settle(graph.Edge{U: ts.u, V: ts.v}.Norm(), ts.pairFlag == 1)
	}
	return nil
}

// cursor is the round counter: at a quiesced round boundary it is the
// only live protocol state (pairing and draws are recomputed from
// counter streams keyed on (seed, round)), so restoring it resumes the
// deterministic round chain exactly.
func (r *curveball) cursor() uint64 { return uint64(r.round) }

func (r *curveball) restoreCursor(c uint64) { r.round = int64(c) }

// advance: curveball is fully event-driven — prepare seeds the round and
// handleRun does the rest.
func (r *curveball) advance() (bool, error) { return false, nil }

// done: all owned trades executed. The chassis keeps draining runs from
// peers (settled edges for this partition) until everyone is done.
func (r *curveball) done() bool { return r.pending == 0 }

// starved: never — every owned trade is guaranteed its exact arrival
// count by the degree invariant, so waiting always terminates.
func (r *curveball) starved() bool { return false }

// forfeitRemaining: unreachable (starved is never true), and trades are
// never forfeited.
func (r *curveball) forfeitRemaining() {}

// endStep verifies every owned trade executed and rebuilds the drained
// partition from the settled list — complete, since every peer's
// end-of-step signal travelled behind its last run.
func (r *curveball) endStep() error {
	if r.pending != 0 {
		return fmt.Errorf("core: rank %d ends round %d with %d unexecuted trades", r.e.c.Rank(), r.round, r.pending)
	}
	if err := r.e.loadSlotEdges(r.settled, false); err != nil {
		return fmt.Errorf("core: round %d: %w", r.round, err)
	}
	return nil
}

// seqCBEdge is one settled edge between rounds of the sequential
// reference: normalized, with its original flag.
type seqCBEdge struct {
	e    graph.Edge
	orig bool
}

// seqCBTrade is one trade of the sequential reference: its arrivals in
// one buffer, split by side when the trade runs.
type seqCBTrade struct {
	u, v     graph.Vertex
	pairFlag uint8 // as cbTrade.pairFlag
	buf      []cbEdge
}

// SequentialCurveball performs `rounds` global trade rounds on g in
// place and is the reference the distributed engine is pinned against:
// it uses the identical pairing permutation (cbPermute), edge routing
// (cbFirstTrade, then later-trade forwarding), and redistribution draws
// (cbApplyTrade over cbTradeStream), so a p = 1 distributed run with the
// same seed produces the same graph trade for trade. Ops counts executed
// trades (⌊n/2⌋ per round, matching the engine, which also counts
// empty trades).
func SequentialCurveball(g *graph.Graph, rounds int64, seed uint64) (SeqStats, error) {
	if rounds < 0 {
		return SeqStats{}, fmt.Errorf("core: negative round count %d", rounds)
	}
	n := g.N()
	m0 := g.M()
	var st SeqStats

	// Snapshot the edge list with original flags.
	cur := make([]seqCBEdge, 0, m0)
	for u := graph.Vertex(0); int(u) < n; u++ {
		g.WalkReduced(u, func(v graph.Vertex, orig bool) bool {
			cur = append(cur, seqCBEdge{e: graph.Edge{U: u, V: v}.Norm(), orig: orig})
			return true
		})
	}

	perm := make([]graph.Vertex, n)
	tradeOf := make([]int32, n)
	nt := n / 2
	trades := make([]seqCBTrade, nt)
	var ubuf, vbuf, pool, out []cbEdge
	next := make([]seqCBEdge, 0, len(cur))

	// arrive delivers one adjacency entry to trade t, mirroring
	// curveball.arrive: the pair edge is flagged aside, everything else
	// joins the arrival buffer on its anchor's side.
	arrive := func(t int32, anchor, other graph.Vertex, orig bool) {
		ts := &trades[t]
		switch {
		case (anchor == ts.u && other == ts.v) || (anchor == ts.v && other == ts.u):
			ts.pairFlag = 2
			if orig {
				ts.pairFlag = 1
			}
		case anchor == ts.u:
			ts.buf = append(ts.buf, cbEdge{other: other, orig: orig})
		default:
			ts.buf = append(ts.buf, cbEdge{other: other, anchorV: true, orig: orig})
		}
	}

	for round := int64(1); round <= rounds; round++ {
		cbPermute(perm, seed, round)
		cbAssignTrades(tradeOf, perm)
		for t := range trades {
			buf := trades[t].buf[:0]
			trades[t] = seqCBTrade{u: perm[2*t], v: perm[2*t+1], buf: buf}
		}
		next = next[:0]
		for _, se := range cur {
			t, anchorW := cbFirstTrade(tradeOf, se.e.U, se.e.V)
			if t < 0 {
				next = append(next, se)
				continue
			}
			anchor, other := se.e.U, se.e.V
			if anchorW {
				anchor, other = se.e.V, se.e.U
			}
			arrive(t, anchor, other, se.orig)
		}
		// Trades execute in index order; an executed trade forwards each
		// result to the later trade of its non-traded endpoint, exactly as
		// curveball.execute does.
		for t := 0; t < nt; t++ {
			ts := &trades[t]
			ubuf, vbuf = ubuf[:0], vbuf[:0]
			for _, ed := range ts.buf {
				if ed.anchorV {
					vbuf = append(vbuf, ed)
				} else {
					ubuf = append(ubuf, ed)
				}
			}
			sortCBEdges(ubuf)
			sortCBEdges(vbuf)
			pool, out = cbApplyTrade(ubuf, vbuf, pool, out, cbTradeStream(seed, round, int32(t)))
			for _, ed := range out {
				anchor := ts.u
				if ed.anchorV {
					anchor = ts.v
				}
				if tx := tradeOf[ed.other]; tx > int32(t) {
					arrive(tx, ed.other, anchor, ed.orig)
				} else {
					next = append(next, seqCBEdge{e: graph.Edge{U: anchor, V: ed.other}.Norm(), orig: ed.orig})
				}
			}
			if ts.pairFlag != 0 {
				next = append(next, seqCBEdge{e: graph.Edge{U: ts.u, V: ts.v}.Norm(), orig: ts.pairFlag == 1})
			}
			st.Ops++
		}
		cur, next = next, cur
	}

	// Rebuild g in place from the settled list. Priorities come from a
	// seed-split RNG; they only shape treap internals, never results.
	pr := rng.Split(seed, 1)
	for _, ed := range g.Edges() {
		g.RemoveEdge(ed)
	}
	for _, se := range cur {
		ok := false
		if se.orig {
			ok = g.AddEdge(se.e, pr)
		} else {
			ok = g.AddModified(se.e, pr)
		}
		if !ok {
			return SeqStats{}, fmt.Errorf("core: sequential curveball produced duplicate edge %v", se.e)
		}
	}
	st.VisitRate = VisitRate(g.Originals(), m0)
	return st, nil
}

// SequentialCurveballVisitRate computes the round count for the target
// visit rate and runs SequentialCurveball.
func SequentialCurveballVisitRate(g *graph.Graph, x float64, seed uint64) (SeqStats, error) {
	rounds, err := CurveballRoundsForVisitRate(g.M(), x)
	if err != nil {
		return SeqStats{}, err
	}
	return SequentialCurveball(g, rounds, seed)
}
