package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
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
// bootstrapped by one AllreduceUint32s — and routes the whole partition
// to the EARLIEST trade this round touching one of each edge's
// endpoints, anchored there (cbFirstTrade; an edge touching no trade —
// the sat-out vertex of an odd-n round — is final at once): into that
// trade's arena slice, or into its orchestrator's edge run (messages.go).
// A trade holding every edge incident to its two vertices goes on the
// ready stack; executing it writes each result into the slice or run of
// the later trade of its non-traded endpoint, or, when no later trade
// wants it, onto its owner's settled list. Induction on the trade index
// makes this deadlock-free: trade 0's inputs come only from the routed
// partition, trade i's only from it and trades < i. The step-boundary
// exchange barriers rounds, so nothing leaks across them.
//
// Lifecycle: the partition is a list, the chassis's carried one.
// Bootstrap and restore hand over the sorted entries, each round's
// settled list is the next round's partition, and prepare routes it as
// it stands (the list and the chassis's spare alternate). The store
// stays empty until the end of the run.
//
// Determinism (the p-invariance pin): a trade's inputs are sorted by
// non-anchor endpoint before the uniform redistribution, which draws from
// a counter stream keyed on (seed, round, trade) — so the outcome depends
// only on the multiset of arrivals, never on arrival order or on which
// rank computed it (where in its arena slice an arrival lands does depend
// on arrival order, but the slice is sorted before the trade reads it).
// An arrival is one uint32 word other<<1 | orig, the flat-slot packing;
// the half of the trade's arena slice holding it says which side it is
// on. A side's neighbours are distinct (execute refuses a repeat), so
// sorting its words sorts it by other.

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

// cbEdge is one adjacency entry leaving a trade: the non-anchor
// endpoint, which side of the trade the anchor is (u = perm[2t],
// v = perm[2t+1]), and the original flag.
type cbEdge struct {
	other   graph.Vertex
	anchorV bool
	orig    bool
}

// cbWord packs one trade arrival as other<<1 | orig.
func cbWord(other graph.Vertex, orig bool) uint32 {
	w := uint32(other) << 1
	if orig {
		w |= 1
	}
	return w
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

// cbSortDigit is sortCBEdges' radix digit width (see BenchmarkSortCBEdges).
const cbSortDigit = 6

// sortCBEdges orders one side's arrival words exactly as slices.Sort
// would: insertion sort for the common short sides, beyond that a stable
// LSD radix over the side's significant bits, through tmp (≥ len(ws)).
func sortCBEdges(ws, tmp []uint32) {
	if len(ws) <= 24 {
		for i := 1; i < len(ws); i++ {
			for j := i; j > 0 && ws[j] < ws[j-1]; j-- {
				ws[j], ws[j-1] = ws[j-1], ws[j]
			}
		}
		return
	}
	var or uint32
	for _, w := range ws {
		or |= w
	}
	src, dst := ws, tmp[:len(ws)]
	for shift := 0; shift < bits.Len32(or); shift += cbSortDigit {
		var at [1 << cbSortDigit]int32
		for _, w := range src {
			at[w>>shift%(1<<cbSortDigit)]++
		}
		for d, sum := 0, int32(0); d < len(at); d++ {
			at[d], sum = sum, sum+at[d]
		}
		for _, w := range src {
			d := w >> shift % (1 << cbSortDigit)
			dst[at[d]], at[d] = w, at[d]+1
		}
		src, dst = dst, src
	}
	copy(ws, src) // a no-op after an even number of passes
}

// cbApplyTrade performs one trade on the sorted arrival words of each
// side (uList anchored at u, vList at v; the pair edge, if any, is
// handled by the caller and appears in neither). Shared neighbours keep
// their sides; the disjoint rest is pooled in ascending endpoint order —
// the canonical order that makes the outcome arrival-order-independent —
// as word<<1 | fromV, and a partial Fisher–Yates over the trade stream
// selects |u-only| entries for u, the rest going to v. An entry that
// changes sides loses its original flag (that adjacency was modified);
// one that stays keeps it. pool and out are caller scratch, returned for
// reuse.
func cbApplyTrade(uList, vList []uint32, pool []uint64, out []cbEdge, st rng.Stream) (poolOut []uint64, outOut []cbEdge) {
	pool, out = pool[:0], out[:0]
	nU := 0
	i, j := 0, 0
	for i < len(uList) || j < len(vList) {
		switch {
		case j >= len(vList) || (i < len(uList) && uList[i]>>1 < vList[j]>>1):
			pool = append(pool, uint64(uList[i])<<1)
			nU++
			i++
		case i >= len(uList) || vList[j]>>1 < uList[i]>>1:
			pool = append(pool, uint64(vList[j])<<1|1)
			j++
		default:
			// Shared neighbour: both sides keep it, flags intact.
			out = append(out,
				cbEdge{other: graph.Vertex(uList[i] >> 1), orig: uList[i]&1 != 0},
				cbEdge{other: graph.Vertex(vList[j] >> 1), anchorV: true, orig: vList[j]&1 != 0})
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
	for k, w := range pool {
		toV := k >= nU
		// A side change (fromV != toV) clears the original flag.
		out = append(out, cbEdge{other: graph.Vertex(w >> 2), anchorV: toV, orig: w&2 != 0 && (w&1 != 0) == toV})
	}
	return pool, out
}

// cbTrade is the orchestrator-side state of one trade, at the rank's local
// trade number (prepare deals them out densely in trade order). Its
// arrival words live in the round's arena: the u side at
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
	// orch[t] is trade t's local trade number, its index in trades, or
	// ^owner of perm[2t] when another rank orchestrates it; sideV is a
	// bitset of the vertices that are the v of their trade. Routing an
	// entry reads these two instead of perm, slot and perm again.
	orch    []int32
	sideV   []uint64
	trades  []cbTrade // the owned trades of the round, in trade order
	pending int       // owned trades not yet executed this round

	arena []uint32 // this round's arrival words, one slice pair per owned trade
	ready []int32  // owned trades holding every arrival, not yet executed
	// settled holds the edges final for the round that this rank owns, in
	// the chassis's spare list, which endStep hands back as the carried one.
	settled []slotEdge

	// Execution scratch, reused across trades; sortBuf fits the largest side.
	pool    []uint64
	out     []cbEdge
	sortBuf []uint32
}

// newCurveball bootstraps the curveball randomizer on the partition ents,
// carried to round 1 outside the store: it counts their outside and
// origLocal shares and, by one O(n) AllreduceUint32s, the global degrees.
func newCurveball(e *rankEngine, ents []slotEdge) (*curveball, error) {
	loc := make([]uint32, e.n)
	for _, se := range ents {
		loc[e.verts[se.slot]]++
		loc[se.v]++
		if se.orig {
			e.origLocal++
		}
	}
	e.carried, e.outside = ents, int64(len(ents))
	deg, err := e.c.AllreduceUint32s(loc, mpi.OpSum)
	if err != nil {
		return nil, fmt.Errorf("core: curveball degree bootstrap: %w", err)
	}
	var maxDeg uint32
	for _, d := range deg {
		maxDeg = max(maxDeg, d)
	}
	r := &curveball{
		e:         e,
		globalDeg: deg,
		perm:      make([]graph.Vertex, e.n),
		tradeOf:   make([]int32, e.n),
		orch:      make([]int32, e.n/2),
		sideV:     make([]uint64, (e.n+63)/64),
		trades:    make([]cbTrade, min(len(e.verts), e.n/2)),
		ready:     make([]int32, 0, len(e.verts)),
		sortBuf:   make([]uint32, maxDeg),
	}
	return r, nil
}

// roundBuf empties a per-round buffer, reallocating it with headroom
// only when n entries do not fit.
func roundBuf[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, 0, n+n/8)
	}
	return buf[:0]
}

// prepare arms one round: derive the pairing, lay out the arena, and
// route the whole partition — the chassis's carried list — into it and
// into the peers' runs, executing owned trades as they complete.
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
		if r.orch[t] = e.slot[u]; r.orch[t] < 0 {
			continue // ^owner
		}
		du, dv := r.globalDeg[u], r.globalDeg[v]
		r.orch[t] = int32(r.pending)
		r.trades[r.pending] = cbTrade{u: u, v: v, off: need, du: du, dv: dv}
		r.pending++
		if du+dv > 0 {
			need += int(du) + int(dv)
		} else {
			r.pushReady(int32(t))
		}
	}
	r.arena = roundBuf(r.arena, need)[:need]
	r.settled, e.spare = roundBuf(e.spare, int(e.localEdges())), nil

	// Route every owned edge, executing trades as they complete.
	for _, se := range e.carried {
		if err := r.route(e.carryOut(se), se.orig); err != nil {
			return err
		}
		if err := r.runReady(); err != nil {
			return err
		}
	}
	return r.runReady()
}

// route sends one edge of the partition to its earliest incident trade,
// or to the settled list when neither endpoint trades this round.
func (r *curveball) route(ed graph.Edge, orig bool) error {
	t, anchorW := cbFirstTrade(r.tradeOf, ed.U, ed.V)
	switch {
	case t < 0:
		return r.settle(ed, orig)
	case anchorW:
		return r.toTrade(t, ed.V, ed.U, orig)
	default:
		return r.toTrade(t, ed.U, ed.V, orig)
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

// keep appends one owned edge to the settled list, which joins the
// partition. prepare sizes the list to the partition, which a round
// changes by a few percent, so it grows rarely.
func (r *curveball) keep(li int32, v graph.Vertex, orig bool) {
	se := slotEdge{slot: li, v: v, orig: orig}
	r.settled = append(r.settled, se)
	r.e.carryIn(se)
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
		r.arena[base+int(*n)] = cbWord(other, orig)
		*n++
	}
	if ts.nU+pair == ts.du && ts.nV+pair == ts.dv {
		r.pushReady(t)
	}
	return nil
}

// handle refuses every record the chassis passes on: curveball has no
// conversations and never stalls, so such a record off the wire is
// corrupt.
func (r *curveball) handle(om opMsg, src int) error {
	return fmt.Errorf("core: rank %d round %d: %w: %v from rank %d", r.e.c.Rank(), r.round, errCurveballRecord, om.kind, src)
}

// errCurveballRecord names a conversation or stall record sent to curveball.
var errCurveballRecord = errors.New("curveball takes no conversation or stall record")

// handleRun decodes one edge run in place — trade arrivals into the
// arena, settled edges onto the settled list — then executes every trade
// it completed. The bytes come off a socket, so every field is checked
// before it indexes anything.
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
	sortCBEdges(uList, r.sortBuf)
	sortCBEdges(vList, r.sortBuf)
	for i, ws := range [2][]uint32{uList, vList} {
		for k := 1; k < len(ws); k++ {
			if ws[k]>>1 == ws[k-1]>>1 { // copies sort together, whatever their flags
				return fmt.Errorf("core: rank %d round %d: trade %d: %w: vertex %d holds %d twice", e.c.Rank(), r.round, t, errRepeatedNeighbour, [2]graph.Vertex{ts.u, ts.v}[i], ws[k]>>1)
			}
		}
	}
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

// errRepeatedNeighbour names a side holding a copy no arrival count sees.
var errRepeatedNeighbour = errors.New("trade side holds a repeated neighbour")

// cursor is the round counter: at a quiesced round boundary it is the
// only live protocol state (pairing and draws are recomputed from
// counter streams keyed on (seed, round)), so restoring it resumes the
// deterministic round chain exactly.
func (r *curveball) cursor() uint64 { return uint64(r.round) }

func (r *curveball) restoreCursor(c uint64) { r.round = int64(c) }

// advance: curveball is fully event-driven — prepare seeds the round and
// handleRun does the rest. It only refuses a round that can never end.
// Every peer sends its runs before its end-of-step signal over FIFO links
// and sends no run after it (its trades are done), and the chassis
// drains all queued messages before it calls advance: once every peer's
// signal is in, no arrival can still come, so an owned trade still
// waiting waits forever — its inputs were corrupt.
func (r *curveball) advance() (bool, error) {
	e := r.e
	if r.pending == 0 || e.eosOthers < e.c.Size()-1 {
		return false, nil
	}
	for t, li := range r.orch {
		if li < 0 || r.trades[li].done {
			continue
		}
		ts := &r.trades[li]
		return false, fmt.Errorf("core: rank %d round %d: %w: %d trades wait, first trade %d of (%d, %d) holds %d of %d and %d of %d arrivals",
			e.c.Rank(), r.round, errRoundStuck, r.pending, t, ts.u, ts.v, ts.nU, ts.du, ts.nV, ts.dv)
	}
	return false, fmt.Errorf("core: rank %d round %d: %w: %d trades wait", e.c.Rank(), r.round, errRoundStuck, r.pending)
}

// errRoundStuck names a curveball round that can never finish.
var errRoundStuck = errors.New("round cannot finish: every peer has ended it")

// done: all owned trades executed. The chassis keeps draining runs from
// peers (settled edges for this partition) until everyone is done.
func (r *curveball) done() bool { return r.pending == 0 }

// endStep verifies every owned trade executed and that the settled list
// — complete, since every peer's end-of-step signal travelled behind its
// last run — holds the edges the round kept, then carries it to the next
// round as the chassis's carried partition.
func (r *curveball) endStep() error {
	e := r.e
	if r.pending != 0 {
		return fmt.Errorf("core: rank %d ends round %d with %d unexecuted trades", e.c.Rank(), r.round, r.pending)
	}
	if n := e.localEdges(); int64(len(r.settled)) != n {
		return fmt.Errorf("core: rank %d ends round %d with %d settled edges, its edge count is %d", e.c.Rank(), r.round, len(r.settled), n)
	}
	e.carried, e.spare, r.settled = r.settled, e.carried[:0], nil
	return nil
}

// seqCBEdge is one settled edge between rounds of the sequential
// reference: normalized, with its original flag.
type seqCBEdge struct {
	e    graph.Edge
	orig bool
}

// seqCBTrade is one trade of the sequential reference: its arrival
// words (cbWord) in one buffer per side.
type seqCBTrade struct {
	u, v     graph.Vertex
	pairFlag uint8 // as cbTrade.pairFlag
	uw, vw   []uint32
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
	return SequentialCurveballUntil(g, rounds, seed, 0)
}

// SequentialCurveballUntil is SequentialCurveball with the engine's
// visit-rate stop (Config.TargetVisitRate): when stopAt > 0 the run ends
// at the first round boundary where the visit rate has reached stopAt,
// so it performs the same rounds as a parallel run given the same
// budget.
func SequentialCurveballUntil(g *graph.Graph, rounds int64, seed uint64, stopAt float64) (SeqStats, error) {
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
	sortBuf := make([]uint32, slices.Max(append(g.Degrees(), 0))) // 0: an empty graph
	var pool []uint64
	var out []cbEdge
	next := make([]seqCBEdge, 0, len(cur))

	// arrive delivers one adjacency entry to trade t, mirroring
	// curveball.arrive: the pair edge is flagged aside, everything else
	// joins its anchor's side.
	arrive := func(t int32, anchor, other graph.Vertex, orig bool) {
		ts := &trades[t]
		switch {
		case (anchor == ts.u && other == ts.v) || (anchor == ts.v && other == ts.u):
			ts.pairFlag = 2
			if orig {
				ts.pairFlag = 1
			}
		case anchor == ts.u:
			ts.uw = append(ts.uw, cbWord(other, orig))
		default:
			ts.vw = append(ts.vw, cbWord(other, orig))
		}
	}

	for round := int64(1); round <= rounds; round++ {
		if stopAt > 0 {
			var origs int64
			for _, se := range cur {
				if se.orig {
					origs++
				}
			}
			if VisitRate(origs, m0) >= stopAt {
				break
			}
		}
		cbPermute(perm, seed, round)
		cbAssignTrades(tradeOf, perm)
		for t := range trades {
			ts := &trades[t]
			*ts = seqCBTrade{u: perm[2*t], v: perm[2*t+1], uw: ts.uw[:0], vw: ts.vw[:0]}
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
			sortCBEdges(ts.uw, sortBuf)
			sortCBEdges(ts.vw, sortBuf)
			pool, out = cbApplyTrade(ts.uw, ts.vw, pool, out, cbTradeStream(seed, round, int32(t)))
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
