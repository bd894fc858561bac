package core

import (
	"cmp"
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
// Distribution: the owner of perm[2i] orchestrates trade i. At the start
// of a round every rank drains its whole partition (drainLocal) and
// routes each edge to the EARLIEST trade this round touching one of its
// endpoints, anchored at that endpoint (cbFirstTrade breaks the
// either-endpoint tie by trade index; edges touching no trade — only
// possible in odd-n rounds with a sat-out vertex — go straight back to
// their owner). A trade executes the moment it holds every edge incident
// to its two vertices — the exact expected counts are the global degrees,
// invariant across the run and bootstrapped once with a single
// AllreduceUint32s — and then forwards each result edge to the later
// trade of its non-traded endpoint, or to its owner if no later trade
// wants it. Induction on the global trade index makes this deadlock-free:
// trade 0's inputs can come only from drains, trade i's only from drains
// and trades < i. The step-boundary Allgather barriers rounds, so no
// message can leak across them.
//
// Determinism (the p-invariance pin): a trade's inputs are sorted by
// non-anchor endpoint before the uniform redistribution, which draws from
// a counter stream keyed on (seed, round, trade) — so the outcome depends
// only on the multiset of arrivals, never on arrival order or on which
// rank computed it.

// Stream-id name spaces: the top two bits split the 64-bit id space so
// pairing draws, trade draws, and everything else (rng.Split consumers)
// can never collide.
const (
	cbStreamPair  = uint64(1) << 62
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
// the slot is a perfect key and the table recycles across rounds).
type cbTrade struct {
	u, v       graph.Vertex // perm[2t], perm[2t+1]
	gotU, gotV uint32
	// pairFlag records an arrived pair edge {u, v}: 0 absent, 1 original,
	// 2 modified. It counts toward both arrival totals but sits out the
	// redistribution.
	pairFlag uint8
	done     bool
	buf      []cbEdge
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
	trades  []cbTrade // indexed by local slot of the trade's u
	pending int       // owned trades not yet executed this round

	// Execution scratch, reused across trades.
	ubuf, vbuf, pool, out []cbEdge
}

// newCurveball bootstraps the curveball randomizer: one O(n)
// AllreduceUint32s establishes the global degree vector.
func newCurveball(e *rankEngine) (*curveball, error) {
	loc := make([]uint32, e.n)
	for li := range e.verts {
		u := e.verts[li]
		e.adj.Walk(li, func(v graph.Vertex, _ bool) bool {
			loc[u]++
			loc[v]++
			return true
		})
	}
	deg, err := e.c.AllreduceUint32s(loc, mpi.OpSum)
	if err != nil {
		return nil, fmt.Errorf("core: curveball degree bootstrap: %w", err)
	}
	return &curveball{
		e:         e,
		globalDeg: deg,
		perm:      make([]graph.Vertex, e.n),
		tradeOf:   make([]int32, e.n),
		trades:    make([]cbTrade, len(e.verts)),
	}, nil
}

// prepare arms one round: derive the pairing, reset owned trade state,
// drain the whole partition into the message plane, and execute any
// owned trade whose sides are both degree-zero (it will never receive a
// message).
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

	r.pending = 0
	for t := 0; 2*t+1 < len(r.perm); t++ {
		u := r.perm[2*t]
		li, mine := e.index[u]
		if !mine {
			continue
		}
		ts := &r.trades[li]
		buf := ts.buf[:0]
		*ts = cbTrade{u: u, v: r.perm[2*t+1], buf: buf}
		r.pending++
	}

	// Drain every owned adjacency and route each edge to its earliest
	// incident trade (or straight back to its owner when neither endpoint
	// trades this round).
	var rerr error
	for li := range e.verts {
		e.drainLocal(li, func(ed graph.Edge, orig bool) { // hotalloc: one closure per owned vertex per round, amortized over the drained adjacency
			if rerr != nil {
				return
			}
			t, anchorW := cbFirstTrade(r.tradeOf, ed.U, ed.V)
			if t < 0 {
				rerr = r.store(ed, orig)
				return
			}
			anchor, other := ed.U, ed.V
			if anchorW {
				anchor, other = ed.V, ed.U
			}
			rerr = r.sendTrade(t, anchor, other, orig)
		})
		if rerr != nil {
			return rerr
		}
	}

	// Trades whose both sides have degree zero get no arrivals: execute
	// them now (they trade nothing, but must retire from pending).
	for t := 0; 2*t+1 < len(r.perm); t++ {
		u := r.perm[2*t]
		li, mine := e.index[u]
		if !mine {
			continue
		}
		ts := &r.trades[li]
		if !ts.done && r.globalDeg[ts.u] == 0 && r.globalDeg[ts.v] == 0 {
			if err := r.execute(int32(t), ts); err != nil {
				return err
			}
		}
	}
	return nil
}

// sendTrade routes one adjacency entry to the orchestrator of trade t,
// anchored at the traded endpoint.
func (r *curveball) sendTrade(t int32, anchor, other graph.Vertex, orig bool) error {
	dst := r.e.pt.Owner(r.perm[2*t])
	return r.e.send(dst, opMsg{kind: mTradeEdge, trade: t, e1: graph.Edge{U: anchor, V: other}, orig: orig})
}

// store hands a settled normalized edge to its owner.
func (r *curveball) store(ed graph.Edge, orig bool) error {
	return r.e.send(r.e.owner(ed), opMsg{kind: mStoreEdge, e1: ed, orig: orig})
}

// handle dispatches curveball payloads. The chassis dispatches through
// the randomizer interface, which ends hotalloc's static call walk, so
// the per-message entry points root their own audits.
//
//es:hotpath
func (r *curveball) handle(om opMsg, src int) error {
	switch om.kind {
	case mTradeEdge:
		return r.onTradeEdge(om.trade, om.e1.U, om.e1.V, om.orig)
	case mStoreEdge:
		return r.e.insertLocal(om.e1, om.orig)
	default:
		return fmt.Errorf("core: rank %d curveball cannot handle %v", r.e.c.Rank(), om.kind)
	}
}

// onTradeEdge collects one arrival for trade t and executes the trade
// once both sides are complete.
func (r *curveball) onTradeEdge(t int32, anchor, other graph.Vertex, orig bool) error {
	e := r.e
	if t < 0 || int(2*t+1) >= len(r.perm) {
		return fmt.Errorf("core: rank %d got edge for invalid trade %d", e.c.Rank(), t)
	}
	u := r.perm[2*t]
	li, mine := e.index[u]
	if !mine {
		return fmt.Errorf("core: rank %d got edge for foreign trade %d (u=%d)", e.c.Rank(), t, u)
	}
	ts := &r.trades[li]
	if ts.done {
		return fmt.Errorf("core: rank %d got edge for finished trade %d", e.c.Rank(), t)
	}
	v := ts.v
	switch {
	case (anchor == u && other == v) || (anchor == v && other == u):
		// The pair edge: completes one arrival on each side and sits out
		// the redistribution.
		if ts.pairFlag != 0 {
			return fmt.Errorf("core: rank %d got duplicate pair edge for trade %d", e.c.Rank(), t)
		}
		ts.pairFlag = 2
		if orig {
			ts.pairFlag = 1
		}
		ts.gotU++
		ts.gotV++
	case anchor == u:
		ts.buf = append(ts.buf, cbEdge{other: other, anchorV: false, orig: orig}) // hotalloc: amortized; trade buffers persist across rounds at their high-water capacity
		ts.gotU++
	case anchor == v:
		ts.buf = append(ts.buf, cbEdge{other: other, anchorV: true, orig: orig}) // hotalloc: amortized; trade buffers persist across rounds at their high-water capacity
		ts.gotV++
	default:
		return fmt.Errorf("core: rank %d got edge anchored at %d for trade %d of (%d, %d)", e.c.Rank(), anchor, t, u, v)
	}
	if ts.gotU == r.globalDeg[u] && ts.gotV == r.globalDeg[v] {
		return r.execute(t, ts)
	}
	return nil
}

// execute runs a complete trade and routes every result edge onward: to
// the later trade of its non-traded endpoint, or to its owner.
func (r *curveball) execute(t int32, ts *cbTrade) error {
	e := r.e
	ts.done = true
	r.pending--
	e.opsInitiated++

	// Split arrivals by side and sort each by the non-anchor endpoint so
	// the redistribution sees a canonical, arrival-order-free input.
	r.ubuf, r.vbuf = r.ubuf[:0], r.vbuf[:0]
	for _, ed := range ts.buf {
		if ed.anchorV {
			r.vbuf = append(r.vbuf, ed) // hotalloc: amortized; execution scratch persists at its high-water capacity
		} else {
			r.ubuf = append(r.ubuf, ed) // hotalloc: amortized; execution scratch persists at its high-water capacity
		}
	}
	sortCBEdges(r.ubuf)
	sortCBEdges(r.vbuf)
	r.pool, r.out = cbApplyTrade(r.ubuf, r.vbuf, r.pool, r.out, cbTradeStream(e.seed, r.round, t))

	for _, ed := range r.out {
		anchor := ts.u
		if ed.anchorV {
			anchor = ts.v
		}
		if err := r.routeTraded(t, anchor, ed.other, ed.orig); err != nil {
			return err
		}
	}
	if ts.pairFlag != 0 {
		if err := r.store(graph.Edge{U: ts.u, V: ts.v}.Norm(), ts.pairFlag == 1); err != nil {
			return err
		}
	}
	return nil
}

// routeTraded forwards one settled adjacency entry after trade t: if the
// non-traded endpoint joins a LATER trade this round, the edge is due
// there (anchored at that endpoint); otherwise it is final for the round
// and goes to its owner.
func (r *curveball) routeTraded(t int32, anchor, other graph.Vertex, orig bool) error {
	if tx := r.tradeOf[other]; tx > t {
		return r.sendTrade(tx, other, anchor, orig)
	}
	return r.store(graph.Edge{U: anchor, V: other}.Norm(), orig)
}

// advance: curveball is fully event-driven — prepare seeds the round's
// messages and handle does the rest.
// cursor is the round counter: at a quiesced round boundary it is the
// only live protocol state (pairing and draws are recomputed from
// counter streams keyed on (seed, round)), so restoring it resumes the
// deterministic round chain exactly.
func (r *curveball) cursor() uint64 { return uint64(r.round) }

func (r *curveball) restoreCursor(c uint64) { r.round = int64(c) }

func (r *curveball) advance() (bool, error) { return false, nil }

// done: all owned trades executed. The chassis keeps draining messages
// for peers (stores and later-trade arrivals) until everyone is done.
func (r *curveball) done() bool { return r.pending == 0 }

// starved: never — every owned trade is guaranteed its exact arrival
// count by the degree invariant, so waiting always terminates.
func (r *curveball) starved() bool { return false }

// forfeitRemaining: unreachable (starved is never true), and trades are
// never forfeited.
func (r *curveball) forfeitRemaining() {}

// quiesced verifies every owned trade executed this round.
func (r *curveball) quiesced() error {
	if r.pending != 0 {
		return fmt.Errorf("core: rank %d ends round %d with %d unexecuted trades", r.e.c.Rank(), r.round, r.pending)
	}
	return nil
}

// seqCBEdge is one settled edge between rounds of the sequential
// reference: normalized, with its original flag.
type seqCBEdge struct {
	e    graph.Edge
	orig bool
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
	trades := make([]cbTrade, nt)
	var ubuf, vbuf, pool, out []cbEdge
	next := make([]seqCBEdge, 0, len(cur))

	// arrive delivers one adjacency entry to trade t, mirroring
	// onTradeEdge: the pair edge is flagged aside, everything else joins
	// the arrival buffer on its anchor's side.
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
			trades[t] = cbTrade{u: perm[2*t], v: perm[2*t+1], buf: buf}
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
		// routeTraded does.
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
