package core

import (
	"errors"
	"fmt"
	"math/bits"
	"sort"

	"edgeswitch/internal/graph"
	"edgeswitch/internal/randvar"
	"edgeswitch/internal/rng"
)

// edgeSwitcher is the randomizer implementation of the paper's
// single-edge-switch conversation protocol (§4.4–§4.5): per operation an
// initiator takes a first edge, a partner (drawn with probability
// |E_j|/|E|) takes the second, validates the switch, and has the two
// replacement edges checked and inserted at their owners. A rank's own
// share of an operation runs inline and only legs that cross ranks
// become records (see messages.go). All of the protocol's roles and
// state — dense tables, no runtime maps — live here; the step loop,
// message plane and storage accounting are the chassis's (see
// randomizer.go).
type edgeSwitcher struct {
	e *rankEngine

	// custody holds the edges of operations waiting on a message: their
	// taken e1s and e2s and the replacement edges reserved here (§4.5
	// issue 1). An operation that never waits never enters it.
	custody custody

	// cumEdges is the step-start prefix-sum of per-rank edge counts used
	// to draw the partner rank with probability |E_j|/|E|, sized once and
	// rewritten at every step boundary.
	cumEdges []int64

	// Initiator-side state: waiting own operations by window slot, and the
	// stack of free slots, freeSlots[:nFree]. Up to opWindow operations
	// are pipelined (see opWindowSize): a window keeps the rank busy
	// between replies, and — the message plane's point — gives each flush
	// several records per destination instead of one. Semantically it is
	// the concurrency already present across ranks: an in-flight e1 is out
	// of the partition, exactly like another rank's in-hand edge.
	own       [opWindow]ownOp
	freeSlots [opWindow]int32
	nFree     int
	seq       uint64
	remaining int64 // ops still to complete this step

	// curRestarts counts consecutive aborts across own operations. The
	// partner-selection probabilities are stale within a step (they are
	// refreshed only at step boundaries, §4.5), so on degenerate tiny
	// graphs every candidate partner can be empty; past restartExplore
	// the partner is drawn uniformly instead, and past restartForfeit one
	// operation is abandoned. Realistic partitions never approach either
	// threshold.
	curRestarts int64

	// Partner-side state: the waiting operations this rank orchestrates or
	// relays, partners[initiator·opWindow + slot], of which partnerLive are
	// live. A relay never partners the operation it relays, so one table
	// serves both.
	partners    []partnerOp
	partnerLive int

	// Stall detection (see mStalled in messages.go): stalled is this
	// rank's standing announcement; peerStalled marks the peers whose
	// announcement stands, stalledPeers of them.
	stalled      bool
	peerStalled  []bool
	stalledPeers int
}

func newEdgeSwitcher(e *rankEngine) *edgeSwitcher {
	r := &edgeSwitcher{
		e:           e,
		custody:     newCustody(256), // grows to the in-flight high-water mark
		nFree:       opWindow,
		partners:    make([]partnerOp, e.c.Size()*opWindow),
		peerStalled: make([]bool, e.c.Size()),
	}
	for i := range r.freeSlots {
		r.freeSlots[i] = int32(opWindow - 1 - i)
	}
	return r
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
func (r *edgeSwitcher) opWindowSize() int {
	w := int(r.e.deg.Total() / 8)
	if w < 1 {
		w = 1
	}
	if w > opWindow {
		w = opWindow
	}
	return w
}

// Restart-escalation thresholds (see edgeSwitcher.curRestarts).
const (
	restartExplore = 256
	restartForfeit = 20000
)

// ownOp is an initiator's window slot: its operation and first edge.
type ownOp struct {
	seq  uint64
	e1   graph.Edge
	live bool
}

// partnerOp is an operation waiting on a last agent's reply: at its
// partner, e2 held and the replacement edges the partner owns reserved;
// at a relay, edge 0 reserved and edge 1 forwarded to its owner.
type partnerOp struct {
	seq     uint64
	e2      graph.Edge    // partner: its taken second edge
	edges   [2]graph.Edge // replacement edges A, B
	owners  [2]int32
	agent   int32 // the rank whose reply the entry waits on
	partner int32 // relay: the partner it answers
	relay   bool
	live    bool
}

// Named refusals of a record that does not fit the tables or the
// protocol.
var (
	errOpRank    = errors.New("op rank out of range or not the expected rank")
	errOpSlot    = errors.New("op window slot out of range")
	errOpStale   = errors.New("unknown or stale op")
	errOpBusy    = errors.New("partner slot already busy")
	errMask      = errors.New("last-agent mask names no edge, or a relayed one both")
	errSameEdge  = errors.New("last-agent edges are equal")
	errNotOwner  = errors.New("edge not owned by the receiver")
	errRelayLoop = errors.New("relay target is the sender")
	errAgent     = errors.New("reply from a rank that was not asked")
)

// prepare clears the stall marks, rebuilds the selection prefix sums from
// the step-boundary edge counts and takes this rank's share of the step's
// operation quotas.
func (r *edgeSwitcher) prepare(s int64, counts []int64) error {
	e := r.e
	p := e.c.Size()
	r.stalled, r.stalledPeers = false, 0
	clear(r.peerStalled)
	if r.cumEdges == nil {
		r.cumEdges = make([]int64, p+1)
	}
	var total int64
	for i, cnt := range counts {
		if cnt < 0 {
			return fmt.Errorf("core: negative edge count from rank %d", i)
		}
		r.cumEdges[i] = total
		total += cnt
	}
	r.cumEdges[p] = total
	if total != e.m {
		return fmt.Errorf("core: edge count drifted: %d != %d", total, e.m)
	}
	quotas, err := stepQuotas(e.seed, e.stepsRun, s, counts, e.m)
	if err != nil {
		return err
	}
	r.remaining = quotas[e.c.Rank()]
	return nil
}

// stepQuotas draws step's operation quotas, M(s, |E_0|/m, …, |E_{p-1}|/m)
// (§4.5), as a pure function of its arguments: its RNG is seeded from the
// counter stream keyed by (seed, step), so every rank draws the identical
// vector from the gathered counts and the boundary needs no collective of
// its own. At p = 1, q = [1] and the quota is [s] without a draw.
func stepQuotas(seed uint64, step, s int64, counts []int64, m int64) ([]int64, error) {
	q := make([]float64, len(counts))
	for i, cnt := range counts {
		q[i] = float64(cnt) / float64(m)
	}
	var rnd rng.RNG
	rnd.Seed(rng.NewStream(seed, esStreamQuota|uint64(step)).At(0))
	return randvar.Multinomial(&rnd, s, q)
}

// inFlight counts own operations occupying a window slot.
func (r *edgeSwitcher) inFlight() int { return opWindow - r.nFree }

// advance drives the initiator role and stall detection. A stalled rank
// whose drain delivered an edge first withdraws its announcement. Then
// startOps runs; when it starts nothing and the rank is starved, advance
// announces the stall, and once every peer has ended the step or stalled
// — no message anywhere can deliver work — forfeits the rest of the
// quota. A signal sent counts as progress, so the chassis drains again.
func (r *edgeSwitcher) advance() (bool, error) {
	e := r.e
	if r.stalled && !r.starved() && !r.done() {
		r.stalled = false
		if err := e.broadcastCtl(mResumed); err != nil {
			return false, err
		}
	}
	if started, err := r.startOps(); started || err != nil {
		return started, err
	}
	switch {
	case !r.starved():
		return false, nil
	case !r.stalled:
		r.stalled = true
		return true, e.broadcastCtl(mStalled)
	case e.eosOthers+r.stalledPeers == e.c.Size()-1:
		e.forfeited += r.remaining
		r.remaining = 0
		r.stalled = false
		return true, e.broadcastCtl(mResumed)
	}
	return false, nil
}

// startOps forfeits a structurally stuck operation, or starts own
// operations until opWindowSize of them wait. Filling the window before
// flushing is what gives the message plane several records per
// destination batch. Inline aborts never fill it, so the loop also stops
// at restartForfeit.
func (r *edgeSwitcher) startOps() (bool, error) {
	e := r.e
	if int64(r.inFlight()) >= r.remaining {
		return false, nil
	}
	if r.curRestarts >= restartForfeit {
		// Structurally stuck operation (e.g. no valid switch exists
		// anywhere for this partition's edges): abandon this single op
		// rather than spin forever.
		r.curRestarts = 0
		e.forfeited++
		r.remaining--
		return true, nil
	}
	if e.deg.Total() == 0 {
		return false, nil
	}
	started := false
	for w := r.opWindowSize(); r.inFlight() < w && int64(r.inFlight()) < r.remaining &&
		e.deg.Total() > 0 && r.curRestarts < restartForfeit; {
		if err := r.startOp(); err != nil {
			return false, err
		}
		started = true
	}
	return started, nil
}

func (r *edgeSwitcher) done() bool { return r.remaining == 0 && r.inFlight() == 0 }

// starved: quota left, nothing in flight, and no local edge to take — a
// peer's commit is the only thing that can deliver one.
func (r *edgeSwitcher) starved() bool {
	return r.inFlight() == 0 && r.remaining > 0 && r.e.deg.Total() == 0
}

// endStep asserts the protocol left no dangling state at a step boundary.
func (r *edgeSwitcher) endStep() error {
	e := r.e
	if held := r.custody.live[0]; held != 0 {
		return fmt.Errorf("core: rank %d ends step with %d in-hand edges", e.c.Rank(), held)
	}
	if reserved := r.custody.live[custReserved]; reserved != 0 {
		return fmt.Errorf("core: rank %d ends step with %d reservations", e.c.Rank(), reserved)
	}
	if r.partnerLive != 0 {
		return fmt.Errorf("core: rank %d ends step with %d partner ops", e.c.Rank(), r.partnerLive)
	}
	if r.inFlight() != 0 || r.remaining != 0 {
		return fmt.Errorf("core: rank %d ends step mid-operation", e.c.Rank())
	}
	return nil
}

// cursor is the operation sequence counter: at a quiesced step boundary
// every table is empty and seq is the only protocol state a resumed run
// needs (ids of completed operations never recur, so restoring seq keeps
// post-restore opIDs distinct from pre-checkpoint ones).
func (r *edgeSwitcher) cursor() uint64 { return r.seq }

func (r *edgeSwitcher) restoreCursor(c uint64) { r.seq = c }

// handle dispatches one conversation-protocol or stall record from src.
func (r *edgeSwitcher) handle(om opMsg, src int) error {
	switch om.kind {
	case mSelectSecond:
		return r.onSelectSecond(om.id, om.e1, src)
	case mAbortOp, mOpDone:
		return r.onOwnReply(om.id, om.kind)
	case mLastAgent:
		return r.onLastAgent(om, src)
	case mCommitted, mRefused:
		return r.onAgentReply(om.id, om.kind, src)
	case mStalled:
		if !r.peerStalled[src] {
			r.peerStalled[src] = true
			r.stalledPeers++
		}
		return nil
	case mResumed:
		if r.peerStalled[src] {
			r.peerStalled[src] = false
			r.stalledPeers--
		}
		return nil
	default:
		return fmt.Errorf("core: rank %d edge-switch cannot handle %v", r.e.c.Rank(), om.kind)
	}
}

// handleRun: the conversation protocol has no bulk payloads.
func (r *edgeSwitcher) handleRun(_ []byte, src int) (int, error) {
	return 0, fmt.Errorf("core: rank %d edge-switch got an edge run from rank %d", r.e.c.Rank(), src)
}

// ---- local edge custody ----

// wellFormed reports whether ed is a normalized edge of the graph,
// 0 ≤ U < V < n, as a record's edge must be before it picks owners.
func (r *edgeSwitcher) wellFormed(ed graph.Edge) bool {
	return uint32(ed.U) < uint32(ed.V) && uint32(ed.V) < uint32(r.e.n)
}

// conflicts reports whether a normalized local edge exists (adjacency,
// reservation, or provisionally removed). Custody and partition are
// disjoint — a held edge left the partition, a reserved one is not in it
// yet — so one probe and one Contains decide. A malformed edge conflicts.
func (r *edgeSwitcher) conflicts(ed graph.Edge) bool {
	if _, taken := r.custody.find(edgeKey(ed)); taken || !r.wellFormed(ed) {
		return true
	}
	li, ok := r.e.localSlot(ed.U)
	return !ok || r.e.adj.Contains(li, ed.V) // a foreign edge is misrouted: conflict
}

// hold keeps a taken edge of a waiting operation in custody.
func (r *edgeSwitcher) hold(ed graph.Edge, orig bool) {
	tag := uint8(0)
	if orig {
		tag = custOrig
	}
	r.custody.add(edgeKey(ed), tag, opID{})
}

// release takes a held edge out of custody, returning its original flag.
func (r *edgeSwitcher) release(ed graph.Edge, what string) (bool, error) {
	i, ok := r.custody.find(edgeKey(ed))
	if !ok || r.custody.slots[i].tag&custReserved != 0 {
		return false, fmt.Errorf("core: rank %d %s edge %v it does not hold", r.e.c.Rank(), what, ed)
	}
	orig := r.custody.slots[i].tag&custOrig != 0
	r.custody.remove(i)
	return orig, nil
}

// reinsert returns an in-hand edge to the local structures (abort path).
func (r *edgeSwitcher) reinsert(ed graph.Edge) error {
	orig, err := r.release(ed, "reinserting")
	if err != nil {
		return err
	}
	return r.e.insertLocal(ed, orig)
}

// discard finalizes the removal of an in-hand edge (commit path).
func (r *edgeSwitcher) discard(ed graph.Edge) error {
	_, err := r.release(ed, "discarding")
	return err
}

// pickPartner draws a rank with probability proportional to its
// step-start edge count (§4.4: P_j chosen with probability |E_j|/|E|).
// After many consecutive restarts the step-start distribution is
// evidently useless (all its mass on now-empty partitions), so the draw
// falls back to uniform exploration over all ranks.
func (r *edgeSwitcher) pickPartner() int {
	e := r.e
	if r.curRestarts >= restartExplore {
		return e.rnd.Intn(e.c.Size())
	}
	x := e.rnd.Int64n(r.cumEdges[len(r.cumEdges)-1])
	// First rank whose cumulative range contains x.
	idx := sort.Search(len(r.cumEdges)-1, func(i int) bool { return r.cumEdges[i+1] > x })
	return idx
}

// ---- initiator role ----

// startOp begins one own operation: take e1, pick a partner. A partner
// that is this rank orchestrates in place; only an operation that then
// waits on a message takes the free slot, with e1 held in custody.
func (r *edgeSwitcher) startOp() error {
	e := r.e
	me := e.c.Rank()
	r.seq++
	id := opID{rank: int32(me), slot: r.freeSlots[r.nFree-1], seq: r.seq}
	e1, orig := e.takeLocal()
	partner := r.pickPartner()
	if partner == me {
		if out, err := r.orchestrate(id, e1); err != nil {
			return err
		} else if out != 0 {
			return r.settle(e1, orig, out)
		}
	}
	r.nFree--
	r.own[id.slot] = ownOp{seq: r.seq, e1: e1, live: true}
	r.hold(e1, orig)
	if partner == me {
		return nil
	}
	return e.send(partner, opMsg{kind: mSelectSecond, id: id, e1: e1})
}

// refuse names why a record does not fit the tables or the protocol.
func (r *edgeSwitcher) refuse(kind msgKind, id opID, why error) error {
	return fmt.Errorf("core: rank %d got %v for %v: %w", r.e.c.Rank(), kind, id, why)
}

// onOwnReply finishes a waiting own operation: committed everywhere
// (mOpDone) or rejected (mAbortOp). Either way its window slot is free
// again and e1 leaves custody.
func (r *edgeSwitcher) onOwnReply(id opID, kind msgKind) error {
	o, err := r.ownOp(id, kind)
	if err != nil {
		return err
	}
	o.live = false
	r.freeSlots[r.nFree] = id.slot
	r.nFree++
	orig, err := r.release(o.e1, "finishing")
	if err != nil {
		return err
	}
	return r.settle(o.e1, orig, kind)
}

// ownOp returns the window slot of the live own operation id names.
func (r *edgeSwitcher) ownOp(id opID, kind msgKind) (*ownOp, error) {
	switch {
	case int(id.rank) != r.e.c.Rank():
		return nil, r.refuse(kind, id, errOpRank)
	case uint32(id.slot) >= opWindow:
		return nil, r.refuse(kind, id, errOpSlot)
	case !r.own[id.slot].live || r.own[id.slot].seq != id.seq:
		return nil, r.refuse(kind, id, errOpStale)
	}
	return &r.own[id.slot], nil
}

// settle ends an own operation whose first edge e1 is out of custody:
// after a commit (mOpDone) e1 stays removed; after an abort it goes back
// with its original flag and the operation restarts with a new pair.
func (r *edgeSwitcher) settle(e1 graph.Edge, orig bool, kind msgKind) error {
	if kind == mAbortOp {
		r.e.restarts++
		r.curRestarts++
		return r.e.insertLocal(e1, orig)
	}
	r.remaining--
	r.e.opsInitiated++
	r.curRestarts = 0
	return nil
}

// ---- partner role ----

// partner returns the partner-table entry of the (initiator, slot) pair
// id names: one id's operation occupies when live, a free one otherwise.
func (r *edgeSwitcher) partner(id opID, kind msgKind, live bool) (*partnerOp, error) {
	switch {
	case uint32(id.rank) >= uint32(r.e.c.Size()):
		return nil, r.refuse(kind, id, errOpRank)
	case uint32(id.slot) >= opWindow:
		return nil, r.refuse(kind, id, errOpSlot)
	}
	op := &r.partners[int(id.rank)*opWindow+int(id.slot)]
	switch {
	case !live && op.live:
		return nil, r.refuse(kind, id, errOpBusy)
	case live && (!op.live || op.seq != id.seq):
		return nil, r.refuse(kind, id, errOpStale)
	}
	return op, nil
}

// onSelectSecond orchestrates an operation for a remote initiator and
// tells it the outcome unless the operation now waits.
func (r *edgeSwitcher) onSelectSecond(id opID, e1 graph.Edge, initiator int) error {
	e := r.e
	if int(id.rank) != initiator {
		return r.refuse(mSelectSecond, id, errOpRank)
	}
	if _, err := r.partner(id, mSelectSecond, false); err != nil {
		return err
	}
	if !r.wellFormed(e1) {
		return fmt.Errorf("core: rank %d got %v for %v with malformed edge %v", e.c.Rank(), mSelectSecond, id, e1)
	}
	out, err := r.orchestrate(id, e1)
	if err != nil || out == 0 {
		return err
	}
	return e.send(initiator, opMsg{kind: out, id: id})
}

// orchestrate is the partner's turn (§4.4): take e2, validate, draw the
// kind, and check the replacement edges this rank owns in place. With
// both here, or a refusal, it ends at once. Otherwise id's free partner
// entry waits, e2 held and the local edge reserved, on the last agent: the
// owner of the first edge this rank does not own, which relays the second
// when another rank owns it. It returns the initiator's outcome (mOpDone,
// mAbortOp), or 0 while waiting.
func (r *edgeSwitcher) orchestrate(id opID, e1 graph.Edge) (msgKind, error) {
	e := r.e
	if e.deg.Total() == 0 {
		return mAbortOp, nil
	}
	e2, orig := e.takeLocal()
	if switchInvalid(e1, e2) {
		return mAbortOp, e.insertLocal(e2, orig)
	}
	kind := Cross
	if e.rnd.Bool() {
		kind = Straight
	}
	a, b := replacement(e1, e2, kind)
	me := int32(e.c.Rank())
	edges, owners := [2]graph.Edge{a, b}, [2]int32{int32(e.owner(a)), int32(e.owner(b))}
	var mask uint8 // the replacement edges another rank owns
	for i, ed := range edges {
		if owners[i] != me {
			mask |= 1 << i
		} else if r.conflicts(ed) {
			return mAbortOp, e.insertLocal(e2, orig)
		}
	}
	if mask == 0 {
		for _, ed := range edges {
			if err := e.insertLocal(ed, false); err != nil {
				return 0, err
			}
		}
		return mOpDone, nil
	}
	agent := owners[0]
	if mask == 2 {
		agent = owners[1]
	}
	r.partners[int(id.rank)*opWindow+int(id.slot)] = partnerOp{seq: id.seq, e2: e2, edges: edges, owners: owners, agent: agent, live: true}
	r.partnerLive++
	r.hold(e2, orig)
	for i, ed := range edges {
		if mask>>i&1 == 0 {
			r.custody.add(edgeKey(ed), custReserved, id)
		}
	}
	return 0, e.send(int(agent), opMsg{kind: mLastAgent, id: id, e1: a, e2: b, mask: mask})
}

// onAgentReply finishes an entry waiting on its last agent: the edges
// reserved here commit with the agent's (mCommitted) or are released. A
// partner then retires the operation; a relay passes the reply on.
func (r *edgeSwitcher) onAgentReply(id opID, kind msgKind, src int) error {
	op, err := r.partner(id, kind, true)
	if err != nil {
		return err
	}
	if int32(src) != op.agent {
		return r.refuse(kind, id, errAgent)
	}
	me := int32(r.e.c.Rank())
	for i, ed := range op.edges {
		if op.owners[i] == me {
			if err := r.unreserve(id, ed, kind, kind == mCommitted); err != nil {
				return err
			}
		}
	}
	if !op.relay {
		return r.retire(op, id, kind == mCommitted)
	}
	op.live = false
	r.partnerLive--
	return r.answer(id, kind, int(op.partner))
}

// retire frees a finished partner op — e2 discarded after a commit,
// reinserted otherwise — and tells the initiator: directly when it is
// this rank, by record otherwise, and not at all when it was the last
// agent and settled its side itself.
func (r *edgeSwitcher) retire(op *partnerOp, id opID, commit bool) error {
	kind, release := mAbortOp, r.reinsert
	if commit {
		kind, release = mOpDone, r.discard
	}
	if err := release(op.e2); err != nil {
		return err
	}
	op.live = false
	r.partnerLive--
	switch {
	case int(id.rank) == r.e.c.Rank():
		return r.onOwnReply(id, kind)
	case op.agent == id.rank:
		return nil
	}
	return r.e.send(int(id.rank), opMsg{kind: kind, id: id})
}

// ---- owner role ----

// onLastAgent is the last agent's turn, two-phase commit's last-agent
// optimization: the sender has reserved what it owns and hands over the
// rest, the edges mask names. They all commit here or none does, and the
// reply says which. A partner's request naming an edge 1 this rank does
// not own makes it the relay: with its own edge 0 clear it reserves that
// and forwards edge 1 (see relay). Only the rank that answers the partner
// directly settles the initiator's operation when it is this rank; a
// relayed record's receiver never does.
func (r *edgeSwitcher) onLastAgent(m opMsg, src int) error {
	e := r.e
	relayed, owned := m.mask&maskRelayed != 0, m.mask&3
	switch {
	case owned == 0 || m.mask > 7 || relayed && owned == 3:
		return r.refuse(m.kind, m.id, errMask)
	case owned == 3 && m.e1 == m.e2:
		return r.refuse(m.kind, m.id, errSameEdge)
	}
	if !relayed && int(m.id.rank) == e.c.Rank() {
		if _, err := r.ownOp(m.id, m.kind); err != nil {
			return err
		}
	}
	_, local1 := e.localSlot(m.e2.U)
	relay := !relayed && owned == 3 && !local1 && r.wellFormed(m.e2)
	if relay {
		owned = 1
		if e.owner(m.e2) == src {
			return r.refuse(m.kind, m.id, errRelayLoop)
		}
		if _, err := r.partner(m.id, m.kind, false); err != nil {
			return err
		}
	}
	edges := [2]graph.Edge{m.e1, m.e2}
	reply := mCommitted
	for i, ed := range edges {
		_, local := e.localSlot(ed.U)
		switch {
		case owned>>i&1 == 0:
		case !local || !r.wellFormed(ed):
			return r.refuse(m.kind, m.id, errNotOwner)
		case r.conflicts(ed):
			reply = mRefused
		}
	}
	if relay && reply == mCommitted {
		return r.relay(m, src)
	}
	for i, ed := range edges {
		if reply == mCommitted && owned>>i&1 != 0 {
			if err := e.insertLocal(ed, false); err != nil {
				return err
			}
		}
	}
	if relayed {
		return e.send(src, opMsg{kind: reply, id: m.id})
	}
	return r.answer(m.id, reply, src)
}

// relay reserves edge 0 for m's operation in the relay's partner entry
// and forwards edge 1 to its owner, whose reply onAgentReply passes on.
func (r *edgeSwitcher) relay(m opMsg, partner int) error {
	me, next := int32(r.e.c.Rank()), int32(r.e.owner(m.e2))
	r.partners[int(m.id.rank)*opWindow+int(m.id.slot)] = partnerOp{seq: m.id.seq, edges: [2]graph.Edge{m.e1, m.e2},
		owners: [2]int32{me, next}, agent: next, partner: int32(partner), relay: true, live: true}
	r.partnerLive++
	r.custody.add(edgeKey(m.e1), custReserved, m.id)
	return r.e.send(int(next), opMsg{kind: mLastAgent, id: m.id, e1: m.e1, e2: m.e2, mask: 2 | maskRelayed})
}

// answer gives the partner a chain's reply, first settling the
// initiator's operation when this rank initiated it.
func (r *edgeSwitcher) answer(id opID, reply msgKind, partner int) error {
	if int(id.rank) == r.e.c.Rank() {
		outcome := mOpDone
		if reply == mRefused {
			outcome = mAbortOp
		}
		if err := r.onOwnReply(id, outcome); err != nil {
			return err
		}
	}
	return r.e.send(partner, opMsg{kind: reply, id: id})
}

// unreserve ends id's reservation of ed: commit materializes it as a
// modified edge, otherwise it is dropped.
func (r *edgeSwitcher) unreserve(id opID, ed graph.Edge, kind msgKind, commit bool) error {
	i, ok := r.custody.find(edgeKey(ed))
	if !ok || r.custody.slots[i].tag&custReserved == 0 || r.custody.slots[i].op != id {
		return fmt.Errorf("core: rank %d %v of unreserved edge %v by %v", r.e.c.Rank(), kind, ed, id)
	}
	r.custody.remove(i)
	if !commit {
		return nil
	}
	return r.e.insertLocal(ed, false)
}

// ---- custody table ----

// custody is the rank's one table of edges out of its partition, keyed
// by the packed normalized edge: linear probing, backward-shift deletion
// (no tombstones), a power-of-two size doubled at load ½. The operations
// waiting on messages bound it, so after the first steps it never grows
// again.
type custody struct {
	slots []custodySlot
	shift uint   // 64 - log2(len(slots)): home is the hash's top bits
	live  [2]int // entries held, reserved (indexed by the custReserved bit)
}

// custodySlot is one table entry; tag 0 marks it empty.
type custodySlot struct {
	key uint64
	op  opID // the reserving operation (reserved entries only)
	tag uint8
}

// custodySlot tags.
const (
	custReserved = 1 << iota
	custOrig
	custUsed
)

func edgeKey(ed graph.Edge) uint64 { return uint64(uint32(ed.U))<<32 | uint64(uint32(ed.V)) }

// newCustody returns an empty table of size slots, a power of two.
func newCustody(size int) custody {
	return custody{slots: make([]custodySlot, size), shift: uint(bits.LeadingZeros64(uint64(size))) + 1}
}

// home is key's preferred slot (Fibonacci hashing).
func (c *custody) home(key uint64) int { return int(key * 0x9e3779b97f4a7c15 >> c.shift) }

// find returns the index of key's entry and true, or of the empty slot
// that ends key's probe run and false.
func (c *custody) find(key uint64) (int, bool) {
	i, mask := c.home(key), len(c.slots)-1
	for ; c.slots[i].tag != 0; i = (i + 1) & mask {
		if c.slots[i].key == key {
			return i, true
		}
	}
	return i, false
}

// add records key, which must be absent, as held (tag 0 or custOrig) or
// reserved by op (custReserved).
func (c *custody) add(key uint64, tag uint8, op opID) {
	if 2*(c.live[0]+c.live[1]+1) > len(c.slots) {
		old := c.slots
		c.slots = make([]custodySlot, 2*len(old))
		c.shift--
		for _, s := range old {
			if s.tag != 0 {
				i, _ := c.find(s.key)
				c.slots[i] = s
			}
		}
	}
	i, _ := c.find(key)
	c.slots[i] = custodySlot{key: key, op: op, tag: tag | custUsed}
	c.live[tag&custReserved]++
}

// remove deletes entry i and shifts the rest of its probe run back over
// the hole, so every remaining key stays reachable from its home.
func (c *custody) remove(i int) {
	c.live[c.slots[i].tag&custReserved]--
	mask := len(c.slots) - 1
	for j := (i + 1) & mask; c.slots[j].tag != 0; j = (j + 1) & mask {
		// Entry j may fill the hole iff its home is cyclically at or before i.
		if h := c.home(c.slots[j].key); (j-h)&mask >= (j-i)&mask {
			c.slots[i] = c.slots[j]
			i = j
		}
	}
	c.slots[i] = custodySlot{}
}
