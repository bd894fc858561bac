package core

import (
	"fmt"
	"sort"

	"edgeswitch/internal/graph"
	"edgeswitch/internal/randvar"
)

// edgeSwitcher is the randomizer implementation of the paper's
// single-edge-switch conversation protocol (§4.4–§4.5): per operation an
// initiator takes a first edge, a partner (drawn with probability
// |E_j|/|E|) takes the second, validates the switch, and reserves,
// commits or releases the two replacement edges at their owners with
// acknowledged conversations. All of the protocol's roles and state live
// here; the step loop, message plane and storage accounting are the
// chassis's (see randomizer.go).
type edgeSwitcher struct {
	e *rankEngine

	// inHand holds edges provisionally removed by an in-flight operation
	// this rank initiated (its e1) or is partnering (its e2); the value
	// preserves the original flag for reinsertion on abort. potential
	// holds replacement edges reserved at this rank (§4.5 issue 1).
	inHand    map[graph.Edge]bool
	potential map[graph.Edge]opID

	// cumEdges is the step-start prefix-sum of per-rank edge counts used
	// to draw the partner rank with probability |E_j|/|E|; qBuf is the
	// matching multinomial weight scratch. Both are sized once and
	// rewritten at every step boundary.
	cumEdges []int64
	qBuf     []float64

	// Initiator-side state: own operations in flight, keyed by id with
	// the taken first edge as value. Up to opWindow operations are
	// pipelined concurrently (see opWindowSize): a window keeps the rank
	// busy between replies, and — the message plane's point — gives each
	// flush several records per destination instead of one. Semantically
	// a window is no different from the concurrency already present
	// across ranks: an in-flight e1 is out of the partition, so peers
	// treat it exactly like another rank's in-hand edge.
	myOps     map[opID]graph.Edge
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

	// Partner-side state: operations this rank is orchestrating. poFree
	// recycles finished partnerOp records (one is retired per reply
	// conversation, so the freelist stays at the in-flight high-water
	// mark).
	partnerOps map[opID]*partnerOp
	poFree     []*partnerOp
}

func newEdgeSwitcher(e *rankEngine) *edgeSwitcher {
	return &edgeSwitcher{
		e:          e,
		inHand:     make(map[graph.Edge]bool),
		potential:  make(map[graph.Edge]opID),
		myOps:      make(map[opID]graph.Edge),
		partnerOps: make(map[opID]*partnerOp),
	}
}

// Partner-op phases.
const (
	phaseReserving = iota
	phaseCommitting
	phaseReleasing
)

// Restart-escalation thresholds (see edgeSwitcher.curRestarts).
const (
	restartExplore = 256
	restartForfeit = 20000
)

// partnerOp is the partner's view of an operation it orchestrates.
type partnerOp struct {
	id        opID
	initiator int
	e2        graph.Edge
	edges     [2]graph.Edge // replacement edges A, B
	owners    [2]int
	resolved  [2]bool
	okay      [2]bool
	phase     int
	acksLeft  int
}

// prepare rebuilds the selection prefix sums from the step-boundary edge
// counts and draws this step's multinomial operation distribution.
func (r *edgeSwitcher) prepare(s int64, counts []int64) error {
	e := r.e
	p := e.c.Size()
	if r.cumEdges == nil {
		r.cumEdges = make([]int64, p+1)
		r.qBuf = make([]float64, p)
	}
	q := r.qBuf
	var total int64
	for i, cnt := range counts {
		if cnt < 0 {
			return fmt.Errorf("core: negative edge count from rank %d", i)
		}
		r.cumEdges[i] = total
		total += cnt
		q[i] = float64(cnt) / float64(e.m)
	}
	r.cumEdges[p] = total
	if total != e.m {
		return fmt.Errorf("core: edge count drifted: %d != %d", total, e.m)
	}
	// Guard against floating-point drift in Σq.
	var qs float64
	for _, v := range q {
		qs += v
	}
	if qs != 1 {
		q[p-1] += 1 - qs
		if q[p-1] < 0 {
			q[p-1] = 0
		}
	}
	dist, err := randvar.ParallelMultinomialGathered(e.c, e.rnd, s, q)
	if err != nil {
		return err
	}
	r.remaining = dist[e.c.Rank()]
	return nil
}

// advance drives the initiator role: forfeit a structurally stuck
// operation, or start own operations up to the pipelining window.
// Filling the window before flushing is what gives the message plane
// several records per destination batch.
//
//es:hotpath
func (r *edgeSwitcher) advance() (bool, error) {
	e := r.e
	if int64(len(r.myOps)) >= r.remaining {
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
	for w := e.opWindowSize(); len(r.myOps) < w &&
		int64(len(r.myOps)) < r.remaining && e.deg.Total() > 0; {
		if err := r.startOp(); err != nil {
			return false, err
		}
		started = true
	}
	return started, nil
}

func (r *edgeSwitcher) done() bool { return r.remaining == 0 && len(r.myOps) == 0 }

// starved: quota left, nothing in flight, and no local edge to take — a
// peer's commit is the only thing that can deliver one.
func (r *edgeSwitcher) starved() bool {
	return len(r.myOps) == 0 && r.remaining > 0 && r.e.deg.Total() == 0
}

func (r *edgeSwitcher) forfeitRemaining() {
	r.e.forfeited += r.remaining
	r.remaining = 0
}

// endStep asserts the protocol left no dangling state at a step boundary.
func (r *edgeSwitcher) endStep() error {
	e := r.e
	if len(r.inHand) != 0 {
		return fmt.Errorf("core: rank %d ends step with %d in-hand edges", e.c.Rank(), len(r.inHand))
	}
	if len(r.potential) != 0 {
		return fmt.Errorf("core: rank %d ends step with %d reservations", e.c.Rank(), len(r.potential))
	}
	if len(r.partnerOps) != 0 {
		return fmt.Errorf("core: rank %d ends step with %d partner ops", e.c.Rank(), len(r.partnerOps))
	}
	if len(r.myOps) != 0 || r.remaining != 0 {
		return fmt.Errorf("core: rank %d ends step mid-operation", e.c.Rank())
	}
	return nil
}

// cursor is the operation sequence counter: at a quiesced step boundary
// every map is empty and seq is the only protocol state a resumed run
// needs (ids of completed operations never recur, so restoring seq keeps
// post-restore opIDs distinct from pre-checkpoint ones).
func (r *edgeSwitcher) cursor() uint64 { return r.seq }

func (r *edgeSwitcher) restoreCursor(c uint64) { r.seq = c }

// handle dispatches one conversation-protocol message from src. The
// chassis dispatches through the randomizer interface, which ends
// hotalloc's static call walk, so the per-message entry points root
// their own audits.
//
//es:hotpath
func (r *edgeSwitcher) handle(om opMsg, src int) error {
	switch om.kind {
	case mSelectSecond:
		return r.onSelectSecond(om.id, om.e1, src)
	case mAbortOp:
		return r.onAbort(om.id)
	case mReserve:
		return r.onReserve(om.id, om.e1, src)
	case mReserveOK:
		return r.onReserveReply(om.id, om.e1, true)
	case mReserveFail:
		return r.onReserveReply(om.id, om.e1, false)
	case mCommit:
		return r.onCommit(om.id, om.e1, src)
	case mCommitAck:
		return r.onAck(om.id, true)
	case mRelease:
		return r.onRelease(om.id, om.e1, src)
	case mReleaseAck:
		return r.onAck(om.id, false)
	case mOpDone:
		return r.onOpDone(om.id)
	default:
		return fmt.Errorf("core: rank %d edge-switch cannot handle %v", r.e.c.Rank(), om.kind)
	}
}

// handleRun: the conversation protocol has no bulk payloads.
func (r *edgeSwitcher) handleRun(_ []byte, src int) (int, error) {
	return 0, fmt.Errorf("core: rank %d edge-switch got an edge run from rank %d", r.e.c.Rank(), src)
}

// ---- local edge custody ----

// conflicts reports whether a normalized local edge exists (adjacency,
// reservation, or provisionally removed).
func (r *edgeSwitcher) conflicts(ed graph.Edge) bool {
	if _, held := r.inHand[ed]; held {
		return true
	}
	if _, reserved := r.potential[ed]; reserved {
		return true
	}
	e := r.e
	li, ok := e.localSlot(ed.U)
	if !ok {
		return true // foreign edge: misrouted, treat as conflict
	}
	return e.adj.Contains(li, ed.V)
}

// takeRandomEdge removes a uniform random local edge into inHand.
func (r *edgeSwitcher) takeRandomEdge() graph.Edge {
	ed, orig := r.e.takeLocal()
	r.inHand[ed] = orig
	return ed
}

// reinsert returns an in-hand edge to the local structures (abort path).
func (r *edgeSwitcher) reinsert(ed graph.Edge) error {
	orig, held := r.inHand[ed]
	if !held {
		return fmt.Errorf("core: rank %d reinserting edge %v it does not hold", r.e.c.Rank(), ed)
	}
	delete(r.inHand, ed)
	return r.e.insertLocal(ed, orig)
}

// discard finalizes the removal of an in-hand edge (commit path).
func (r *edgeSwitcher) discard(ed graph.Edge) error {
	if _, held := r.inHand[ed]; !held {
		return fmt.Errorf("core: rank %d discarding edge %v it does not hold", r.e.c.Rank(), ed)
	}
	delete(r.inHand, ed)
	return nil
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
	idx := sort.Search(len(r.cumEdges)-1, func(i int) bool { return r.cumEdges[i+1] > x }) // hotalloc: non-escaping closure; sort.Search does not retain it, so it stays on the stack
	return idx
}

// ---- initiator role ----

// startOp begins one own operation: take e1, pick a partner, ask it to
// orchestrate.
func (r *edgeSwitcher) startOp() error {
	e := r.e
	r.seq++
	id := opID{rank: int32(e.c.Rank()), seq: r.seq}
	e1 := r.takeRandomEdge()
	r.myOps[id] = e1
	partner := r.pickPartner()
	return e.send(partner, opMsg{kind: mSelectSecond, id: id, e1: e1})
}

// onOpDone finalizes a committed own operation.
func (r *edgeSwitcher) onOpDone(id opID) error {
	e := r.e
	e1, mine := r.myOps[id]
	if !mine {
		return fmt.Errorf("core: rank %d got %v for unknown own op", e.c.Rank(), id)
	}
	if err := r.discard(e1); err != nil {
		return err
	}
	delete(r.myOps, id)
	r.remaining--
	e.opsInitiated++
	r.curRestarts = 0
	return nil
}

// onAbort restarts an own operation after rejection.
func (r *edgeSwitcher) onAbort(id opID) error {
	e := r.e
	e1, mine := r.myOps[id]
	if !mine {
		return fmt.Errorf("core: rank %d got abort %v for unknown own op", e.c.Rank(), id)
	}
	if err := r.reinsert(e1); err != nil {
		return err
	}
	delete(r.myOps, id)
	e.restarts++
	r.curRestarts++
	return nil
}

// ---- partner role ----

// onSelectSecond orchestrates an operation for initiator id.rank: select
// e2, validate, and reserve the replacement edges at their owners.
func (r *edgeSwitcher) onSelectSecond(id opID, e1 graph.Edge, initiator int) error {
	e := r.e
	if e.deg.Total() == 0 {
		return e.send(initiator, opMsg{kind: mAbortOp, id: id})
	}
	e2 := r.takeRandomEdge()
	if switchInvalid(e1, e2) {
		if err := r.reinsert(e2); err != nil {
			return err
		}
		return e.send(initiator, opMsg{kind: mAbortOp, id: id})
	}
	kind := Cross
	if e.rnd.Bool() {
		kind = Straight
	}
	a, b := replacement(e1, e2, kind)
	op := r.newPartnerOp()
	*op = partnerOp{
		id:        id,
		initiator: initiator,
		e2:        e2,
		edges:     [2]graph.Edge{a, b},
		owners:    [2]int{e.owner(a), e.owner(b)},
		phase:     phaseReserving,
	}
	r.partnerOps[id] = op
	for i := 0; i < 2; i++ {
		if err := e.send(op.owners[i], opMsg{kind: mReserve, id: id, e1: op.edges[i]}); err != nil {
			return err
		}
	}
	return nil
}

// onReserveReply advances a partner op when an owner answers.
func (r *edgeSwitcher) onReserveReply(id opID, ed graph.Edge, ok bool) error {
	e := r.e
	op, exists := r.partnerOps[id]
	if !exists || op.phase != phaseReserving {
		return fmt.Errorf("core: rank %d got reserve reply for unknown %v", e.c.Rank(), id)
	}
	idx, err := op.edgeIndex(ed)
	if err != nil {
		return err
	}
	if op.resolved[idx] {
		return fmt.Errorf("core: rank %d got duplicate reserve reply for %v/%v", e.c.Rank(), id, ed)
	}
	op.resolved[idx] = true
	op.okay[idx] = ok
	if !op.resolved[0] || !op.resolved[1] {
		return nil
	}
	if op.okay[0] && op.okay[1] {
		op.phase = phaseCommitting
		op.acksLeft = 2
		for i := 0; i < 2; i++ {
			if err := e.send(op.owners[i], opMsg{kind: mCommit, id: id, e1: op.edges[i]}); err != nil {
				return err
			}
		}
		return nil
	}
	// At least one conflict: release successful reservations, then abort.
	op.phase = phaseReleasing
	op.acksLeft = 0
	for i := 0; i < 2; i++ {
		if op.okay[i] {
			op.acksLeft++
			if err := e.send(op.owners[i], opMsg{kind: mRelease, id: id, e1: op.edges[i]}); err != nil {
				return err
			}
		}
	}
	if op.acksLeft == 0 {
		return r.finishAbort(op)
	}
	return nil
}

// onAck counts commit/release acknowledgements and finishes the op when
// all owners have applied their updates.
func (r *edgeSwitcher) onAck(id opID, commit bool) error {
	e := r.e
	op, exists := r.partnerOps[id]
	if !exists {
		return fmt.Errorf("core: rank %d got ack for unknown %v", e.c.Rank(), id)
	}
	if (commit && op.phase != phaseCommitting) || (!commit && op.phase != phaseReleasing) {
		return fmt.Errorf("core: rank %d got %v ack in phase %d", e.c.Rank(), id, op.phase)
	}
	op.acksLeft--
	if op.acksLeft > 0 {
		return nil
	}
	if commit {
		if err := r.discard(op.e2); err != nil {
			return err
		}
		delete(r.partnerOps, id)
		initiator := op.initiator
		r.freePartnerOp(op)
		return e.send(initiator, opMsg{kind: mOpDone, id: id})
	}
	return r.finishAbort(op)
}

func (r *edgeSwitcher) finishAbort(op *partnerOp) error {
	if err := r.reinsert(op.e2); err != nil {
		return err
	}
	delete(r.partnerOps, op.id)
	initiator, id := op.initiator, op.id
	r.freePartnerOp(op)
	return r.e.send(initiator, opMsg{kind: mAbortOp, id: id})
}

// newPartnerOp draws a partnerOp record from the freelist; the caller
// overwrites every field. freePartnerOp returns a record once it has
// left partnerOps and no reference to it remains.
func (r *edgeSwitcher) newPartnerOp() *partnerOp {
	if n := len(r.poFree); n > 0 {
		op := r.poFree[n-1]
		r.poFree[n-1] = nil
		r.poFree = r.poFree[:n-1]
		return op
	}
	return new(partnerOp) // hotalloc: freelist miss; the pool exists to make this the rare path
}

func (r *edgeSwitcher) freePartnerOp(op *partnerOp) {
	r.poFree = append(r.poFree, op) // hotalloc: freelist return; amortized growth of the partnerOp pool backbone
}

func (op *partnerOp) edgeIndex(ed graph.Edge) (int, error) {
	switch ed {
	case op.edges[0]:
		return 0, nil
	case op.edges[1]:
		return 1, nil
	default:
		return 0, fmt.Errorf("core: edge %v not part of %v", ed, op.id)
	}
}

// ---- owner role ----

// onReserve answers a reservation request with a conflict check; a
// successful check records the potential edge (§4.5 issue 1).
func (r *edgeSwitcher) onReserve(id opID, ed graph.Edge, partner int) error {
	e := r.e
	if r.conflicts(ed) {
		return e.send(partner, opMsg{kind: mReserveFail, id: id, e1: ed})
	}
	r.potential[ed] = id
	return e.send(partner, opMsg{kind: mReserveOK, id: id, e1: ed})
}

// onCommit materializes a reserved edge as a modified edge.
func (r *edgeSwitcher) onCommit(id opID, ed graph.Edge, partner int) error {
	e := r.e
	holder, reserved := r.potential[ed]
	if !reserved || holder != id {
		return fmt.Errorf("core: rank %d commit of unreserved edge %v by %v", e.c.Rank(), ed, id)
	}
	delete(r.potential, ed)
	if err := e.insertLocal(ed, false); err != nil {
		return err
	}
	return e.send(partner, opMsg{kind: mCommitAck, id: id, e1: ed})
}

// onRelease drops a reservation.
func (r *edgeSwitcher) onRelease(id opID, ed graph.Edge, partner int) error {
	holder, reserved := r.potential[ed]
	if !reserved || holder != id {
		return fmt.Errorf("core: rank %d release of unreserved edge %v by %v", r.e.c.Rank(), ed, id)
	}
	delete(r.potential, ed)
	return r.e.send(partner, opMsg{kind: mReleaseAck, id: id, e1: ed})
}
