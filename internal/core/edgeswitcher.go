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
// |E_j|/|E|) takes the second, validates the switch, and reserves,
// commits or releases the two replacement edges at their owners with
// acknowledged conversations. All of the protocol's roles and state — dense
// tables, no runtime maps — live here; the step loop, message plane and
// storage accounting are the chassis's (see randomizer.go).
type edgeSwitcher struct {
	e *rankEngine

	// custody holds the edges in-flight operations took out of the
	// partition (e1s this rank initiated, e2s it partners) and the
	// replacement edges reserved here (§4.5 issue 1).
	custody custody

	// cumEdges is the step-start prefix-sum of per-rank edge counts used
	// to draw the partner rank with probability |E_j|/|E|, sized once and
	// rewritten at every step boundary.
	cumEdges []int64

	// Initiator-side state: own operations in flight by window slot, and
	// the stack of free slots, freeSlots[:nFree]. Up to opWindow operations
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

	// Partner-side state: the operations this rank is orchestrating,
	// partners[initiator·opWindow + slot], of which partnerLive are live.
	partners    []partnerOp
	partnerLive int
}

func newEdgeSwitcher(e *rankEngine) *edgeSwitcher {
	r := &edgeSwitcher{
		e:        e,
		custody:  newCustody(256), // grows to the in-flight high-water mark
		nFree:    opWindow,
		partners: make([]partnerOp, e.c.Size()*opWindow),
	}
	for i := range r.freeSlots {
		r.freeSlots[i] = int32(opWindow - 1 - i)
	}
	return r
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

// ownOp is an initiator's window slot: its operation and first edge.
type ownOp struct {
	seq  uint64
	e1   graph.Edge
	live bool
}

// partnerOp is the partner's view of an operation it orchestrates.
type partnerOp struct {
	seq      uint64
	e2       graph.Edge
	edges    [2]graph.Edge // replacement edges A, B
	owners   [2]int32
	live     bool
	phase    uint8
	acksLeft uint8
	resolved [2]bool
	okay     [2]bool
}

// Named refusals of a record whose op id does not fit the tables.
var (
	errOpRank  = errors.New("op rank out of range or not the expected rank")
	errOpSlot  = errors.New("op window slot out of range")
	errOpStale = errors.New("unknown or stale op")
	errOpBusy  = errors.New("partner slot already busy")
)

// prepare rebuilds the selection prefix sums from the step-boundary edge
// counts and takes this rank's share of the step's operation quotas.
func (r *edgeSwitcher) prepare(s int64, counts []int64) error {
	e := r.e
	p := e.c.Size()
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

// advance drives the initiator role: forfeit a structurally stuck
// operation, or start own operations up to the pipelining window.
// Filling the window before flushing is what gives the message plane
// several records per destination batch.
//
//es:hotpath
func (r *edgeSwitcher) advance() (bool, error) {
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
	for w := e.opWindowSize(); r.inFlight() < w &&
		int64(r.inFlight()) < r.remaining && e.deg.Total() > 0; {
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

func (r *edgeSwitcher) forfeitRemaining() {
	r.e.forfeited += r.remaining
	r.remaining = 0
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
	case mAbortOp, mOpDone:
		return r.onOwnReply(om.id, om.kind)
	case mReserve:
		return r.onReserve(om.id, om.e1, src)
	case mReserveOK, mReserveFail:
		return r.onReserveReply(om.id, om.e1, om.kind)
	case mCommit:
		return r.onCommit(om.id, om.e1, src)
	case mRelease:
		return r.onRelease(om.id, om.e1, src)
	case mCommitAck, mReleaseAck:
		return r.onAck(om.id, om.kind)
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

// takeRandomEdge removes a uniform random local edge into custody.
func (r *edgeSwitcher) takeRandomEdge() graph.Edge {
	ed, orig := r.e.takeLocal()
	tag := uint8(0)
	if orig {
		tag = custOrig
	}
	r.custody.add(edgeKey(ed), tag, opID{})
	return ed
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
	idx := sort.Search(len(r.cumEdges)-1, func(i int) bool { return r.cumEdges[i+1] > x }) // hotalloc: non-escaping closure; sort.Search does not retain it, so it stays on the stack
	return idx
}

// ---- initiator role ----

// startOp begins one own operation in a free window slot: take e1, pick
// a partner, ask it to orchestrate.
func (r *edgeSwitcher) startOp() error {
	e := r.e
	r.seq++
	r.nFree--
	slot := r.freeSlots[r.nFree]
	id := opID{rank: int32(e.c.Rank()), slot: slot, seq: r.seq}
	e1 := r.takeRandomEdge()
	r.own[slot] = ownOp{seq: r.seq, e1: e1, live: true}
	partner := r.pickPartner()
	return e.send(partner, opMsg{kind: mSelectSecond, id: id, e1: e1})
}

// refuse names why a record's op id does not fit the tables.
func (r *edgeSwitcher) refuse(kind msgKind, id opID, why error) error {
	return fmt.Errorf("core: rank %d got %v for %v: %w", r.e.c.Rank(), kind, id, why)
}

// onOwnReply finishes an own operation the reply names: committed
// everywhere (mOpDone), or rejected and to restart with a new pair
// (mAbortOp). Either way its window slot is free again.
func (r *edgeSwitcher) onOwnReply(id opID, kind msgKind) error {
	switch {
	case int(id.rank) != r.e.c.Rank():
		return r.refuse(kind, id, errOpRank)
	case uint32(id.slot) >= opWindow:
		return r.refuse(kind, id, errOpSlot)
	case !r.own[id.slot].live || r.own[id.slot].seq != id.seq:
		return r.refuse(kind, id, errOpStale)
	}
	o := &r.own[id.slot]
	o.live = false
	r.freeSlots[r.nFree] = id.slot
	r.nFree++
	if kind == mAbortOp {
		r.e.restarts++
		r.curRestarts++
		return r.reinsert(o.e1)
	}
	r.remaining--
	r.e.opsInitiated++
	r.curRestarts = 0
	return r.discard(o.e1)
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

// onSelectSecond orchestrates an operation for initiator id.rank: select
// e2, validate, and reserve the replacement edges at their owners.
func (r *edgeSwitcher) onSelectSecond(id opID, e1 graph.Edge, initiator int) error {
	e := r.e
	if int(id.rank) != initiator {
		return r.refuse(mSelectSecond, id, errOpRank)
	}
	op, err := r.partner(id, mSelectSecond, false)
	if err != nil {
		return err
	}
	if !r.wellFormed(e1) {
		return fmt.Errorf("core: rank %d got %v for %v with malformed edge %v", e.c.Rank(), mSelectSecond, id, e1)
	}
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
	*op = partnerOp{
		seq:    id.seq,
		e2:     e2,
		edges:  [2]graph.Edge{a, b},
		owners: [2]int32{int32(e.owner(a)), int32(e.owner(b))},
		live:   true,
		phase:  phaseReserving,
	}
	r.partnerLive++
	for i := 0; i < 2; i++ {
		if err := e.send(int(op.owners[i]), opMsg{kind: mReserve, id: id, e1: op.edges[i]}); err != nil {
			return err
		}
	}
	return nil
}

// onReserveReply advances a partner op when an owner answers.
func (r *edgeSwitcher) onReserveReply(id opID, ed graph.Edge, kind msgKind) error {
	e := r.e
	op, err := r.partner(id, kind, true)
	if err != nil {
		return err
	}
	if op.phase != phaseReserving {
		return fmt.Errorf("core: rank %d got %v for %v in phase %d", e.c.Rank(), kind, id, op.phase)
	}
	idx, err := op.edgeIndex(ed)
	if err != nil {
		return err
	}
	if op.resolved[idx] {
		return fmt.Errorf("core: rank %d got duplicate reserve reply for %v/%v", e.c.Rank(), id, ed)
	}
	op.resolved[idx] = true
	op.okay[idx] = kind == mReserveOK
	if !op.resolved[0] || !op.resolved[1] {
		return nil
	}
	if op.okay[0] && op.okay[1] {
		op.phase = phaseCommitting
		op.acksLeft = 2
		for i := 0; i < 2; i++ {
			if err := e.send(int(op.owners[i]), opMsg{kind: mCommit, id: id, e1: op.edges[i]}); err != nil {
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
			if err := e.send(int(op.owners[i]), opMsg{kind: mRelease, id: id, e1: op.edges[i]}); err != nil {
				return err
			}
		}
	}
	if op.acksLeft == 0 {
		return r.retire(op, id, mAbortOp)
	}
	return nil
}

// onAck counts commit/release acknowledgements and finishes the op when
// all owners have applied their updates.
func (r *edgeSwitcher) onAck(id opID, kind msgKind) error {
	commit, phase := kind == mCommitAck, uint8(phaseReleasing)
	if commit {
		phase = phaseCommitting
	}
	op, err := r.partner(id, kind, true)
	if err != nil {
		return err
	}
	if op.phase != phase || op.acksLeft == 0 {
		return fmt.Errorf("core: rank %d got %v for %v in phase %d", r.e.c.Rank(), kind, id, op.phase)
	}
	op.acksLeft--
	if op.acksLeft > 0 {
		return nil
	}
	if commit {
		return r.retire(op, id, mOpDone)
	}
	return r.retire(op, id, mAbortOp)
}

// retire frees a finished partner op and tells its initiator: mOpDone
// after a commit (e2 discarded), mAbortOp otherwise (e2 reinserted).
func (r *edgeSwitcher) retire(op *partnerOp, id opID, kind msgKind) error {
	release := r.reinsert
	if kind == mOpDone {
		release = r.discard
	}
	if err := release(op.e2); err != nil {
		return err
	}
	op.live = false
	r.partnerLive--
	return r.e.send(int(id.rank), opMsg{kind: kind, id: id})
}

func (op *partnerOp) edgeIndex(ed graph.Edge) (int, error) {
	switch ed {
	case op.edges[0]:
		return 0, nil
	case op.edges[1]:
		return 1, nil
	default:
		return 0, fmt.Errorf("core: edge %v is not one of the op's replacement edges %v", ed, op.edges)
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
	r.custody.add(edgeKey(ed), custReserved, id)
	return e.send(partner, opMsg{kind: mReserveOK, id: id, e1: ed})
}

// unreserve drops id's reservation of ed.
func (r *edgeSwitcher) unreserve(id opID, ed graph.Edge, kind msgKind) error {
	i, ok := r.custody.find(edgeKey(ed))
	if !ok || r.custody.slots[i].tag&custReserved == 0 || r.custody.slots[i].op != id {
		return fmt.Errorf("core: rank %d %v of unreserved edge %v by %v", r.e.c.Rank(), kind, ed, id)
	}
	r.custody.remove(i)
	return nil
}

// onCommit materializes a reserved edge as a modified edge.
func (r *edgeSwitcher) onCommit(id opID, ed graph.Edge, partner int) error {
	e := r.e
	if err := r.unreserve(id, ed, mCommit); err != nil {
		return err
	}
	if err := e.insertLocal(ed, false); err != nil {
		return err
	}
	return e.send(partner, opMsg{kind: mCommitAck, id: id, e1: ed})
}

// onRelease drops a reservation.
func (r *edgeSwitcher) onRelease(id opID, ed graph.Edge, partner int) error {
	if err := r.unreserve(id, ed, mRelease); err != nil {
		return err
	}
	return r.e.send(partner, opMsg{kind: mReleaseAck, id: id, e1: ed})
}

// ---- custody table ----

// custody is the rank's one table of edges out of its partition, keyed
// by the packed normalized edge: linear probing, backward-shift deletion
// (no tombstones), a power-of-two size doubled at load ½. The operations
// in flight bound it, so after the first steps it never grows again.
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
		c.slots = make([]custodySlot, 2*len(old)) // hotalloc: amortized; the table doubles at load ½ and keeps its high-water size
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
