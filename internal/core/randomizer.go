package core

import "fmt"

// The Randomizer seam (DESIGN.md §5): the rank engine is split into a
// chassis and a randomizer. The chassis owns everything algorithm-
// independent — partition ownership and local storage, the step loop
// with its drain/stall/EOS machinery, the batching message plane and its
// freelists, the pipelining window, the sanitizer's fused degree deltas,
// and the counters behind Result. A randomizer owns only the
// protocol that actually perturbs the graph. The paper's edge-switch
// conversation protocol (edgeswitcher.go) and global curveball trades
// (curveball.go) are the two implementations; they share every line of
// chassis code.

// Algorithm selects the randomization process run behind the Randomizer
// seam.
type Algorithm string

// The implemented randomization algorithms.
const (
	// AlgoEdgeSwitch is the paper's single-edge-switch conversation
	// protocol (§4.4–§4.5): each operation takes two random edges and
	// swaps their endpoints under a reserve/commit/release conversation
	// between the initiator, a partner, and the replacement-edge owners.
	// The default.
	AlgoEdgeSwitch Algorithm = "edge-switch"
	// AlgoCurveball is the global curveball trade chain
	// (Carstens/Hamann/Meyer et al., arXiv:1804.08487): each step is one
	// global round that pairs every vertex and uniformly trades the
	// disjoint parts of the paired adjacency lists. A round visits every
	// vertex's adjacency once; there are no reservations and no restarts.
	AlgoCurveball Algorithm = "curveball"
)

// Algorithms lists the implemented algorithms in presentation order.
func Algorithms() []Algorithm { return []Algorithm{AlgoEdgeSwitch, AlgoCurveball} }

// algorithm normalizes and validates Config.Algorithm ("" means the
// default edge-switch protocol).
func (cfg Config) algorithm() (Algorithm, error) {
	switch cfg.Algorithm {
	case "", AlgoEdgeSwitch:
		return AlgoEdgeSwitch, nil
	case AlgoCurveball:
		return AlgoCurveball, nil
	default:
		return "", fmt.Errorf("core: unknown algorithm %q", cfg.Algorithm)
	}
}

// randomizer is the engine-side seam: the chassis step loop drives one
// instance per rank, and every protocol message that is not a chassis
// control signal (EOS/stalled/resumed) is dispatched to it. A step ends
// when every rank's randomizer reports done and has announced EOS.
//
// The chassis calls the methods from a single goroutine; implementations
// send through rankEngine.send/sendRun and mutate local storage only
// through the chassis accounting helpers (takeLocal/insertLocal/
// drainLocal/loadSlotEdges), which keep the sanitizer deltas and the
// originals counter exact for any algorithm.
type randomizer interface {
	// prepare arms one step of size s. counts holds the step-boundary
	// per-rank edge counts from the fused exchange (edge-switch rebuilds
	// its partner-selection prefix sums from them; curveball ignores
	// them). prepare may already send protocol messages.
	prepare(s int64, counts []int64) error
	// advance performs self-driven work: start pipelined operations,
	// forfeit a structurally stuck one. It reports whether it made
	// progress (the loop re-drains before calling again). Event-driven
	// randomizers always report false and do all work in handle.
	advance() (bool, error)
	// done reports that this rank's share of the step is complete (it
	// keeps serving peers until everyone is).
	done() bool
	// starved reports that the randomizer cannot progress until a peer's
	// message delivers work (the chassis then runs stall detection, and
	// calls forfeitRemaining when the whole world is starved).
	starved() bool
	// forfeitRemaining abandons the rank's remaining share of the step;
	// only called after global quiescence is established.
	forfeitRemaining()
	// handle dispatches one protocol message from src.
	handle(om opMsg, src int) error
	// handleRun consumes the edge run starting at run[0], its kind byte
	// (the rest of the batch follows), and reports the bytes it spanned.
	handleRun(run []byte, src int) (int, error)
	// endStep runs once after the step loop exits: it verifies no
	// protocol state dangles, and curveball applies its held-back writes.
	endStep() error
	// cursor returns the randomizer's resume cursor — the only protocol
	// state that survives a step boundary (the edge switcher's operation
	// sequence counter, curveball's round number). Captured by the
	// checkpoint layer at boundaries, where endStep guarantees all maps
	// and in-flight state are empty.
	cursor() uint64
	// restoreCursor reinstates a cursor captured by cursor at the same
	// step boundary, as part of restoring a checkpointed engine.
	restoreCursor(uint64)
}
