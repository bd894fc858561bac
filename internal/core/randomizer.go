package core

import "fmt"

// The Randomizer seam (DESIGN.md §5): the rank engine is split into a
// chassis and a randomizer. The chassis owns everything algorithm-
// independent — partition ownership and local storage (the store, and
// the list a randomizer carries the partition in outside it), the step
// loop with its drain and end-of-step machinery, the batching message
// plane and its freelists, the sanitizer's fused degree deltas, and the
// counters behind Result. A randomizer owns the protocol that perturbs
// the graph and every signal only that protocol needs. The paper's
// edge-switch conversation protocol (edgeswitcher.go, which alone can
// starve and so runs stall detection) and global curveball trades
// (curveball.go, which carries its partition in the chassis's list) are
// the two implementations; they share every line of chassis code.

// Algorithm selects the randomization process run behind the Randomizer
// seam.
type Algorithm string

// The implemented randomization algorithms.
const (
	// AlgoEdgeSwitch is the paper's single-edge-switch conversation
	// protocol (§4.4–§4.5): each operation takes two random edges and
	// swaps their endpoints under a conversation between the initiator,
	// a partner, and the replacement-edge owners.
	// The default.
	AlgoEdgeSwitch Algorithm = "edge-switch"
	// AlgoCurveball is the global curveball trade chain
	// (Carstens/Hamann/Meyer et al., arXiv:1804.08487): each step is one
	// global round that pairs every vertex and uniformly trades the
	// disjoint parts of the paired adjacency lists. A round visits every
	// vertex's adjacency once; there are no reservations and no restarts.
	AlgoCurveball Algorithm = "curveball"
)

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
// instance per rank, and every record that is not the chassis's
// end-of-step signal is dispatched to it. A step ends when every rank's
// randomizer reports done and has announced EOS.
//
// The chassis calls the methods from a single goroutine; implementations
// send through rankEngine.send/sendRun/broadcastCtl and change the
// partition only through the chassis accounting helpers
// (takeLocal/insertLocal on the store, carryIn/carryOut for edges held
// outside it), which keep the edge count, the sanitizer deltas and the
// originals counter exact for any algorithm; drainPartition and
// storeCarried move a whole partition out of the store and back without
// changing it.
type randomizer interface {
	// prepare arms one step of size s. counts holds the step-boundary
	// per-rank edge counts from the fused exchange (edge-switch rebuilds
	// its partner-selection prefix sums from them; curveball ignores
	// them). prepare may already send protocol messages.
	prepare(s int64, counts []int64) error
	// advance performs self-driven work after each drain: the edge
	// switcher starts pipelined operations and runs stall detection,
	// curveball refuses a round that can no longer finish. It reports
	// whether it made progress (the loop re-drains before calling again).
	advance() (bool, error)
	// done reports that this rank's share of the step is complete (it
	// keeps serving peers until everyone is).
	done() bool
	// handle dispatches one record from src.
	handle(om opMsg, src int) error
	// handleRun consumes the edge run starting at run[0], its kind byte
	// (the rest of the batch follows), and reports the bytes it spanned.
	handleRun(run []byte, src int) (int, error)
	// endStep runs once after the step loop exits: it verifies no
	// protocol state dangles.
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
