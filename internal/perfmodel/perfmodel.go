// Package perfmodel is an analytical performance model of the parallel
// edge-switch algorithm, used to reproduce the paper's cluster-scale
// speedup curves (Figs. 4, 14, 15) on hardware that has far fewer
// physical processors than the authors' 1024-core InfiniBand testbed
// (see DESIGN.md §2 — this is the "simulate the hardware you do not
// have" substitution).
//
// The model is LogP-flavoured and deliberately simple; every parameter is
// either measured from this repository's engine (per-operation message
// and round-trip counts; TestMessagesPerOpBounded measures the first
// per rank count) or taken from the communication characteristics of the
// paper's testbed class. It captures the three effects that shape the
// published curves:
//
//  1. Remote operations are latency-bound chains of message round trips
//     (§4.4), so per-operation cost grows with the remote fraction
//     1 − 1/p and saturates quickly.
//  2. Workload imbalance (multinomial sampling plus scheme-dependent
//     skew, §5.2) makes the busiest rank the step's critical path.
//  3. Per-step synchronization (multinomial generation, edge-count
//     exchange, end-of-step signalling) adds an O(s/p + p·log p) term
//     that eventually turns the speedup curve over — the decline the
//     paper observes past several hundred processors.
package perfmodel

import (
	"fmt"
	"math"
	"time"
)

// Machine describes the host executing the ranks.
type Machine struct {
	// Name labels the machine in experiment output.
	Name string
	// Latency is the one-way small-message latency α between two ranks.
	Latency time.Duration
	// PerByte is the per-byte transfer cost β.
	PerByte time.Duration
	// SeqOpsPerSec is the sequential algorithm's switch throughput.
	SeqOpsPerSec float64
	// RankOverheadPerOp is the per-operation CPU cost of a rank beyond
	// the pure switch work (selection, bookkeeping, serialization).
	RankOverheadPerOp time.Duration
	// TrialsPerSec is the BINV multinomial generator's trial rate
	// (measured ≈600M trials/s in this repository, Fig. 24 bench).
	TrialsPerSec float64
}

// InfiniBandCluster models the paper's testbed class: Sandy Bridge nodes
// on QDR InfiniBand (≈1.5 µs one-way MPI latency, ≈3.2 GB/s effective
// per-link bandwidth). The sequential rate is normalized to 1 so model
// outputs are reported as speedups rather than absolute times.
var InfiniBandCluster = Machine{
	Name:              "infiniband-cluster",
	Latency:           1500 * time.Nanosecond,
	PerByte:           time.Nanosecond / 3, // ~3.2 GB/s
	SeqOpsPerSec:      400_000,             // measured class of this codebase's sequential engine
	RankOverheadPerOp: 1500 * time.Nanosecond,
	TrialsPerSec:      500_000_000,
}

// LoopbackGoroutines models this repository's in-process runtime on a
// single machine: sub-microsecond delivery but ranks time-share the
// physical cores.
var LoopbackGoroutines = Machine{
	Name:              "loopback-goroutines",
	Latency:           800 * time.Nanosecond,
	PerByte:           time.Nanosecond / 10,
	SeqOpsPerSec:      400_000,
	RankOverheadPerOp: 2500 * time.Nanosecond,
	TrialsPerSec:      500_000_000,
}

// Workload describes one parallel run to predict.
type Workload struct {
	// Ops is the total number of switch operations t.
	Ops int64
	// Steps is the number of steps (≥ 1).
	Steps int
	// MsgsPerOp is the protocol messages per completed operation. It
	// grows with p, since a rank's own share of an operation sends
	// nothing: TestMessagesPerOpBounded measures 0 at p=1 and ≈4.5
	// at p=8. DefaultWorkload keeps the 10.1 measured when every leg was
	// a message.
	MsgsPerOp float64
	// RoundsPerOp is the sequential message round trips on an operation's
	// critical path (select → last-agent request → reply → done is 2 when
	// the partner and the owner differ; DefaultWorkload keeps the 3.5 of
	// the protocol with reserve and commit rounds).
	RoundsPerOp float64
	// MsgBytes is the wire size of a protocol message.
	MsgBytes int
	// SkewFactor is the scheme/graph-dependent workload imbalance on top
	// of multinomial noise: the busiest rank's long-run share of
	// operations relative to the mean (1.0 = balanced; CP on a clustered
	// graph like Miami measures ≈1.5–3, §5.2; an adversarial HP-D
	// assignment reaches ≈p/4).
	SkewFactor float64
	// PhysicalCores caps real concurrency; 0 means one core per rank
	// (the cluster case). When p exceeds PhysicalCores the model
	// serializes compute accordingly (the single-host case).
	PhysicalCores int
}

// DefaultWorkload returns the measured per-operation constants of this
// repository's engine for a t-operation, steps-step run.
func DefaultWorkload(ops int64, steps int) Workload {
	return Workload{
		Ops:         ops,
		Steps:       steps,
		MsgsPerOp:   10.1,
		RoundsPerOp: 3.5,
		MsgBytes:    29,
		SkewFactor:  1.0,
	}
}

// Prediction is the model output for one processor count.
type Prediction struct {
	P        int
	Time     time.Duration
	Speedup  float64 // vs the sequential algorithm on the same machine
	CommFrac float64 // fraction of the busiest rank's time spent waiting on messages
}

// Predict estimates the runtime of the workload on p ranks.
func Predict(m Machine, w Workload, p int) (Prediction, error) {
	if p < 1 {
		return Prediction{}, fmt.Errorf("perfmodel: p must be >= 1, got %d", p)
	}
	if w.Ops < 0 || w.Steps < 1 || w.MsgsPerOp < 0 || w.RoundsPerOp < 0 || w.SkewFactor < 1 {
		return Prediction{}, fmt.Errorf("perfmodel: invalid workload %+v", w)
	}
	seqTime := float64(w.Ops) / m.SeqOpsPerSec // seconds

	// Busiest rank's operation count: mean × (multinomial noise ⊕ skew).
	meanOps := float64(w.Ops) / float64(p)
	sPerStep := meanOps / float64(w.Steps)
	noise := 1.0
	if p > 1 && sPerStep > 0 {
		// Expected max/mean of a balanced multinomial per step.
		noise = 1 + math.Sqrt(2*math.Log(float64(p))/sPerStep)
	}
	skew := w.SkewFactor
	if noise > skew {
		skew = noise
	}
	busiestOps := meanOps * skew

	// Per-operation cost at the busiest rank.
	computePerOp := 1/m.SeqOpsPerSec + m.RankOverheadPerOp.Seconds()
	remoteFrac := 1 - 1/float64(p)
	commPerOp := remoteFrac * (w.RoundsPerOp*2*m.Latency.Seconds() +
		w.MsgsPerOp*float64(w.MsgBytes)*m.PerByte.Seconds())
	// Serving other ranks' requests costs the busiest rank CPU time too:
	// roughly msgsPerOp × mean ops arrive, each a small handler.
	servePerMsg := m.RankOverheadPerOp.Seconds() / 4
	serveTime := meanOps * w.MsgsPerOp * servePerMsg * remoteFrac

	rankTime := busiestOps*(computePerOp+commPerOp) + serveTime

	// Core oversubscription: with fewer physical cores than ranks the
	// compute serializes (communication latency still overlaps).
	if w.PhysicalCores > 0 && p > w.PhysicalCores {
		over := float64(p) / float64(w.PhysicalCores)
		rankTime = busiestOps*computePerOp*over + busiestOps*commPerOp + serveTime*over
	}

	// Step synchronization: multinomial generation O(s/p) plus two
	// log-p collective phases and the end-of-step exchange (p messages).
	logp := math.Ceil(math.Log2(float64(p) + 1))
	stepSync := float64(w.Steps) * (2*logp*2*m.Latency.Seconds() +
		float64(p)*servePerMsg + sPerStep/m.TrialsPerSec)

	total := rankTime + stepSync
	commFrac := 0.0
	if total > 0 {
		commFrac = (busiestOps*commPerOp + stepSync) / total
	}
	return Prediction{
		P:        p,
		Time:     time.Duration(total * float64(time.Second)),
		Speedup:  seqTime / total,
		CommFrac: commFrac,
	}, nil
}

// Sweep predicts the workload across processor counts.
func Sweep(m Machine, w Workload, ps []int) ([]Prediction, error) {
	out := make([]Prediction, 0, len(ps))
	for _, p := range ps {
		pr, err := Predict(m, w, p)
		if err != nil {
			return nil, err
		}
		out = append(out, pr)
	}
	return out, nil
}

// PeakSpeedup scans p = 1, 2, 4, … , maxP and returns the processor
// count and value of the highest predicted speedup.
func PeakSpeedup(m Machine, w Workload, maxP int) (bestP int, best float64, err error) {
	for p := 1; p <= maxP; p *= 2 {
		pr, err := Predict(m, w, p)
		if err != nil {
			return 0, 0, err
		}
		if pr.Speedup > best {
			best, bestP = pr.Speedup, p
		}
	}
	return bestP, best, nil
}
