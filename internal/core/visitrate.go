// Package core implements the paper's primary contribution: sequential
// (Algorithm 1) and distributed-memory parallel (§4–§5) edge switching on
// simple graphs, together with the visit-rate theory of §3.1 that converts
// a target fraction of visited edges into an operation count.
package core

import (
	"fmt"
	"math"
)

// eulerGamma is the Euler–Mascheroni constant used by the asymptotic
// harmonic-number expansion.
const eulerGamma = 0.57721566490153286060651209008240243

// harmonic returns the k-th harmonic number H_k. Exact summation is used
// for small k; beyond that the asymptotic expansion
// H_k = ln k + γ + 1/(2k) − 1/(12k²) is accurate to ~1e-12.
func harmonic(k int64) float64 {
	if k <= 0 {
		return 0
	}
	if k <= 256 {
		s := 0.0
		for i := int64(1); i <= k; i++ {
			s += 1 / float64(i)
		}
		return s
	}
	fk := float64(k)
	return math.Log(fk) + eulerGamma + 1/(2*fk) - 1/(12*fk*fk)
}

// ExpectedEdgesSwitched returns E[T] of eq. 4: the expected number of
// *edge selections* needed before a graph with m edges has a fraction x
// of them modified, E[T] = m·(H_m − H_{m(1−x)}). For x = 1 this is
// m·H_m ≈ m ln m. x must lie in [0, 1].
func ExpectedEdgesSwitched(m int64, x float64) (float64, error) {
	if m < 0 {
		return 0, fmt.Errorf("core: negative edge count %d", m)
	}
	if x < 0 || x > 1 || math.IsNaN(x) {
		return 0, fmt.Errorf("core: visit rate %v out of [0,1]", x)
	}
	if m == 0 || x == 0 {
		return 0, nil
	}
	remaining := int64(math.Round(float64(m) * (1 - x)))
	if remaining >= m {
		// Rounding pushed the unvisited count back up to m (small m with a
		// small nonzero x, e.g. m=10, x=0.05): E[T] would be 0 and the run
		// would silently do nothing despite a positive target. One edge
		// must be visited for any x > 0, so clamp to m−1 — which makes
		// E[T] = m·(H_m − H_{m−1}) = 1, i.e. at least one selection.
		remaining = m - 1
	}
	return float64(m) * (harmonic(m) - harmonic(remaining)), nil
}

// OpsForVisitRate converts a target visit rate into the number of edge
// switch *operations* t = E[T]/2 (each operation consumes two edge
// selections), rounded up. This is the paper's prescription; §3.1 shows
// the observed visit rate then tracks x with error well below 0.1%.
func OpsForVisitRate(m int64, x float64) (int64, error) {
	et, err := ExpectedEdgesSwitched(m, x)
	if err != nil {
		return 0, err
	}
	return int64(math.Ceil(et / 2)), nil
}

// VisitRate computes the observed visit rate of a switched graph given
// the number of initial edges still unmodified and the initial edge
// count: x' = 1 − originals/m₀.
func VisitRate(originalsRemaining, m0 int64) float64 {
	if m0 <= 0 {
		return 0
	}
	return 1 - float64(originalsRemaining)/float64(m0)
}

// CurveballRoundVisitRate is the conservative per-round lower bound q on
// the fraction of surviving original edges a global curveball round
// modifies. Each round pairs every vertex, and an edge {u, v} survives
// as an original only if it is shared with (or is the pair edge of) both
// endpoints' trades or wins the uniform redistribution on both sides;
// empirically a round modifies well over half of the surviving originals
// on the generator matrix, but the bound is kept deliberately low so the
// round count from CurveballRoundsForVisitRate overshoots and the
// Config.TargetVisitRate early stop — not the ceiling — ends the run.
const CurveballRoundVisitRate = 0.25

// CurveballRoundsForVisitRate converts a target visit rate into a global
// curveball round count: the smallest R with 1 − (1−q)^R ≥ x under the
// conservative per-round rate q = CurveballRoundVisitRate. Because q
// undershoots the real per-round rate, R is a ceiling; pair it with
// Config.TargetVisitRate so the run stops at the boundary where x is
// actually reached. For x = 1 the geometric model never terminates
// exactly, so the target is taken as "at most one surviving original".
func CurveballRoundsForVisitRate(m int64, x float64) (int64, error) {
	if m < 0 {
		return 0, fmt.Errorf("core: negative edge count %d", m)
	}
	if x < 0 || x > 1 || math.IsNaN(x) {
		return 0, fmt.Errorf("core: visit rate %v out of [0,1]", x)
	}
	if m == 0 || x == 0 {
		return 0, nil
	}
	remaining := math.Round(float64(m) * (1 - x))
	if remaining < 1 {
		remaining = 1
	}
	r := math.Ceil(math.Log(remaining/float64(m)) / math.Log(1-CurveballRoundVisitRate))
	if r < 1 {
		r = 1
	}
	return int64(r), nil
}

// OpsForVisitRateAlgo converts a target visit rate into the operation
// count t for the given algorithm: switch operations for edge-switching
// (OpsForVisitRate), global rounds for curveball
// (CurveballRoundsForVisitRate).
func OpsForVisitRateAlgo(algo Algorithm, m int64, x float64) (int64, error) {
	switch algo {
	case AlgoCurveball:
		return CurveballRoundsForVisitRate(m, x)
	case AlgoEdgeSwitch, "":
		return OpsForVisitRate(m, x)
	default:
		return 0, fmt.Errorf("core: unknown algorithm %q", algo)
	}
}

// Budget is the one rule that turns a run's operation count and target
// visit rate into what the engine runs: ops > 0 is taken as t; ops = 0
// derives t from x ∈ (0, 1] over m edges (OpsForVisitRateAlgo). A
// visit-rate-derived curveball run also gets stopAt = x, the
// Config.TargetVisitRate early stop, because its round count is a
// conservative ceiling; every other run gets stopAt = 0. The facade and
// the CLIs all call it, so processes given the same flags agree on
// (t, stopAt) — ranks that disagree deadlock at the stop boundary.
func Budget(algo Algorithm, m, ops int64, x float64) (t int64, stopAt float64, err error) {
	if algo, err = (Config{Algorithm: algo}).algorithm(); err != nil {
		return 0, 0, err
	}
	switch {
	case ops < 0:
		return 0, 0, fmt.Errorf("core: negative operation count %d", ops)
	case ops > 0:
		return ops, 0, nil
	case !(x > 0 && x <= 1):
		return 0, 0, fmt.Errorf("core: target visit rate %v out of (0,1] with no operation count", x)
	}
	if t, err = OpsForVisitRateAlgo(algo, m, x); err != nil {
		return 0, 0, err
	}
	if algo == AlgoCurveball {
		stopAt = x
	}
	return t, stopAt, nil
}
