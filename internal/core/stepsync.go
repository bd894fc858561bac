package core

import (
	"fmt"

	"edgeswitch/internal/graph"
	"edgeswitch/internal/mpi"
)

// The fused step-boundary exchange: every step boundary needs the
// per-rank edge counts (to rebuild the partner-selection prefix sums),
// the global count of edges still flagged original (for the exact visit
// rate that drives Config.TargetVisitRate and Result.VisitRate), and —
// in sanitized runs — a degree-conservation check. All three ride one
// AllreduceInt64s of a (p+1)-vector: the rank's edge count at index
// rank, its originals count at index p, and, in sanitized runs only, its
// degree fingerprint at index p+1.
//
// The fingerprint is degSig = Σ Δ_v·h(v) over the local degree changes
// Δ_v since the previous boundary, h a fixed SplitMix64 mix of the
// vertex id (wrapping arithmetic). A valid randomization move relocates
// degree between ranks but never creates or destroys it — edge switches
// move two endpoints, curveball trades reassign whole adjacency entries
// between the paired vertices — so the summed fingerprint is exactly 0.
// Every randomizer feeds it through the same takeLocal/insertLocal/
// carryIn/carryOut accounting, which is what makes the check
// algorithm-agnostic. A nonzero sum, or an edge total other than m,
// sends every rank — all see the same sums — into the full
// verifyBaseline pass, which names the drifted vertices.

// noteDegree folds a local degree change of d on both endpoints into the
// sanitizer's fingerprint; a no-op in unchecked runs.
func (e *rankEngine) noteDegree(ed graph.Edge, d int64) {
	if e.sanitize {
		e.degSig += d * (vertexSig(ed.U) + vertexSig(ed.V))
	}
}

// vertexSig is h(v), SplitMix64's output at state v (the golden-gamma
// step keeps h(0) nonzero).
func vertexSig(v graph.Vertex) int64 { return int64(mix64(uint64(v) + 0x9e3779b97f4a7c15)) }

// stepExchange is the single collective a clean step boundary costs. It
// returns the per-rank edge counts for the randomizer's prepare and the
// global number of edges still flagged original. In sanitized runs it
// also checks the degree fingerprint and runs the local structural scan;
// drift in the final step is covered by verifyBaseline at the end of the
// run.
func (e *rankEngine) stepExchange() ([]int64, int64, error) {
	p := e.c.Size()
	vec := make([]int64, p+1, p+2)
	vec[e.c.Rank()], vec[p] = e.localEdges(), e.origLocal
	if e.sanitize {
		// The fingerprint describes only the steps since the previous
		// boundary; once sent it is consumed, violation or not.
		vec, e.degSig = append(vec, e.degSig), 0
	}
	sums, err := e.c.AllreduceInt64s(vec, mpi.OpSum)
	if err != nil {
		return nil, 0, err
	}
	counts := sums[:p]
	var total int64
	for _, cnt := range counts {
		total += cnt
	}
	if e.sanitize && (total != e.m || sums[p+1] != 0) {
		if err := e.verifyBaseline(); err != nil {
			return nil, 0, err
		}
		return nil, 0, fmt.Errorf("core: rank %d invariant sanitizer: degree fingerprint %#x, yet the full pass finds no drift: a move bypassed the degree accounting", e.c.Rank(), uint64(sums[p+1]))
	}
	if total != e.m {
		return nil, 0, fmt.Errorf("core: edge count drifted: %d != %d", total, e.m)
	}
	if e.sanitize {
		if vs := e.sanitizeLocal(); len(vs) > 0 {
			return nil, 0, fmt.Errorf("core: rank %d invariant sanitizer: %s", e.c.Rank(), summarize(vs))
		}
	}
	return counts, sums[p], nil
}
