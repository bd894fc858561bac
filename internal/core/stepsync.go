package core

import (
	"encoding/binary"
	"fmt"
	"sort"

	"edgeswitch/internal/graph"
	"edgeswitch/internal/mpi"
)

// The fused step-boundary exchange: every step boundary needs the
// per-rank edge counts (to rebuild the partner-selection prefix sums),
// the global count of edges still flagged original (for the exact visit
// rate that drives Config.TargetVisitRate and Result.VisitRate), and —
// in sanitized runs — a degree-conservation check. Those used to be
// separate collectives, the last a full O(n) degree-vector allreduce
// that dominated checked runs on large vertex sets. They are now one
// collective. Unchecked runs sum a (p+1)-vector — the rank's edge count
// at index rank, its originals count at index p — with AllreduceInt64s,
// whose butterfly takes one round at p = 2 where an allgather's gather
// and broadcast take two. Sanitized runs allgather a payload carrying the
// edge count, the local originals count, and a sparse delta vector: only
// the vertices whose local degree changed since the previous exchange,
// O(ops) entries instead of O(n). A valid randomization move relocates
// degree between ranks but never creates or destroys it — edge switches
// move two endpoints, curveball trades reassign whole adjacency entries
// between the paired vertices — so the deltas must cancel exactly when
// summed across ranks. This is what makes the check algorithm-agnostic:
// it asserts conservation of the degree sequence, not any particular
// mutation shape, and every randomizer feeds it through the same
// takeLocal/insertLocal/drainLocal accounting.
//
// Sanitized payload layout:
// edges int64 | originals int64 | k uint32 | k × (vertex uint32, delta int32).
// Deltas are sorted by vertex so the payload is deterministic.

// noteDegree accumulates a local degree change of d on both endpoints
// for the sparse sanitizer delta; a no-op in unchecked runs.
func (e *rankEngine) noteDegree(ed graph.Edge, d int32) {
	if !e.sanitize {
		return
	}
	e.degDelta[ed.U] += d
	e.degDelta[ed.V] += d
}

// stepExchange is the single collective a step boundary costs. It
// returns the per-rank edge counts for the randomizer's prepare and the
// global number of edges still flagged original. In sanitized runs it
// also runs the local structural scan and verifies that the gathered
// degree deltas cancel; any violation is reported with the same
// actionable formatting as the full sanitizer. Deltas for the final
// step are covered by verifyBaseline at the end of the run. Unchecked
// runs never populate e.degDelta (see noteDegree), so they exchange the
// two counts alone.
func (e *rankEngine) stepExchange() ([]int64, int64, error) {
	if e.sanitize {
		return e.stepExchangeChecked()
	}
	p := e.c.Size()
	vec := make([]int64, p+1)
	vec[e.c.Rank()], vec[p] = e.deg.Total(), e.origLocal
	sums, err := e.c.AllreduceInt64s(vec, mpi.OpSum)
	if err != nil {
		return nil, 0, err
	}
	counts := sums[:p]
	var total int64
	for _, cnt := range counts {
		total += cnt
	}
	if total != e.m {
		return nil, 0, fmt.Errorf("core: edge count drifted: %d != %d", total, e.m)
	}
	return counts, sums[p], nil
}

// stepExchangeChecked is the sanitized boundary exchange: payloads carry
// the sparse degree deltas and the ranks verify they cancel exactly.
func (e *rankEngine) stepExchangeChecked() ([]int64, int64, error) {
	// The deltas describe only the steps since the previous boundary;
	// once encoded and gathered they are consumed, violation or not — a
	// caller retrying after an error must not double-count them.
	defer clear(e.degDelta)
	parts, err := e.c.Allgather(e.encodeStepDeltas())
	if err != nil {
		return nil, 0, err
	}
	vg := violations{list: e.sanitizeLocal()}
	counts := make([]int64, len(parts))
	var total, origs int64
	drift := make(map[graph.Vertex]int64)
	for rank, pb := range parts {
		cnt, org, deltas, err := decodeStepLocal(pb)
		if err != nil {
			return nil, 0, fmt.Errorf("core: rank %d step exchange: bad payload from rank %d: %w", e.c.Rank(), rank, err)
		}
		counts[rank] = cnt
		total += cnt
		origs += org
		for _, d := range deltas {
			drift[d.v] += int64(d.d)
		}
	}
	if total != e.m {
		vg.addf(VEdgeCount, "edge count %d != invariant %d: a switch lost or invented an edge", total, e.m)
	}
	if len(drift) > 0 {
		vs := make([]graph.Vertex, 0, len(drift))
		for v, d := range drift {
			if d != 0 {
				vs = append(vs, v)
			}
		}
		sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
		for _, v := range vs {
			vg.addf(VDegreeDrift, "degree of vertex %d drifted by %+d across ranks: edge switching must preserve the degree sequence exactly", v, drift[v])
		}
	}
	if len(vg.list) > 0 {
		return nil, 0, fmt.Errorf("core: rank %d invariant sanitizer: %s", e.c.Rank(), summarize(vg.list))
	}
	return counts, origs, nil
}

// encodeStepDeltas serializes a sanitized rank's contribution to the
// exchange: its edge count, its originals count, and every accumulated
// nonzero degree delta.
func (e *rankEngine) encodeStepDeltas() []byte {
	touched := make([]graph.Vertex, 0, len(e.degDelta))
	for v, d := range e.degDelta {
		if d != 0 {
			touched = append(touched, v)
		}
	}
	sort.Slice(touched, func(i, j int) bool { return touched[i] < touched[j] })
	buf := make([]byte, 20+8*len(touched))
	binary.LittleEndian.PutUint64(buf[0:], uint64(e.deg.Total()))
	binary.LittleEndian.PutUint64(buf[8:], uint64(e.origLocal))
	binary.LittleEndian.PutUint32(buf[16:], uint32(len(touched)))
	off := 20
	for _, v := range touched {
		binary.LittleEndian.PutUint32(buf[off:], uint32(v))
		binary.LittleEndian.PutUint32(buf[off+4:], uint32(e.degDelta[v]))
		off += 8
	}
	return buf
}

// vertexDelta is one decoded sparse degree delta.
type vertexDelta struct {
	v graph.Vertex
	d int32
}

func decodeStepLocal(pb []byte) (int64, int64, []vertexDelta, error) {
	if len(pb) < 20 {
		return 0, 0, nil, fmt.Errorf("truncated step payload (%d bytes)", len(pb))
	}
	cnt := int64(binary.LittleEndian.Uint64(pb[0:]))
	origs := int64(binary.LittleEndian.Uint64(pb[8:]))
	k := int(binary.LittleEndian.Uint32(pb[16:]))
	if len(pb) != 20+8*k {
		return 0, 0, nil, fmt.Errorf("step payload length %d does not match %d deltas", len(pb), k)
	}
	if k == 0 {
		return cnt, origs, nil, nil
	}
	deltas := make([]vertexDelta, k)
	for i := range deltas {
		off := 20 + 8*i
		deltas[i] = vertexDelta{
			v: graph.Vertex(binary.LittleEndian.Uint32(pb[off:])),
			d: int32(binary.LittleEndian.Uint32(pb[off+4:])),
		}
	}
	return cnt, origs, deltas, nil
}
