package pergen

import (
	"edgeswitch/internal/graph"
	"edgeswitch/internal/rng"
)

// Preferential attachment by recomputation. The sequential generator
// (gen.PrefAttachment) keeps a flat array of edge endpoints and draws
// each new target uniformly from it — a uniform position in the array
// IS a vertex drawn proportionally to its current degree. The
// recomputation trick replaces the array read with a deterministic
// re-derivation: position r belongs to edge e = r/2, whose even entry
// is the edge's deterministic "source" vertex (the clique pair, or the
// vertex whose attachment created the edge) and whose odd entry is that
// edge's own target draw — recomputed from the counter stream and
// chased recursively. Every chase strictly decreases the edge index and
// terminates on a deterministic entry with probability 1/2 per step, so
// the expected chain length is below 2 hashes.
//
// The raw process above is the Batagelj–Brandes multigraph; this
// library needs simple graphs. Simplification is local to each new
// vertex: all edges that could collide share their maximum endpoint (a
// new vertex's d slots), so slot targets are resolved in order and a
// slot whose target is the vertex itself or a previous slot's final
// target redraws from a dedicated retry stream. Chains always resolve
// through raw (attempt-0) draws — the retry outcomes of other vertices
// are never needed — which keeps resolution O(1) and communication-free
// while the per-vertex dedup stays a pure function of the seed.
type paGen struct {
	n, d  int
	s     int   // clique size d+1
	mc    int64 // clique edge count s(s-1)/2
	slots rng.Stream
	retry rng.Stream

	clique []graph.Edge   // pair table for the deterministic clique entries
	tbuf   []graph.Vertex // reusable per-vertex target scratch
}

func newPAGen(sp Spec) *paGen {
	s := sp.D + 1
	p := &paGen{
		n:     sp.N,
		d:     sp.D,
		s:     s,
		mc:    int64(s) * int64(s-1) / 2,
		slots: rng.NewStream(sp.Seed, streamPASlot),
		retry: rng.NewStream(sp.Seed, streamPARetry),
		tbuf:  make([]graph.Vertex, 0, sp.D),
	}
	p.clique = make([]graph.Edge, 0, p.mc)
	for u := 0; u < s; u++ {
		for v := u + 1; v < s; v++ {
			p.clique = append(p.clique, graph.Edge{U: graph.Vertex(u), V: graph.Vertex(v)})
		}
	}
	return p
}

// genVertex returns the deterministic even entry of edge e: the vertex
// whose attachment created it (e >= mc).
func (p *paGen) genVertex(e int64) graph.Vertex {
	return graph.Vertex(int64(p.s) + (e-p.mc)/int64(p.d))
}

// resolvePos resolves the vertex stored at position r of the conceptual
// flat edge array, by recomputation only. It is the pergen inner loop:
// one expected-O(1) chain per edge of the graph.
func (p *paGen) resolvePos(r uint64) graph.Vertex {
	for {
		e := int64(r >> 1)
		if e < p.mc {
			if r&1 == 0 {
				return p.clique[e].U
			}
			return p.clique[e].V
		}
		if r&1 == 0 {
			return p.genVertex(e)
		}
		// Odd: the target of edge e — recompute e's own raw draw. e < r/2
		// strictly decreases, so the chase terminates.
		r = p.slots.Uint64nAt(uint64(e), uint64(2*e))
	}
}

// vertexTargets resolves the final (simplified) targets of vertex v's d
// slots into the reusable scratch buffer. Dropped slots (attempt budget
// exhausted) simply do not appear.
func (p *paGen) vertexTargets(v int64) []graph.Vertex {
	out := p.tbuf[:0]
	k0 := p.mc + (v-int64(p.s))*int64(p.d)
	for j := 0; j < p.d; j++ {
		k := k0 + int64(j)
		t := p.resolvePos(p.slots.Uint64nAt(uint64(k), uint64(2*k)))
		for a := 1; p.conflicts(t, graph.Vertex(v), out); a++ {
			if a > maxResolveAttempts {
				t = -1 // drop the slot
				break
			}
			t = p.resolvePos(p.retry.Uint64nAt(uint64(k)<<6|uint64(a), uint64(2*k)))
		}
		if t >= 0 {
			out = append(out, t)
		}
	}
	p.tbuf = out[:0]
	return out
}

// conflicts reports whether target t would create a self-loop or a
// parallel edge among v's already-resolved slots.
func (p *paGen) conflicts(t, v graph.Vertex, prev []graph.Vertex) bool {
	if t == v {
		return true
	}
	for _, w := range prev {
		if w == t {
			return true
		}
	}
	return false
}

// shareBound returns the first attaching vertex of share r of parts:
// the vertex whose first slot is the first at or past slot r·K/parts, K
// the total slot count (clique pairs, then d slots per attaching vertex).
// Every share therefore holds K/parts slots to within d, and share 0 also
// holds the clique.
func (p *paGen) shareBound(r, parts int) int64 {
	k := p.mc + (int64(p.n)-int64(p.s))*int64(p.d)
	off := k*int64(r)/int64(parts) - p.mc
	if off <= 0 {
		return int64(p.s)
	}
	return min(int64(p.s)+(off+int64(p.d)-1)/int64(p.d), int64(p.n))
}

// share enumerates share r of parts: the clique when r = 0, then every
// slot of the attaching vertices [shareBound(r), shareBound(r+1)) in
// vertex order. All emitted edges are normalized (targets are strictly
// older — smaller — than their generating vertex) and, thanks to the
// per-vertex dedup, distinct.
func (p *paGen) share(r, parts int, fn func(graph.Edge)) {
	if r == 0 {
		for _, e := range p.clique {
			fn(e)
		}
	}
	for v, hi := p.shareBound(r, parts), p.shareBound(r+1, parts); v < hi; v++ {
		for _, t := range p.vertexTargets(v) {
			fn(graph.Edge{U: t, V: graph.Vertex(v)})
		}
	}
}
