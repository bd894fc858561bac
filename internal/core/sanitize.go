package core

import (
	"fmt"
	"strings"

	"edgeswitch/internal/graph"
	"edgeswitch/internal/mpi"
)

// The invariant sanitizer: the dynamic counterpart of the esvet static
// checks. Edge switching must preserve exactly three structural
// invariants — the graph stays simple (no self-loops, no parallel
// edges), the degree sequence never moves, and every edge is owned by
// exactly one partition. A violated invariant does not crash the engine;
// it silently biases every statistic computed from the shuffled graph,
// which is why checked runs re-verify the full state at every step
// boundary (enable with Config.CheckInvariants) instead of trusting the
// protocol. See Sanitize and SanitizeGraph for the standalone checkers.

// ViolationKind classifies a sanitizer finding.
type ViolationKind string

// The invariant classes the sanitizer distinguishes.
const (
	// VSelfLoop: an edge (v, v). Algorithm 1 must reject switches that
	// would create one.
	VSelfLoop ViolationKind = "self-loop"
	// VParallelEdge: the same edge stored twice.
	VParallelEdge ViolationKind = "parallel-edge"
	// VVertexRange: an endpoint outside [0, n).
	VVertexRange ViolationKind = "vertex-range"
	// VDegreeDrift: a vertex degree differing from the recorded baseline.
	VDegreeDrift ViolationKind = "degree-drift"
	// VEdgeCount: the total edge count differing from the baseline.
	VEdgeCount ViolationKind = "edge-count"
	// VOwnership: an edge held by a rank that does not own it, or an
	// unnormalized edge (which would escape ownership-by-min-endpoint).
	VOwnership ViolationKind = "ownership"
)

// Violation is one invariant breach with an actionable description.
type Violation struct {
	Kind    ViolationKind
	Message string
}

func (v Violation) String() string { return fmt.Sprintf("[%s] %s", v.Kind, v.Message) }

// maxViolations bounds how many violations a single check reports; a
// corrupted graph can breach an invariant at every vertex, and the first
// few findings are what a human acts on.
const maxViolations = 16

// Baseline is the invariant fingerprint a graph is checked against:
// vertex count, edge count and the full degree sequence, recorded before
// switching starts.
type Baseline struct {
	N       int
	M       int64
	Degrees []int64 // full (not reduced) degree per vertex
}

// NewBaseline records the invariant fingerprint of g.
func NewBaseline(g *graph.Graph) *Baseline {
	deg := g.Degrees()
	d64 := make([]int64, len(deg))
	for i, d := range deg {
		d64[i] = int64(d)
	}
	return &Baseline{N: g.N(), M: g.M(), Degrees: d64}
}

// Sanitize checks an edge multiset over n vertices against the
// simple-graph invariants and, when base is non-nil, against the
// recorded baseline. It returns every violation found (capped at
// maxViolations per kind), nil when clean. Edges may appear in either
// orientation; orientation is normalized before duplicate detection.
func Sanitize(n int, edges []graph.Edge, base *Baseline) []Violation {
	var vs violations
	seen := make(map[graph.Edge]int, len(edges))
	deg := make([]int64, n)
	for _, e := range edges {
		if e.IsLoop() {
			vs.addf(VSelfLoop, "edge (%d,%d) is a self-loop: switch rejection rules must forbid u==v", e.U, e.V)
			continue
		}
		if e.U < 0 || e.V < 0 || int(e.U) >= n || int(e.V) >= n {
			vs.addf(VVertexRange, "edge (%d,%d) has an endpoint outside [0,%d)", e.U, e.V, n)
			continue
		}
		ne := e.Norm()
		seen[ne]++
		if seen[ne] == 2 { // report once per duplicated edge
			vs.addf(VParallelEdge, "edge (%d,%d) appears more than once: a switch committed a replacement edge that already existed", ne.U, ne.V)
		}
		deg[ne.U]++
		deg[ne.V]++
	}
	if base != nil {
		checkBaseline(&vs, n, int64(len(edges)), deg, base)
	}
	return vs.list
}

// SanitizeGraph checks a *graph.Graph (internal consistency via
// CheckSimple, then the baseline comparison). The graph type's own API
// prevents loops and duplicates, so the interesting findings here are
// degree drift and edge-count drift against base.
func SanitizeGraph(g *graph.Graph, base *Baseline) []Violation {
	var vs violations
	if err := g.CheckSimple(); err != nil {
		vs.addf(VParallelEdge, "internal structure check failed: %v", err)
	}
	if base != nil {
		deg := g.Degrees()
		d64 := make([]int64, len(deg))
		for i, d := range deg {
			d64[i] = int64(d)
		}
		checkBaseline(&vs, g.N(), g.M(), d64, base)
	}
	return vs.list
}

// checkBaseline appends degree/edge-count drift violations.
func checkBaseline(vs *violations, n int, m int64, deg []int64, base *Baseline) {
	if n != base.N {
		vs.addf(VVertexRange, "vertex count %d != baseline %d", n, base.N)
		return
	}
	if m != base.M {
		vs.addf(VEdgeCount, "edge count %d != baseline %d: a switch lost or invented an edge", m, base.M)
	}
	for v := 0; v < n; v++ {
		if deg[v] != base.Degrees[v] {
			vs.addf(VDegreeDrift, "degree of vertex %d is %d, baseline %d: edge switching must preserve the degree sequence exactly", v, deg[v], base.Degrees[v])
		}
	}
}

// violations accumulates findings with a per-kind cap.
type violations struct {
	list   []Violation
	byKind map[ViolationKind]int
}

func (vs *violations) addf(kind ViolationKind, format string, args ...any) {
	if vs.byKind == nil {
		vs.byKind = make(map[ViolationKind]int)
	}
	vs.byKind[kind]++
	switch {
	case vs.byKind[kind] < maxViolations:
		vs.list = append(vs.list, Violation{Kind: kind, Message: fmt.Sprintf(format, args...)})
	case vs.byKind[kind] == maxViolations:
		vs.list = append(vs.list, Violation{Kind: kind, Message: fmt.Sprintf("further %s violations suppressed", kind)})
	}
}

// ---- engine integration (Config.CheckInvariants) ----

// localDegrees computes this rank's contribution to the global degree
// vector: each reduced edge (u,v) of the partition, stored or carried,
// adds one to both endpoints. Summing the vectors over all ranks yields
// the full degree sequence iff every edge is held exactly once.
func (e *rankEngine) localDegrees() []int64 {
	deg := make([]int64, e.n)
	for _, se := range e.carried {
		deg[e.verts[se.slot]]++
		deg[se.v]++
	}
	for li := range e.verts {
		u := e.verts[li]
		e.adj.Walk(li, func(v graph.Vertex, _ bool) bool {
			deg[u]++
			deg[v]++
			return true
		})
	}
	return deg
}

// recordBaseline captures the global degree sequence right after the
// partitions are loaded (one O(n) allreduce; all ranks enter it
// symmetrically before the first step).
func (e *rankEngine) recordBaseline() error {
	vec := append(e.localDegrees(), e.localEdges())
	glob, err := e.c.AllreduceInt64s(vec, mpi.OpSum)
	if err != nil {
		return err
	}
	if glob[e.n] != e.m {
		return fmt.Errorf("core: rank %d invariant sanitizer: loaded %d edges across ranks, expected %d", e.c.Rank(), glob[e.n], e.m)
	}
	e.baseDeg = glob[:e.n]
	return nil
}

// sanitizeLocal scans this rank's structures: simplicity (no loops, no
// duplicates, normalized order), vertex ranges, Fenwick consistency, the
// store and the carried list (only ever a bootstrap's sorted one: a
// checked boundary stores it) holding the whole partition,
// and the ownership invariant (this
// rank holds exactly the reduced lists of the vertices the partitioner
// assigns to it).
func (e *rankEngine) sanitizeLocal() []Violation {
	var vs violations
	rank := e.c.Rank()
	u, prev := graph.Vertex(-1), graph.Vertex(-1)
	entry := func(v graph.Vertex, _ bool) bool {
		switch {
		case v == u:
			vs.addf(VSelfLoop, "edge (%d,%d) is a self-loop", u, v)
		case v < u:
			vs.addf(VOwnership, "rank %d stores unnormalized entry (%d,%d): reduced adjacency must only hold neighbours > %d", rank, u, v, u)
		case int(v) >= e.n:
			vs.addf(VVertexRange, "edge (%d,%d) has an endpoint outside [0,%d)", u, v, e.n)
		case v <= prev:
			vs.addf(VParallelEdge, "adjacency of vertex %d is not strictly ascending at %d", u, v)
		}
		prev = v
		return true
	}
	for li := range e.verts {
		u, prev = e.verts[li], -1
		if owner := e.pt.Owner(u); owner != rank {
			vs.addf(VOwnership, "rank %d holds vertex %d owned by rank %d", rank, u, owner)
		}
		e.adj.Walk(li, entry)
		if int64(e.adj.Len(li)) != e.deg.Get(li) {
			vs.addf(VEdgeCount, "Fenwick degree of vertex %d is %d, adjacency holds %d", u, e.deg.Get(li), e.adj.Len(li))
		}
	}
	for _, se := range e.carried {
		if e.verts[se.slot] != u {
			u, prev = e.verts[se.slot], -1
		}
		entry(se.v, se.orig)
	}
	if e.outside != int64(len(e.carried)) {
		vs.addf(VEdgeCount, "rank %d counts %d edges outside its store, its carried list holds %d", rank, e.outside, len(e.carried))
	}
	return vs.list
}

// verifyBaseline runs the full invariant suite: the local structural
// scan plus a global degree-sequence and edge-count comparison against
// the recorded baseline (one O(n) allreduce that all ranks enter
// symmetrically). It runs at the end of the run, catching the final
// step's drift and any a mutation path bypassing noteDegree hid, and at
// any step boundary whose fingerprint or edge total is off (see
// stepsync.go), where it names the drifted vertices. It counts carried
// edges too, so it holds before round 1 of a bootstrapped curveball run.
func (e *rankEngine) verifyBaseline() error {
	vs := e.sanitizeLocal()
	vec := append(e.localDegrees(), e.localEdges())
	glob, err := e.c.AllreduceInt64s(vec, mpi.OpSum)
	if err != nil {
		return err
	}
	var vg violations
	vg.list = vs
	if glob[e.n] != e.m {
		vg.addf(VEdgeCount, "edge count %d != invariant %d: a switch lost or invented an edge", glob[e.n], e.m)
	}
	for v := 0; v < e.n; v++ {
		if glob[v] != e.baseDeg[v] {
			vg.addf(VDegreeDrift, "degree of vertex %d is %d, baseline %d", v, glob[v], e.baseDeg[v])
		}
	}
	if len(vg.list) > 0 {
		return fmt.Errorf("core: rank %d invariant sanitizer: %s", e.c.Rank(), summarize(vg.list))
	}
	return nil
}

// summarize renders a violation list for an error message, leading with
// the first few findings (what a human acts on).
func summarize(vs []Violation) string {
	if len(vs) == 0 {
		return "clean"
	}
	parts := make([]string, 0, 5)
	for i, v := range vs {
		if i == 4 {
			parts = append(parts, fmt.Sprintf("... and %d more", len(vs)-i))
			break
		}
		parts = append(parts, v.String())
	}
	return fmt.Sprintf("%d violation(s): %s", len(vs), strings.Join(parts, "; "))
}
