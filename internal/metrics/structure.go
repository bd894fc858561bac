package metrics

import (
	"math"

	"edgeswitch/internal/graph"
)

// Structural measurements beyond the paper's core metrics, for
// null-model studies: degree assortativity and exact triangle counts.
// Both are deterministic.

// Assortativity computes the degree assortativity coefficient (Pearson
// correlation of endpoint degrees over edges, Newman 2002). Edge
// switching drives it toward 0 — the uncorrelated configuration-model
// value — which makes it a useful dial for null-model studies. Returns 0
// for graphs where it is undefined (fewer than 2 edges or zero variance).
func Assortativity(g *graph.Graph) float64 {
	deg := g.Degrees()
	var n float64
	var sumXY, sumX, sumY, sumX2, sumY2 float64
	for _, e := range g.Edges() {
		// Each undirected edge contributes both orientations, which
		// symmetrizes the correlation.
		for _, pair := range [2][2]int{{deg[e.U], deg[e.V]}, {deg[e.V], deg[e.U]}} {
			x, y := float64(pair[0]), float64(pair[1])
			sumXY += x * y
			sumX += x
			sumY += y
			sumX2 += x * x
			sumY2 += y * y
			n++
		}
	}
	if n < 4 {
		return 0
	}
	cov := sumXY/n - (sumX/n)*(sumY/n)
	varX := sumX2/n - (sumX/n)*(sumX/n)
	varY := sumY2/n - (sumY/n)*(sumY/n)
	if varX <= 0 || varY <= 0 {
		return 0
	}
	return cov / math.Sqrt(varX*varY)
}

// Triangles counts the triangles in g exactly, using the standard
// forward/edge-iterator algorithm over the reduced adjacency lists:
// for each edge (u,v) with u < v, count common neighbours w > v. Runs in
// O(m · d_max · log d_max) worst case, fine up to millions of edges.
func Triangles(g *graph.Graph) int64 {
	var count int64
	for ui := 0; ui < g.N(); ui++ {
		u := graph.Vertex(ui)
		var higher []graph.Vertex
		g.WalkReduced(u, func(v graph.Vertex, _ bool) bool {
			higher = append(higher, v)
			return true
		})
		// For each pair v < w of u's higher neighbours, (v,w) closes a
		// triangle; test via the reduced list of v.
		for i := 0; i < len(higher); i++ {
			for j := i + 1; j < len(higher); j++ {
				if g.HasEdge(graph.Edge{U: higher[i], V: higher[j]}) {
					count++
				}
			}
		}
		higher = higher[:0]
	}
	return count
}
