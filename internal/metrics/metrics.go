// Package metrics implements the graph measurements the paper's
// evaluation reports: the edge-difference error rate between two resultant
// graphs (§4.6, eqs. 6–7), average clustering coefficient and average
// shortest-path distance (Figs. 12–13; the paper itself uses approximate
// computation for path lengths), degree statistics, and load-imbalance
// summaries for the workload-distribution figures.
package metrics

import (
	"fmt"
	"math"

	"edgeswitch/internal/graph"
	"edgeswitch/internal/rng"
)

// EdgeDifference computes ED(G₁,G₂) of eq. 6: both vertex sets are cut
// into r consecutive-label blocks and the per-block-pair edge counts are
// compared, summing |n₁(Vᵢ,Vⱼ) − n₂(Vᵢ,Vⱼ)| over i ≤ j. The graphs must
// have the same vertex count.
func EdgeDifference(g1, g2 *graph.Graph, r int) (int64, error) {
	if g1.N() != g2.N() {
		return 0, fmt.Errorf("metrics: vertex counts differ (%d vs %d)", g1.N(), g2.N())
	}
	if r <= 0 {
		return 0, fmt.Errorf("metrics: r must be positive, got %d", r)
	}
	c1 := blockMatrix(g1, r)
	c2 := blockMatrix(g2, r)
	var ed int64
	for i := range c1 {
		d := c1[i] - c2[i]
		if d < 0 {
			d = -d
		}
		ed += d
	}
	return ed, nil
}

// blockMatrix counts edges per (block i ≤ block j) pair, flattened.
func blockMatrix(g *graph.Graph, r int) []int64 {
	n := g.N()
	counts := make([]int64, r*(r+1)/2)
	block := func(v graph.Vertex) int {
		b := int(int64(v) * int64(r) / int64(n))
		if b >= r {
			b = r - 1
		}
		return b
	}
	for _, e := range g.Edges() {
		i, j := block(e.U), block(e.V)
		if i > j {
			i, j = j, i
		}
		counts[i*r-i*(i-1)/2+(j-i)]++
	}
	return counts
}

// ErrorRate computes ER(G₁,G₂) of eq. 7 as a percentage:
// ED/(2m) × 100 with m the edge count of G₁.
func ErrorRate(g1, g2 *graph.Graph, r int) (float64, error) {
	ed, err := EdgeDifference(g1, g2, r)
	if err != nil {
		return 0, err
	}
	if g1.M() == 0 {
		return 0, fmt.Errorf("metrics: error rate undefined for empty graph")
	}
	return float64(ed) / (2 * float64(g1.M())) * 100, nil
}

// ClusteringCoefficient returns the average local clustering coefficient,
// exactly. Vertices of degree < 2 contribute 0, matching the NetworkX
// convention the paper's curves follow.
func ClusteringCoefficient(g *graph.Graph) float64 {
	return clustering(g, nil, nil)
}

// SampledClusteringCoefficient estimates the average local clustering
// coefficient from `samples` uniformly chosen vertices.
func SampledClusteringCoefficient(g *graph.Graph, samples int, r *rng.RNG) float64 {
	if samples >= g.N() {
		return ClusteringCoefficient(g)
	}
	seen := make(map[int]bool, samples)
	idx := make([]int, 0, samples)
	for len(idx) < samples {
		v := r.Intn(g.N())
		if !seen[v] {
			seen[v] = true
			idx = append(idx, v)
		}
	}
	return clustering(g, idx, nil)
}

// clustering averages the local coefficient over the given vertex indices
// (all vertices when idx is nil). full may carry a precomputed adjacency.
func clustering(g *graph.Graph, idx []int, full [][]graph.Vertex) float64 {
	if full == nil {
		full = g.FullAdjacency()
	}
	if idx == nil {
		idx = make([]int, g.N())
		for i := range idx {
			idx[i] = i
		}
	}
	if len(idx) == 0 {
		return 0
	}
	var sum float64
	for _, u := range idx {
		nb := full[u]
		d := len(nb)
		if d < 2 {
			continue
		}
		links := 0
		for i := 0; i < d; i++ {
			for j := i + 1; j < d; j++ {
				if g.HasEdge(graph.Edge{U: nb[i], V: nb[j]}) {
					links++
				}
			}
		}
		sum += 2 * float64(links) / (float64(d) * float64(d-1))
	}
	return sum / float64(len(idx))
}

// AvgShortestPath estimates the average shortest-path distance by running
// BFS from `sources` uniformly chosen vertices and averaging distances to
// all reached vertices. Unreachable pairs are excluded (the paper's
// graphs are essentially one giant component). Matches the paper's use of
// approximate computation for this metric.
func AvgShortestPath(g *graph.Graph, sources int, r *rng.RNG) float64 {
	n := g.N()
	if n == 0 {
		return 0
	}
	if sources > n {
		sources = n
	}
	full := g.FullAdjacency()
	dist := make([]int32, n)
	queue := make([]graph.Vertex, 0, n)
	var totalDist, pairs float64
	for s := 0; s < sources; s++ {
		src := graph.Vertex(r.Intn(n))
		for i := range dist {
			dist[i] = -1
		}
		dist[src] = 0
		queue = append(queue[:0], src)
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, v := range full[u] {
				if dist[v] < 0 {
					dist[v] = dist[u] + 1
					totalDist += float64(dist[v])
					pairs++
					queue = append(queue, v)
				}
			}
		}
	}
	if pairs == 0 {
		return 0
	}
	return totalDist / pairs
}

// AbortRates converts per-rank restart and completed-operation counts
// into per-rank abort rates restarts/(restarts+ops) — the fraction of a
// rank's selections that were rejected and retried.
// Result.RankRestarts/RankOps provide the inputs. Ranks that did nothing
// report 0.
func AbortRates(restarts, ops []int64) []float64 {
	out := make([]float64, len(restarts))
	for i := range restarts {
		var o int64
		if i < len(ops) {
			o = ops[i]
		}
		if total := restarts[i] + o; total > 0 {
			out[i] = float64(restarts[i]) / float64(total)
		}
	}
	return out
}

// Imbalance summarizes how evenly a per-rank load vector is spread:
// max/mean (1.0 = perfectly balanced) and the coefficient of variation.
type Imbalance struct {
	MaxOverMean float64
	CV          float64
}

// LoadImbalance computes the imbalance of the given per-rank loads.
func LoadImbalance(loads []int64) Imbalance {
	if len(loads) == 0 {
		return Imbalance{}
	}
	var sum, mx float64
	for _, l := range loads {
		v := float64(l)
		sum += v
		if v > mx {
			mx = v
		}
	}
	mean := sum / float64(len(loads))
	if mean == 0 {
		return Imbalance{MaxOverMean: 1, CV: 0}
	}
	var varSum float64
	for _, l := range loads {
		d := float64(l) - mean
		varSum += d * d
	}
	return Imbalance{
		MaxOverMean: mx / mean,
		CV:          math.Sqrt(varSum/float64(len(loads))) / mean,
	}
}
