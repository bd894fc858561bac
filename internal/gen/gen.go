// Package gen generates the input graphs of the paper's evaluation
// (Table 2). The random models — Erdős–Rényi, Watts–Strogatz small world,
// preferential attachment — follow the cited constructions directly. The
// proprietary datasets (the Miami/New York/Los Angeles synthetic contact
// networks and the Flickr/LiveJournal crawls) are replaced by synthetic
// stand-ins that reproduce the structural properties the evaluation
// depends on: high clustering with label-community correlation for the
// contact networks, and heavy-tailed degrees with triadic clustering for
// the online social networks (see DESIGN.md §2).
//
// All generators produce simple graphs (no loops or parallel edges) and
// are deterministic functions of the supplied RNG.
package gen

import (
	"fmt"
	"sort"

	"edgeswitch/internal/graph"
	"edgeswitch/internal/rng"
)

// ErdosRenyi samples G(n, m): m distinct edges chosen uniformly among the
// n(n-1)/2 possible. It fails if m exceeds the number of possible edges.
func ErdosRenyi(r *rng.RNG, n int, m int64) (*graph.Graph, error) {
	if n < 0 {
		return nil, fmt.Errorf("gen: negative n")
	}
	maxM := int64(n) * int64(n-1) / 2
	if m > maxM {
		return nil, fmt.Errorf("gen: m=%d exceeds max %d for n=%d", m, maxM, n)
	}
	g := graph.New(n)
	for g.M() < m {
		u := graph.Vertex(r.Intn(n))
		v := graph.Vertex(r.Intn(n))
		if u == v {
			continue
		}
		g.AddEdge(graph.Edge{U: u, V: v}, r) // duplicate adds are no-ops
	}
	return g, nil
}

// SmallWorld builds a Watts–Strogatz graph: a ring lattice where each
// vertex connects to its k/2 nearest neighbours on each side, with every
// edge rewired to a uniform random endpoint with probability beta
// (rewirings that would create loops or parallel edges are skipped, as in
// the standard construction). k must be even and < n.
func SmallWorld(r *rng.RNG, n, k int, beta float64) (*graph.Graph, error) {
	if k%2 != 0 || k < 0 || k >= n {
		return nil, fmt.Errorf("gen: SmallWorld requires even k in [0, n), got k=%d n=%d", k, n)
	}
	if beta < 0 || beta > 1 {
		return nil, fmt.Errorf("gen: SmallWorld beta %v out of [0,1]", beta)
	}
	g := graph.New(n)
	for u := 0; u < n; u++ {
		for j := 1; j <= k/2; j++ {
			g.AddEdge(graph.Edge{U: graph.Vertex(u), V: graph.Vertex((u + j) % n)}, r)
		}
	}
	// Rewire pass.
	for u := 0; u < n; u++ {
		for j := 1; j <= k/2; j++ {
			if r.Float64() >= beta {
				continue
			}
			oldV := graph.Vertex((u + j) % n)
			old := graph.Edge{U: graph.Vertex(u), V: oldV}
			if !g.HasEdge(old) {
				continue // already rewired away by the other endpoint
			}
			// A few attempts to find a valid new endpoint; skip on failure.
			for attempt := 0; attempt < 16; attempt++ {
				w := graph.Vertex(r.Intn(n))
				cand := graph.Edge{U: graph.Vertex(u), V: w}
				if cand.IsLoop() || g.HasEdge(cand) {
					continue
				}
				g.RemoveEdge(old)
				g.AddEdge(cand, r)
				break
			}
		}
	}
	return g, nil
}

// PrefAttachment builds a Barabási–Albert preferential-attachment graph:
// starting from a (d+1)-clique, each new vertex attaches to d distinct
// existing vertices chosen proportionally to degree. Average degree
// approaches 2d. It requires n > d >= 1.
func PrefAttachment(r *rng.RNG, n, d int) (*graph.Graph, error) {
	return prefAttachment(r, n, d, 0)
}

// HolmeKim builds a preferential-attachment graph with triad formation:
// after each preferential attachment, with probability pt the next link
// of the same new vertex closes a triangle with a random neighbour of the
// previous target (Holme & Kim 2002). This keeps the heavy-tailed degree
// distribution of PA while adding the clustering that online social
// networks such as Flickr and LiveJournal exhibit.
func HolmeKim(r *rng.RNG, n, d int, pt float64) (*graph.Graph, error) {
	if pt < 0 || pt > 1 {
		return nil, fmt.Errorf("gen: HolmeKim pt %v out of [0,1]", pt)
	}
	return prefAttachment(r, n, d, pt)
}

func prefAttachment(r *rng.RNG, n, d int, pt float64) (*graph.Graph, error) {
	if d < 1 || n <= d {
		return nil, fmt.Errorf("gen: preferential attachment requires n > d >= 1, got n=%d d=%d", n, d)
	}
	g := graph.New(n)
	// targets holds one entry per edge endpoint; sampling uniformly from
	// it is sampling vertices proportionally to degree. nbrs mirrors the
	// full adjacency so triad formation can draw a uniform neighbour in
	// O(1) (the reduced lists in g cannot answer that cheaply).
	targets := make([]graph.Vertex, 0, 2*int64(n)*int64(d))
	nbrs := make([][]graph.Vertex, n)
	link := func(u, v graph.Vertex) {
		g.AddEdge(graph.Edge{U: u, V: v}, r)
		targets = append(targets, u, v)
		nbrs[u] = append(nbrs[u], v)
		nbrs[v] = append(nbrs[v], u)
	}
	seed := d + 1
	for u := 0; u < seed; u++ {
		for v := u + 1; v < seed; v++ {
			link(graph.Vertex(u), graph.Vertex(v))
		}
	}
	for u := seed; u < n; u++ {
		added := 0
		var prev graph.Vertex = -1
		for added < d {
			var w graph.Vertex = -1
			if prev >= 0 && pt > 0 && r.Float64() < pt {
				// Triad formation: a uniform neighbour of prev.
				if nb := nbrs[prev]; len(nb) > 0 {
					w = nb[r.Intn(len(nb))]
				}
			}
			if w < 0 {
				w = targets[r.Intn(len(targets))]
			}
			e := graph.Edge{U: graph.Vertex(u), V: w}
			if e.IsLoop() || g.HasEdge(e) {
				prev = -1 // fall back to pure PA next draw
				continue
			}
			link(graph.Vertex(u), w)
			added++
			prev = w
		}
	}
	return g, nil
}

// ContactConfig parameterises the synthetic social-contact network used
// as the Miami/New York/Los Angeles stand-in.
type ContactConfig struct {
	N             int     // number of vertices (people)
	AvgDegree     float64 // target average degree (Table 2: ~50-58)
	CommunitySize int     // mean community (household/location) size
	WithinFrac    float64 // fraction of edge endpoints kept inside the community
}

// Contact builds a community-structured contact network: vertices are
// grouped into consecutive-label communities (sizes uniform in
// [CommunitySize/2, 3·CommunitySize/2]); each vertex receives
// AvgDegree/2 edge slots, a WithinFrac share of which connect inside the
// community and the rest to uniform random vertices. Consecutive labels
// within communities give the graph the high clustering and
// label-locality that make CP partitioning develop workload skew on the
// Miami graph (§5.2).
func Contact(r *rng.RNG, cfg ContactConfig) (*graph.Graph, error) {
	if cfg.N <= 2 {
		return nil, fmt.Errorf("gen: Contact needs N > 2, got %d", cfg.N)
	}
	if cfg.AvgDegree <= 0 || cfg.AvgDegree >= float64(cfg.N-1) {
		return nil, fmt.Errorf("gen: Contact average degree %v infeasible for N=%d", cfg.AvgDegree, cfg.N)
	}
	if cfg.CommunitySize < 2 {
		return nil, fmt.Errorf("gen: Contact community size must be >= 2")
	}
	if cfg.WithinFrac < 0 || cfg.WithinFrac > 1 {
		return nil, fmt.Errorf("gen: Contact WithinFrac %v out of [0,1]", cfg.WithinFrac)
	}
	g := graph.New(cfg.N)
	// Carve communities of consecutive labels.
	type comm struct{ lo, hi int } // [lo, hi)
	var comms []comm
	for lo := 0; lo < cfg.N; {
		sz := cfg.CommunitySize/2 + r.Intn(cfg.CommunitySize+1)
		if sz < 2 {
			sz = 2
		}
		hi := lo + sz
		if hi > cfg.N {
			hi = cfg.N
		}
		comms = append(comms, comm{lo, hi})
		lo = hi
	}
	commOf := make([]int, cfg.N)
	for ci, c := range comms {
		for v := c.lo; v < c.hi; v++ {
			commOf[v] = ci
		}
	}
	targetM := int64(cfg.AvgDegree * float64(cfg.N) / 2)
	// Capacity of the intra-community edge space; if the budget nears it
	// the loop below bails out and the remainder becomes cross edges.
	var withinCapacity int64
	for _, c := range comms {
		sz := int64(c.hi - c.lo)
		withinCapacity += sz * (sz - 1) / 2
	}
	// Within-community edges first: dense random pairs inside each
	// community, budgeted by WithinFrac.
	withinBudget := int64(float64(targetM) * cfg.WithinFrac)
	for g.M() < withinBudget && g.M()*5 < withinCapacity*4 {
		c := comms[r.Intn(len(comms))]
		sz := c.hi - c.lo
		if sz < 2 {
			continue
		}
		u := graph.Vertex(c.lo + r.Intn(sz))
		v := graph.Vertex(c.lo + r.Intn(sz))
		if u == v {
			continue
		}
		g.AddEdge(graph.Edge{U: u, V: v}, r)
	}
	// Cross edges fill the remainder. The community-distinctness filter
	// is dropped when there is a single community (tiny configurations).
	requireCross := len(comms) > 1
	attempts := int64(0)
	maxAttempts := 200*targetM + 1000
	for g.M() < targetM {
		if attempts++; attempts > maxAttempts {
			return nil, fmt.Errorf("gen: Contact could not place %d edges (placed %d); configuration too dense", targetM, g.M())
		}
		u := graph.Vertex(r.Intn(cfg.N))
		v := graph.Vertex(r.Intn(cfg.N))
		if u == v || (requireCross && commOf[u] == commOf[v]) {
			continue
		}
		g.AddEdge(graph.Edge{U: u, V: v}, r)
	}
	return g, nil
}

// RMAT samples m distinct edges from the recursive-matrix (R-MAT /
// Kronecker-like) distribution on 2^scale vertices: each edge descends
// the adjacency matrix quadrants with probabilities (a, b, c, d),
// a+b+c+d=1. The standard Graph500-style parameters (0.57, 0.19, 0.19,
// 0.05) give skewed, community-free power-law-ish graphs common in HPC
// graph benchmarking. Loops and duplicates are resampled.
func RMAT(r *rng.RNG, scale int, m int64, a, b, c float64) (*graph.Graph, error) {
	if scale < 1 || scale > 30 {
		return nil, fmt.Errorf("gen: RMAT scale %d out of [1,30]", scale)
	}
	d := 1 - a - b - c
	if a < 0 || b < 0 || c < 0 || d < -1e-12 {
		return nil, fmt.Errorf("gen: RMAT probabilities (%v,%v,%v) invalid", a, b, c)
	}
	n := 1 << scale
	maxM := int64(n) * int64(n-1) / 2
	if m > maxM {
		return nil, fmt.Errorf("gen: m=%d exceeds max %d for scale %d", m, maxM, scale)
	}
	g := graph.New(n)
	attempts := int64(0)
	maxAttempts := 100*m + 1000
	for g.M() < m {
		if attempts++; attempts > maxAttempts {
			return nil, fmt.Errorf("gen: RMAT could not place %d edges (placed %d)", m, g.M())
		}
		var u, v int
		for level := 0; level < scale; level++ {
			x := r.Float64()
			switch {
			case x < a: // top-left
			case x < a+b: // top-right
				v |= 1 << level
			case x < a+b+c: // bottom-left
				u |= 1 << level
			default: // bottom-right
				u |= 1 << level
				v |= 1 << level
			}
		}
		e := graph.Edge{U: graph.Vertex(u), V: graph.Vertex(v)}
		if e.IsLoop() {
			continue
		}
		g.AddEdge(e, r)
	}
	return g, nil
}

// IsGraphical applies the Erdős–Gallai criterion to decide whether a
// degree sequence can be realized by a simple graph.
func IsGraphical(degrees []int) bool {
	ds := append([]int(nil), degrees...)
	sort.Sort(sort.Reverse(sort.IntSlice(ds)))
	var sum int64
	for _, d := range ds {
		if d < 0 || d >= len(ds) {
			return false
		}
		sum += int64(d)
	}
	if sum%2 != 0 {
		return false
	}
	// Prefix sums for the right-hand side of the inequality.
	var lhs int64
	for k := 1; k <= len(ds); k++ {
		lhs += int64(ds[k-1])
		rhs := int64(k) * int64(k-1)
		for _, d := range ds[k:] {
			if d < k {
				rhs += int64(d)
			} else {
				rhs += int64(k)
			}
		}
		if lhs > rhs {
			return false
		}
	}
	return true
}

// HavelHakimi constructs a simple graph realizing the degree sequence, or
// fails if the sequence is not graphical. Vertex i receives degrees[i].
// This is the deterministic construction edge switching is paired with to
// generate *random* graphs with a given degree sequence (§1).
func HavelHakimi(r *rng.RNG, degrees []int) (*graph.Graph, error) {
	n := len(degrees)
	g := graph.New(n)
	type vd struct {
		v graph.Vertex
		d int
	}
	rem := make([]vd, n)
	for i, d := range degrees {
		if d < 0 || d >= n {
			return nil, fmt.Errorf("gen: degree %d of vertex %d out of range", d, i)
		}
		rem[i] = vd{graph.Vertex(i), d}
	}
	for {
		// Select the vertex with the largest remaining degree.
		sort.Slice(rem, func(i, j int) bool { return rem[i].d > rem[j].d })
		if rem[0].d == 0 {
			break
		}
		head := rem[0]
		rem = rem[1:]
		if head.d > len(rem) {
			return nil, fmt.Errorf("gen: degree sequence not graphical")
		}
		for i := 0; i < head.d; i++ {
			if rem[i].d == 0 {
				return nil, fmt.Errorf("gen: degree sequence not graphical")
			}
			g.AddEdge(graph.Edge{U: head.v, V: rem[i].v}, r)
			rem[i].d--
		}
	}
	return g, nil
}

// AdversarialRelabel returns a copy of g with vertex labels permuted so
// that under HP-D with p ranks the hot rank owns the n/p highest-degree
// vertices: those vertices receive labels ≡ hotRank (mod p). This is the
// worst-case construction of §5.2 (Figs. 21–22).
func AdversarialRelabel(r *rng.RNG, g *graph.Graph, p, hotRank int) (*graph.Graph, error) {
	if p <= 1 || hotRank < 0 || hotRank >= p {
		return nil, fmt.Errorf("gen: bad AdversarialRelabel params p=%d hotRank=%d", p, hotRank)
	}
	n := g.N()
	deg := g.Degrees()
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool { return deg[order[i]] > deg[order[j]] })

	// Labels owned by the hot rank, ascending: hotRank, hotRank+p, ...
	newLabel := make([]graph.Vertex, n)
	hot := make([]graph.Vertex, 0, n/p+1)
	rest := make([]graph.Vertex, 0, n)
	for l := 0; l < n; l++ {
		if l%p == hotRank {
			hot = append(hot, graph.Vertex(l))
		} else {
			rest = append(rest, graph.Vertex(l))
		}
	}
	for i, old := range order {
		if i < len(hot) {
			newLabel[old] = hot[i]
		} else {
			newLabel[old] = rest[i-len(hot)]
		}
	}
	edges := g.Edges()
	out := make([]graph.Edge, len(edges))
	for i, e := range edges {
		out[i] = graph.Edge{U: newLabel[e.U], V: newLabel[e.V]}
	}
	return graph.FromEdges(n, out, r)
}

// ShuffleLabels returns a copy of g with labels permuted uniformly at
// random — used to decouple labels from structure.
func ShuffleLabels(r *rng.RNG, g *graph.Graph) (*graph.Graph, error) {
	perm := r.Perm(g.N())
	edges := g.Edges()
	out := make([]graph.Edge, len(edges))
	for i, e := range edges {
		out[i] = graph.Edge{U: graph.Vertex(perm[e.U]), V: graph.Vertex(perm[e.V])}
	}
	return graph.FromEdges(g.N(), out, r)
}
