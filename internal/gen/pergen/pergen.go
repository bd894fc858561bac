// Package pergen implements parallel graph generation by recomputation
// (Sanders & Schulz, arXiv:1602.07106): no rank needs another's draws,
// and a contact share needs one scalar sum across the ranks.
//
// The sequential generators in internal/gen materialize the whole graph
// on one rank, which is then scattered to peers — so bootstrap time and
// rank-0 memory, not the switching engine, bound the job sizes the
// system can reach. pergen removes both: every random choice a
// generator makes is re-expressed as a pure function of a counter-based
// RNG stream (rng.Stream), so the step "read a previously generated
// value" becomes "recompute it from its counter". With that, any rank
// can resolve any edge of the graph in O(1) expected hash work: p ranks
// split the enumeration into p shares (ShareEdges) and generate the
// graph once between them, with no rank-0 build and no scatter. The
// contact model's cross-slot count depends on how many within-community
// pairs were accepted, so its shares sum their within counts once (one
// scalar allreduce) before they resolve their cross slots.
//
// Two generators are ported: preferential attachment (the recomputation
// trick proper: an endpoint drawn "proportional to degree" is a uniform
// position in the flat edge array, resolved by chasing recomputed draws
// until a deterministic entry is hit — expected chain length below 2)
// and the contact/community generator (communities are derived from the
// shared seed by every rank; within-community pairs become independent
// Bernoulli draws, cross-community slots resolve endpoints directly).
//
// The resulting graph is a pure function of Spec — in particular it is
// p-invariant: byte-identical for a given seed regardless of how many
// ranks generate it, which partitioning scheme routes ownership, or
// whether Full materializes it in one piece. Tests pin this at
// p = 1, 2, 8 across all partition schemes.
//
// Cost model: ownership of an edge follows its minimum endpoint (the
// engine's reduced-adjacency invariant), and for both models the
// minimum endpoint is only known after resolving the hash chain, so a
// share's edges have owners on every rank. The engine's bootstrap
// (internal/core) enumerates one share per rank and routes each edge to
// its owner: O(m/p) hashes per rank plus one exchange (and, for contact,
// one scalar allreduce). PartitionEdges and ReducedDegrees are the
// exchange-free alternative, which every rank pays with a scan of all m
// edges; cmd/esbench's pergen kernels time them.
package pergen

import (
	"fmt"

	"edgeswitch/internal/gen"
	"edgeswitch/internal/graph"
	"edgeswitch/internal/partition"
	"edgeswitch/internal/rng"
)

// Model names a pergen-capable generator.
type Model string

// The generators ported to counter-based recomputation.
const (
	// ModelPA is Barabási–Albert preferential attachment (the
	// counter-based counterpart of gen.PrefAttachment).
	ModelPA Model = "pa"
	// ModelContact is the community-structured contact network (the
	// counter-based counterpart of gen.Contact).
	ModelContact Model = "contact"
)

// Stream ids of the counter streams a Spec consumes; fixed constants so
// the generated graph is a stable function of (Model, params, Seed).
// Every stream is keyed by Spec.Seed, and no counter is ever reused
// within a stream.
const (
	streamPASlot  = 1 // PA slot draws: counter = global edge index
	streamPARetry = 2 // PA dedup retries: counter = edge index << 6 | attempt
	streamComm    = 3 // contact community sizes: counter = community index
	streamWithin  = 4 // contact within-pair Bernoulli: counter = global pair index
	streamCross   = 5 // contact cross endpoints: counter = slot << 6 | 2·attempt (+1)
	streamPrio    = 6 // treap priorities for locally built graphs
)

// maxResolveAttempts bounds the deterministic retry loops (PA slot
// dedup, contact cross-pair validity). Attempt counters share the low 6
// bits of a retry stream counter, so the bound must stay below 64. A
// slot that exhausts its attempts is dropped — a deterministic,
// p-invariant event with negligible probability on non-degenerate
// parameters.
const maxResolveAttempts = 62

// Spec describes one deterministically generated graph. The zero value
// is invalid; construct, then Validate (New validates).
type Spec struct {
	// Model selects the generator.
	Model Model
	// Seed keys every counter stream. The same Spec always denotes the
	// same graph.
	Seed uint64
	// N is the vertex count (both models).
	N int
	// D is preferential attachment's edges-per-vertex (ModelPA).
	D int
	// Contact parameterises ModelContact; its N field is ignored in
	// favour of Spec.N.
	Contact gen.ContactConfig
}

// Validate checks the parameters the same way the sequential
// generators do.
func (sp Spec) Validate() error {
	switch sp.Model {
	case ModelPA:
		if sp.D < 1 || sp.N <= sp.D {
			return fmt.Errorf("pergen: preferential attachment requires n > d >= 1, got n=%d d=%d", sp.N, sp.D)
		}
	case ModelContact:
		cc := sp.contactConfig()
		if cc.N <= 2 {
			return fmt.Errorf("pergen: Contact needs N > 2, got %d", cc.N)
		}
		if cc.AvgDegree <= 0 || cc.AvgDegree >= float64(cc.N-1) {
			return fmt.Errorf("pergen: Contact average degree %v infeasible for N=%d", cc.AvgDegree, cc.N)
		}
		if cc.CommunitySize < 2 {
			return fmt.Errorf("pergen: Contact community size must be >= 2")
		}
		if cc.WithinFrac < 0 || cc.WithinFrac > 1 {
			return fmt.Errorf("pergen: Contact WithinFrac %v out of [0,1]", cc.WithinFrac)
		}
	default:
		return fmt.Errorf("pergen: unknown model %q (have %q, %q)", sp.Model, ModelPA, ModelContact)
	}
	return nil
}

// SpecFor maps the CLIs' generator flags (model, -n, -d, -seed) to a
// validated Spec: d is preferential attachment's edges per vertex, or
// the contact model's average degree, in communities of 40 with 80 % of
// contacts inside them. edgeswitch -gen (at any -p, in one process or
// many) and graphgen -pergen both build their spec here, so the same
// flags denote the same graph in both.
func SpecFor(model string, n, d int, seed uint64) (Spec, error) {
	sp := Spec{Model: Model(model), Seed: seed, N: n}
	switch sp.Model {
	case ModelPA:
		sp.D = d
	case ModelContact:
		sp.Contact = gen.ContactConfig{AvgDegree: float64(d), CommunitySize: 40, WithinFrac: 0.8}
	}
	return sp, sp.Validate()
}

func (sp Spec) contactConfig() gen.ContactConfig {
	cc := sp.Contact
	cc.N = sp.N
	return cc
}

// MaxEdges returns a deterministic upper bound on the edge count —
// every rank of a job derives operation counts from it (the exact count
// emerges from the generation scan). For PA it is the clique plus one
// slot per (vertex, attachment); for contact it is the target edge
// count.
func (sp Spec) MaxEdges() int64 {
	switch sp.Model {
	case ModelPA:
		s := int64(sp.D) + 1
		return s*(s-1)/2 + (int64(sp.N)-s)*int64(sp.D)
	case ModelContact:
		cc := sp.contactConfig()
		return int64(cc.AvgDegree * float64(cc.N) / 2)
	}
	return 0
}

// Gen is a reusable generator instance: the per-model scan tables
// (clique pairs, community bounds) precomputed once, plus reusable
// scratch so the scan loops stay allocation-free.
type Gen struct {
	spec Spec
	pa   *paGen
	ct   *contactGen
}

// New validates sp and precomputes the scan tables.
func New(sp Spec) (*Gen, error) {
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	g := &Gen{spec: sp}
	switch sp.Model {
	case ModelPA:
		g.pa = newPAGen(sp)
	case ModelContact:
		g.ct = newContactGen(sp)
	}
	return g, nil
}

// Spec returns the generating spec.
func (g *Gen) Spec() Spec { return g.spec }

// N reports the vertex count.
func (g *Gen) N() int { return g.spec.N }

// Edges enumerates every edge of the graph in a fixed deterministic
// order, invoking fn with each edge in normalized (U < V) form. For
// ModelContact the enumeration may repeat an edge (two cross slots can
// resolve to the same pair — a birthday-rare event); consumers that
// need the graph's edge *set* deduplicate at the minimum endpoint,
// which is what Full and PartitionEdges do. ModelPA never repeats.
func (g *Gen) Edges(fn func(graph.Edge)) { _ = g.ShareEdges(0, 1, worldOfOne, fn) }

// worldOfOne is the sum of a one-share world: the share's own count.
func worldOfOne(k int64) (int64, error) { return k, nil }

// ShareEdges enumerates share r of p (0 <= r < p) of the sequence Edges
// enumerates: shares 0..p−1, concatenated, are exactly that sequence,
// and each holds about 1/p of its hash work. For PA, share r is the
// clique when r = 0 plus a contiguous range of attaching vertices; for
// contact, a contiguous range of communities plus a range of cross
// slots. Any rank resolves any edge by recomputation, so p ranks
// enumerating one share each generate the graph once between them,
// whoever owns the edges. A share enumeration allocates nothing.
//
// sum is the world's one collective. A contact share calls it exactly
// once, with the number of within-community edges it emitted, after them
// and before its cross slots; sum must return the total over all p
// shares (an allreduce when each share runs on its own rank), so every
// share of a world calls it, a share that holds no community included. A
// PA share never calls it. An error from sum is returned as is, and the
// share then emits no cross edge.
func (g *Gen) ShareEdges(r, p int, sum func(int64) (int64, error), fn func(graph.Edge)) error {
	if g.pa != nil {
		g.pa.share(r, p, fn)
		return nil
	}
	return g.ct.share(r, p, sum, fn)
}

// PartitionEdges enumerates, in the same deterministic order as Edges,
// exactly the edges owned by rank under pt — ownership follows the
// minimum endpoint, matching the engine's reduced-adjacency invariant.
// Duplicates (contact cross collisions) are still emitted; the caller's
// adjacency structure collapses them, and because both copies share the
// same minimum endpoint the collapse happens wholly inside one rank —
// the global edge set never depends on p.
//
// The ownership test runs once per generated edge per rank, so it is
// devirtualized: for CP the interface call plus boundary binary search
// collapse to a single range comparison, and for HP-D the division hash
// is inlined. Other schemes keep the generic call — their Owner is one
// hash. Each filter is a non-escaping literal, so an enumeration
// allocates nothing.
func (g *Gen) PartitionEdges(pt partition.Partitioner, rank int, fn func(graph.Edge)) {
	switch p := pt.(type) {
	case *partition.CP:
		lo, hi := p.Range(rank)
		g.Edges(func(e graph.Edge) {
			if lo <= e.U && e.U < hi {
				fn(e)
			}
		})
	case *partition.HPD:
		n := p.Parts()
		g.Edges(func(e graph.Edge) {
			if int(e.U)%n == rank {
				fn(e)
			}
		})
	default:
		g.Edges(func(e graph.Edge) {
			if pt.Owner(e.U) == rank {
				fn(e)
			}
		})
	}
}

// ReducedDegrees returns the per-vertex reduced degree (edges whose
// minimum endpoint is the vertex) of the enumerated edge multiset —
// exact for PA; for contact, duplicate cross slots are double-counted
// (a deterministic, p-independent approximation within a handful of
// edges, which is all the CP boundary sweep needs).
func (g *Gen) ReducedDegrees() []int32 {
	deg := make([]int32, g.spec.N)
	g.Edges(func(e graph.Edge) { deg[e.U]++ })
	return deg
}

// Full materializes the whole graph in one piece — the p = 1 bootstrap
// path, and the reference the p-invariance tests compare partitions
// against. The edge set is identical to the union of PartitionEdges
// over all ranks of any partitioner.
func (g *Gen) Full() (*graph.Graph, error) {
	out := graph.New(g.spec.N)
	prio := rng.NewStream(g.spec.Seed, streamPrio)
	var i uint64
	g.Edges(func(e graph.Edge) {
		out.InsertUnindexed(e, true, uint32(prio.At(i)>>32)) // duplicate cross slots collapse here
		i++
	})
	out.Reindex()
	return out, nil
}
