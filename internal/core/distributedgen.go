package core

import (
	"edgeswitch/internal/gen/pergen"
	"edgeswitch/internal/graph"
	"edgeswitch/internal/partition"
)

// genSource is the bootstrap source for Config.DistributedGen. The
// rank-0 generate-and-scatter path materializes the whole graph on one
// rank and ships p−1 partitions over the wire before a single switch
// runs — O(m) memory and O(m) communication concentrated where the
// paper's scaling argument assumes O(m/p). Here every rank instead
// resolves the generator's counter streams itself (internal/gen/pergen):
// CP boundaries come from the spec-derived reduced-degree table, which
// every rank computes identically, and one pass over the spec's edge
// enumeration buffers exactly the edges the rank owns for the bulk loader
// (loadSlotEdges), which draws one treap priority per emitted edge,
// duplicates included, so the switching phase finds the run RNG where
// per-edge insertion would have left it. A repeated edge (contact
// cross-slot collisions) collapses to one; both copies share their
// minimum endpoint, so duplicates collapse wholly inside one rank and the
// global edge set stays independent of p — but the exact edge count is
// known only after the scan (m = -1): the frame's 8-byte allreduce is the
// only collective before switching, and a restore trusts its manifest's
// m, the degree-CRC comparison still pinning the restored state exactly.
func genSource(spec pergen.Spec) (*source, error) {
	gn, err := pergen.New(spec)
	if err != nil {
		return nil, err
	}
	return &source{
		n:  gn.N(),
		m:  -1,
		cp: func(p int) (*partition.CP, error) { return partition.NewCPFromReduced(gn.ReducedDegrees(), p) },
		edges: func(e *rankEngine) []slotEdge {
			p := e.c.Size()
			buf := make([]slotEdge, 0, int(gn.Spec().MaxEdges()/int64(p))+gn.N()/p+16)
			// PartitionEdges only hands owned minimum endpoints, so every
			// slot read here is a local one.
			gn.PartitionEdges(e.pt, e.c.Rank(), func(ed graph.Edge) {
				buf = append(buf, slotEdge{slot: e.slot[ed.U], v: ed.V, orig: true})
			})
			return buf
		},
		collapseDup: true,
		baseline: func(e *rankEngine, out *graph.Graph) *Baseline {
			if e.baseDeg != nil {
				// The sanitized run recorded the global degree sequence right
				// after the partitions were generated (recordBaseline) —
				// exactly the fingerprint switching must preserve.
				return &Baseline{N: e.n, M: e.m, Degrees: e.baseDeg}
			}
			// t == 0: nothing switched, so the reassembled graph doubles as
			// its own baseline and the check reduces to simplicity.
			return NewBaseline(out)
		},
	}, nil
}
