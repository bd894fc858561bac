package core

import (
	"fmt"

	"edgeswitch/internal/gen/pergen"
	"edgeswitch/internal/graph"
	"edgeswitch/internal/mpi"
	"edgeswitch/internal/partition"
	"edgeswitch/internal/rng"
)

// The distributed-generation bootstrap (Config.DistributedGen): the
// rank-0 generate-and-scatter path materializes the whole graph on one
// rank and ships p−1 partitions over the wire before a single switch
// runs — O(m) memory and O(m) communication concentrated where the
// paper's scaling argument assumes O(m/p). Here every rank instead
// resolves the generator's counter streams itself (internal/gen/pergen)
// and inserts exactly the edges its partition owns. The only collective
// before switching is an 8-byte allreduce establishing the exact global
// edge count — needed because duplicate contact cross slots collapse at
// their owning rank, so the count is known only after the scan.

// runRankGen is RunRank's bootstrap path for cfg.DistributedGen.
func runRankGen(c *mpi.Comm, t int64, cfg Config) (*Result, error) {
	spec := *cfg.DistributedGen
	gn, err := pergen.New(spec)
	if err != nil {
		return nil, err
	}
	pt, err := genPartitioner(gn, cfg.Scheme, c.Size(), cfg.Seed)
	if err != nil {
		return nil, err
	}
	ck, err := newCheckpointer(c, cfg)
	if err != nil {
		return nil, err
	}
	var eng *rankEngine
	if cfg.Restore {
		// The generated graph's edge count is known only after the scan,
		// so the manifest's m is trusted (m = -1 skips the cross-check);
		// the degree-CRC comparison still pins the restored state exactly.
		eng, _, err = ck.restoreEngine(pt, gn.N(), -1, cfg)
		if err != nil {
			return nil, err
		}
	}
	if eng == nil {
		eng, err = newRankEngineFromGen(c, pt, gn, cfg)
		if err != nil {
			return nil, err
		}
	}
	eng.ckpt = ck
	if eng.m < 2 && t > 0 {
		return nil, fmt.Errorf("core: need at least 2 edges to switch, generator spec yields %d", eng.m)
	}
	return runEngine(eng, t, cfg, func(out *graph.Graph) *Baseline {
		if eng.baseDeg != nil {
			// The sanitized run recorded the global degree sequence right
			// after the partitions were generated (recordBaseline) —
			// exactly the fingerprint switching must preserve.
			return &Baseline{N: eng.n, M: eng.m, Degrees: eng.baseDeg}
		}
		// t == 0: nothing switched, so the reassembled graph doubles as
		// its own baseline and the check reduces to simplicity.
		return NewBaseline(out)
	})
}

// genPartitioner mirrors NewPartitioner without a graph: CP boundaries
// come from the spec-derived reduced-degree table, which every rank
// computes identically.
func genPartitioner(gn *pergen.Gen, scheme Scheme, p int, seed uint64) (partition.Partitioner, error) {
	switch scheme {
	case SchemeCP, "":
		return partition.NewCPFromReduced(gn.ReducedDegrees(), p)
	case SchemeHPD:
		return partition.NewHPD(p)
	case SchemeHPM:
		return partition.NewHPM(p)
	case SchemeHPU:
		return partition.NewHPU(p, rng.Split(seed, 1<<20))
	default:
		return nil, fmt.Errorf("core: unknown scheme %q", scheme)
	}
}

// newRankEngineFromGen loads a rank engine directly from the generator:
// one pass over the spec's edge enumeration buffers the edges this rank
// owns, keyed by local slot, and the chassis bulk loader (loadSlotEdges)
// groups, sorts and bulk-builds them in O(d) per adjacency — the same
// sets as one-at-a-time insertion without its O(d log d) descents, which
// dominate the bootstrap once the enumeration itself is cheap. The
// loader draws one treap priority per emitted edge, duplicates included,
// so the switching phase finds the run RNG where per-edge insertion
// would have left it. A repeated edge (contact cross-slot collisions)
// collapses to one; both copies share their minimum endpoint, so
// duplicates collapse wholly inside one rank and the global edge set
// stays independent of p.
func newRankEngineFromGen(c *mpi.Comm, pt partition.Partitioner, gn *pergen.Gen, cfg Config) (*rankEngine, error) {
	e, err := newEmptyRankEngine(c, pt, gn.N(), cfg)
	if err != nil {
		return nil, err
	}
	// Dense local-index table for the load: the engine's map serves
	// sparse protocol-time queries, but the scan would hit it once per
	// owned edge. PartitionEdges only hands owned minimum endpoints, so
	// entries for foreign vertices are never read.
	lookup := make([]int32, gn.N())
	for i, v := range e.verts {
		lookup[v] = int32(i)
	}
	p := c.Size()
	buf := make([]slotEdge, 0, int(gn.Spec().MaxEdges()/int64(p))+gn.N()/p+16)
	gn.PartitionEdges(pt, c.Rank(), func(ed graph.Edge) {
		buf = append(buf, slotEdge{slot: lookup[ed.U], v: ed.V, orig: true})
	})
	if err := e.loadSlotEdges(buf, true); err != nil {
		return nil, err
	}
	total, err := c.AllreduceInt64s([]int64{e.deg.Total()}, mpi.OpSum)
	if err != nil {
		return nil, err
	}
	if err := e.finishLoad(total[0], cfg); err != nil {
		return nil, err
	}
	return e, nil
}
