package core

import (
	"encoding/binary"
	"errors"
	"fmt"

	"edgeswitch/internal/gen/pergen"
	"edgeswitch/internal/graph"
	"edgeswitch/internal/mpi"
	"edgeswitch/internal/partition"
)

// routeTag carries the bootstrap's routed edges; engine traffic rides
// opTag, and the route is drained before the first step.
const routeTag = 2

// routeChunk is the payload of one routed chunk: 8 192 (u, v) entries of
// 8 bytes. A rank's edges for one peer travel as full chunks closed by
// one shorter chunk (empty when the last one filled), so no frame grows
// with m/p and the receiver knows where each peer's stream ends.
const routeChunk = 64 << 10

// Routed-entry refusals. The bytes may come off a socket, so every entry
// is checked before it indexes anything.
var (
	errRouteLength  = errors.New("routed chunk is not whole (u, v) entries within the chunk size")
	errRouteEdge    = errors.New("routed entry is not a normalized edge of the graph")
	errRouteForeign = errors.New("routed edge not owned by the receiver")
)

// genSource is the bootstrap source for Config.DistributedGen. The
// rank-0 generate-and-scatter path materializes the whole graph on one
// rank and ships p−1 partitions over the wire before a single switch
// runs — O(m) memory and O(m) communication concentrated where the
// paper's scaling argument assumes O(m/p). Here every rank instead
// resolves one share of the generator's edge sequence
// (pergen.ShareEdges), about m/p edges: it keeps the edges whose
// minimum endpoint it owns and routes the others to their owners in one
// chunked exchange (genShare.load). A contact share's cross-slot count
// needs the world's within-community edge count, one AllreduceInt64s
// (withinSum) between the share's within part and its cross part. CP's
// boundaries come from the shares' reduced degrees, summed by one
// AllreduceUint32s. sortSlotEdges orders the partition before the edge
// switcher's store build draws one treap priority per entry, duplicates
// included, so neither arrival order nor p moves the run RNG. A repeated
// edge (contact cross-slot collisions) collapses to one; both copies
// share their minimum endpoint, so duplicates meet inside one rank and
// the global edge set stays independent of p — but the exact edge count
// is known only after the sort (m = -1): the frame allreduces it, and a
// restore trusts its manifest's m, the degree-CRC comparison still
// pinning the restored state exactly.
func genSource(spec pergen.Spec) (*source, error) {
	gn, err := pergen.New(spec)
	if err != nil {
		return nil, err
	}
	gs := &genShare{gn: gn}
	return &source{
		n:           gn.N(),
		m:           -1,
		cp:          gs.cp,
		edges:       gs.load,
		collapseDup: true,
		baseline: func(e *rankEngine) *Baseline {
			// The sanitized run recorded the global degree sequence right
			// after the partitions were generated (recordBaseline) —
			// exactly the fingerprint switching must preserve.
			return &Baseline{N: e.n, M: e.m, Degrees: e.baseDeg}
		},
	}, nil
}

// genShare is one rank's share of a generated graph.
type genShare struct {
	gn *pergen.Gen
	// share holds the rank's share, non-nil when CP's boundaries needed it
	// before the partition existed; load routes it instead of enumerating
	// again.
	share []graph.Edge
}

// cp enumerates the rank's share, counting the reduced degree of each
// minimum endpoint, and sums the counts over the world: every rank
// derives the boundaries the whole edge multiset gives.
func (gs *genShare) cp(c *mpi.Comm, p int) (*partition.CP, error) {
	deg := make([]uint32, gs.gn.N())
	share := make([]graph.Edge, 0, gs.gn.Spec().MaxEdges()/int64(p)+16)
	err := gs.gn.ShareEdges(c.Rank(), p, withinSum(c), func(ed graph.Edge) {
		deg[ed.U]++
		share = append(share, ed)
	})
	if err != nil {
		return nil, err
	}
	gs.share = share
	sum, err := c.AllreduceUint32s(deg, mpi.OpSum)
	if err != nil {
		return nil, fmt.Errorf("core: rank %d reduced-degree sum: %w", c.Rank(), err)
	}
	red := make([]int32, len(sum))
	for v, d := range sum {
		red[v] = int32(d)
	}
	return partition.NewCPFromReduced(red, p)
}

// load resolves the rank's share and returns the rank's partition: the
// share's own edges and every peer's routed ones. A foreign edge is
// packed for its owner — e.slot holds ^owner for a vertex another rank
// owns. A contact share's within-count sum runs while route chunks may
// be in flight: collectives have their own tag space, so the chunks wait
// in the mailbox.
func (gs *genShare) load(e *rankEngine) ([]slotEdge, error) {
	p := e.c.Size()
	rt := newRouter(e, make([]slotEdge, 0, int(gs.gn.Spec().MaxEdges()/int64(p))+gs.gn.N()/p+16))
	emit := func(ed graph.Edge) {
		if li := e.slot[ed.U]; li >= 0 {
			rt.buf = append(rt.buf, slotEdge{slot: li, v: ed.V, orig: true})
		} else {
			rt.add(int(^li), ed)
		}
	}
	if gs.share != nil {
		for _, ed := range gs.share {
			emit(ed)
		}
		gs.share = nil
	} else if err := gs.gn.ShareEdges(e.c.Rank(), p, withinSum(e.c), emit); err != nil {
		return nil, err
	}
	return rt.finish()
}

// withinSum is ShareEdges' sum for a share that runs on c's rank: one
// AllreduceInt64s of the share's within count over the world.
func withinSum(c *mpi.Comm) func(int64) (int64, error) {
	return func(k int64) (int64, error) {
		s, err := c.AllreduceInt64s([]int64{k}, mpi.OpSum)
		if err != nil {
			return 0, fmt.Errorf("core: rank %d within-edge sum: %w", c.Rank(), err)
		}
		return s[0], nil
	}
}

// router is one rank's side of the route exchange. It packs routed
// edges per destination and sends each chunk as it fills; after each
// send it decodes the chunks already queued from its peers into buf, so
// only a few chunks per pair of ranks are ever in flight, and finish
// waits for the rest. A decoded full chunk is the rank's to keep and
// becomes a later outgoing one. A peer's stream ends with its short
// chunk. Errors stick: finish reports the first.
type router struct {
	e      *rankEngine
	out    [][]byte
	free   [][]byte // decoded full chunks, reused for sending
	closed []bool   // the peer's closing chunk has arrived; true for this rank
	in     []mpi.Message
	buf    []slotEdge
	err    error
}

func newRouter(e *rankEngine, buf []slotEdge) *router {
	rt := &router{e: e, out: make([][]byte, e.c.Size()), closed: make([]bool, e.c.Size()), buf: buf}
	rt.closed[e.c.Rank()] = true
	return rt
}

func (rt *router) add(dst int, ed graph.Edge) {
	b := rt.out[dst]
	if b == nil {
		if n := len(rt.free); n > 0 {
			b, rt.free = rt.free[n-1], rt.free[:n-1]
		} else {
			b = make([]byte, 0, routeChunk)
		}
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(ed.U))
	b = binary.LittleEndian.AppendUint32(b, uint32(ed.V))
	if len(b) == routeChunk {
		rt.send(dst, b)
		rt.poll()
		b = nil
	}
	rt.out[dst] = b
}

func (rt *router) send(dst int, b []byte) {
	if rt.err == nil {
		rt.err = rt.e.c.SendOwned(dst, routeTag, b)
	}
}

// poll decodes every chunk already queued from a peer whose stream is
// still open.
func (rt *router) poll() {
	for src, done := range rt.closed {
		if done || rt.err != nil {
			continue
		}
		rt.in = rt.e.c.RecvAllInto(src, routeTag, rt.in[:0])
		for _, m := range rt.in {
			rt.take(src, m.Data)
		}
	}
}

// take decodes one chunk of src's stream.
func (rt *router) take(src int, data []byte) {
	if rt.err != nil || rt.closed[src] {
		return
	}
	rt.buf, rt.err = rt.e.decodeRoute(src, data, rt.buf)
	rt.closed[src] = len(data) < routeChunk
	if !rt.closed[src] && cap(data) == routeChunk {
		rt.free = append(rt.free, data[:0])
	}
}

// finish sends every peer its closing chunk, then receives until every
// peer's stream has closed, and returns the partition.
func (rt *router) finish() ([]slotEdge, error) {
	me := rt.e.c.Rank()
	for dst, b := range rt.out {
		if dst != me {
			rt.send(dst, b)
			rt.out[dst] = nil
		}
	}
	for src := range rt.closed {
		for !rt.closed[src] && rt.err == nil {
			m, err := rt.e.c.Recv(src, routeTag)
			if err != nil {
				return nil, err
			}
			rt.take(src, m.Data)
		}
	}
	if rt.err != nil {
		return nil, fmt.Errorf("core: rank %d route exchange: %w", me, rt.err)
	}
	return rt.buf, nil
}

// decodeRoute appends one routed chunk from src to buf. Every entry must
// be a normalized edge (u < v < n) whose minimum endpoint this rank owns.
func (e *rankEngine) decodeRoute(src int, data []byte, buf []slotEdge) ([]slotEdge, error) {
	me := e.c.Rank()
	if len(data) > routeChunk || len(data)%8 != 0 {
		return buf, fmt.Errorf("core: rank %d bootstrap: chunk of %d bytes from rank %d: %w", me, len(data), src, errRouteLength)
	}
	n := uint32(e.n)
	for i := 0; i < len(data); i += 8 {
		u := binary.LittleEndian.Uint32(data[i:])
		v := binary.LittleEndian.Uint32(data[i+4:])
		if u >= v || v >= n {
			return buf, fmt.Errorf("core: rank %d bootstrap: entry (%d, %d) from rank %d, %d vertices: %w", me, u, v, src, e.n, errRouteEdge)
		}
		li := e.slot[u]
		if li < 0 {
			return buf, fmt.Errorf("core: rank %d bootstrap: edge (%d, %d) from rank %d belongs to rank %d: %w", me, u, v, src, ^li, errRouteForeign)
		}
		buf = append(buf, slotEdge{slot: li, v: graph.Vertex(v), orig: true})
	}
	return buf, nil
}
