package pergen

import (
	"slices"

	"edgeswitch/internal/graph"
	"edgeswitch/internal/rng"
)

// Contact/community generation by recomputation. The sequential
// generator (gen.Contact) is globally stateful twice over: it draws
// random community sizes while sweeping the label space, and it places
// edges by rejection against the graph built so far. The port removes
// both dependencies:
//
//   - Communities are a pure function of the seed: size i is an
//     independent counter draw, so every rank derives the identical
//     community table (and the commOf lookup) in O(n).
//   - Within-community edges become independent Bernoulli trials, one
//     per community-internal vertex pair, with acceptance probability
//     q = withinBudget/withinCapacity. Same expected budget share as
//     the sequential fill loop, but each pair is decided by one hash —
//     no duplicates by construction.
//   - The cross-community remainder is a fixed array of slots sized to
//     hit the exact target count given the realized within count; each
//     slot resolves its endpoint pair directly from the counter stream,
//     redrawing (bounded) while the pair is a loop or falls inside one
//     community. Distinct slots can — birthday-rarely — resolve to the
//     same pair; both copies share their minimum endpoint, so the owning
//     rank collapses them locally and the edge set stays p-invariant.
//     Within- and cross-edges can never collide (one is intra-, the
//     other inter-community).
//
// The realized within count is the one global quantity: each pair is
// drawn by exactly one share, so the slot count is known only once every
// share's within count is summed (ShareEdges' sum, one scalar allreduce
// in the engine's bootstrap). Shares are cut before any draw, on the
// line the expected within count gives (crossEst slots); the realized
// slot count only moves where the cross slots end.
type contactGen struct {
	n       int
	cfg     contactParams
	withinQ float64
	// targetM is the target edge count; the cross slots make up what the
	// realized within count leaves of it.
	targetM int64
	// crossEst is the cross-slot count the expected within count
	// (q · capacity) gives: the shares' cut line, fixed before any draw.
	crossEst int64

	comms  []communitySpan
	commOf []int32
	// pairOff[i] is the global index of community i's first internal pair
	// (Σ C(size, 2) over the communities before it), so a share starting
	// at community i starts its within-pair counter there.
	pairOff []int64

	sizes  rng.Stream
	within rng.Stream
	cross  rng.Stream
}

type communitySpan struct{ lo, hi int32 } // [lo, hi)

type contactParams struct {
	avgDegree     float64
	communitySize int
	withinFrac    float64
}

func newContactGen(sp Spec) *contactGen {
	cc := sp.contactConfig()
	c := &contactGen{
		n: cc.N,
		cfg: contactParams{
			avgDegree:     cc.AvgDegree,
			communitySize: cc.CommunitySize,
			withinFrac:    cc.WithinFrac,
		},
		sizes:  rng.NewStream(sp.Seed, streamComm),
		within: rng.NewStream(sp.Seed, streamWithin),
		cross:  rng.NewStream(sp.Seed, streamCross),
	}
	// Carve communities of consecutive labels, sizes uniform in
	// [CommunitySize/2, 3·CommunitySize/2] as in the sequential
	// generator — but each size is an independent counter draw, so the
	// table is identical on every rank.
	c.commOf = make([]int32, c.n)
	base := cc.CommunitySize
	for lo, i := 0, uint64(0); lo < c.n; i++ {
		sz := base/2 + int(c.sizes.Uint64nAt(i, uint64(base+1)))
		if sz < 2 {
			sz = 2
		}
		hi := lo + sz
		if hi > c.n {
			hi = c.n
		}
		ci := int32(len(c.comms))
		c.comms = append(c.comms, communitySpan{int32(lo), int32(hi)})
		for v := lo; v < hi; v++ {
			c.commOf[v] = ci
		}
		lo = hi
	}
	// Budget split, mirroring gen.Contact: a WithinFrac share of the
	// target edge count is expected to land inside communities, the
	// remainder crosses them. The realized within count is summed across
	// the shares (see share), so no draw happens here.
	c.targetM = int64(cc.AvgDegree * float64(cc.N) / 2)
	c.pairOff = make([]int64, len(c.comms)+1)
	for i, cm := range c.comms {
		sz := int64(cm.hi - cm.lo)
		c.pairOff[i+1] = c.pairOff[i] + sz*(sz-1)/2
	}
	withinCapacity := c.pairOff[len(c.comms)]
	withinBudget := int64(float64(c.targetM) * cc.WithinFrac)
	if withinCapacity > 0 {
		c.withinQ = float64(withinBudget) / float64(withinCapacity)
		if c.withinQ > 1 {
			c.withinQ = 1
		}
	}
	c.crossEst = max(c.targetM-int64(c.withinQ*float64(withinCapacity)), 0)
	return c
}

// withinEdges enumerates the accepted within-community pairs of
// communities [lo, hi) and returns how many it emitted: pair w of the
// global intra-community pair enumeration is an edge iff its Bernoulli
// draw clears withinQ.
func (c *contactGen) withinEdges(lo, hi int, fn func(graph.Edge)) int64 {
	w := uint64(c.pairOff[lo])
	var k int64
	for _, cm := range c.comms[lo:hi] {
		for i := cm.lo; i < cm.hi; i++ {
			for j := i + 1; j < cm.hi; j++ {
				if c.within.Float64At(w) < c.withinQ {
					fn(graph.Edge{U: graph.Vertex(i), V: graph.Vertex(j)})
					k++
				}
				w++
			}
		}
	}
	return k
}

// crossEdges enumerates cross-community slots [lo, hi). A slot redraws
// its endpoints (bounded, from its own counter range) while the pair is a
// loop or intra-community; with a single community the intra filter is
// dropped, as in the sequential generator. Exhausted slots are dropped.
func (c *contactGen) crossEdges(lo, hi int64, fn func(graph.Edge)) {
	requireCross := len(c.comms) > 1
	for t := lo; t < hi; t++ {
		for a := uint64(0); a <= maxResolveAttempts; a++ {
			ctr := uint64(t)<<6 | a
			u := graph.Vertex(c.cross.Uint64nAt(2*ctr, uint64(c.n)))
			v := graph.Vertex(c.cross.Uint64nAt(2*ctr+1, uint64(c.n)))
			if u == v || (requireCross && c.commOf[u] == c.commOf[v]) {
				continue
			}
			if u > v {
				u, v = v, u
			}
			fn(graph.Edge{U: u, V: v})
			break
		}
	}
}

// shareBound returns where share r of parts starts: at community ci and
// cross slot t. Shares split one line of work — every community's
// internal pairs (one draw each), then crossEst cross slots (two draws
// each) — at r/parts of its length, so the shares cost about the same;
// share r starts at the first community, or failing that the first slot,
// at or past its point. Slot bounds clamp to the realized count crossCnt,
// at which the last share ends.
func (c *contactGen) shareBound(r, parts int, crossCnt int64) (ci int, t int64) {
	pairs := c.pairOff[len(c.comms)]
	if r == parts {
		return len(c.comms), crossCnt
	}
	at := (pairs + 2*c.crossEst) * int64(r) / int64(parts)
	if at <= pairs {
		ci, _ := slices.BinarySearch(c.pairOff[:len(c.comms)], at)
		return ci, 0
	}
	return len(c.comms), min((at-pairs+1)/2, crossCnt)
}

// share enumerates share r of parts: the within-community edges of its
// communities, then its cross slots. Between the two it calls sum once
// with its within count; sum returns the count over all shares, which
// fixes the slot count. A share that holds cross slots starts past every
// community, so shares 0..parts−1 in order enumerate every
// within-community edge before the first cross slot — the order Edges
// documents.
func (c *contactGen) share(r, parts int, sum func(int64) (int64, error), fn func(graph.Edge)) error {
	cLo, _ := c.shareBound(r, parts, 0)
	cHi, _ := c.shareBound(r+1, parts, 0)
	within, err := sum(c.withinEdges(cLo, cHi, fn))
	if err != nil {
		return err
	}
	crossCnt := max(c.targetM-within, 0)
	_, tLo := c.shareBound(r, parts, crossCnt)
	_, tHi := c.shareBound(r+1, parts, crossCnt)
	c.crossEdges(tLo, tHi, fn)
	return nil
}
