package graph

import "slices"

// AdjSet holds the reduced adjacency list of one vertex as an ordered
// set with the three operations the edge-switch algorithms need:
// membership test (parallel-edge detection), insert/delete (applying a
// switch), and k-th smallest selection (uniform random neighbour pick).
//
// A slot is one sorted pointer-free array up to flatMax entries — Kth is
// an index, Contains a binary search, insert and delete a short memmove,
// and the GC never scans it — and an order-statistic treap (O(log d)
// expected per operation) beyond, where the paper's §3.3 argument for a
// balanced tree applies: hubs. Selection is by rank within the slot in
// both forms, so the form never changes which entry a given draw picks.
//
// Each entry carries an "original" flag used for visit-rate accounting:
// edges present in the input graph are original; edges created by a switch
// are modified (§3.1 of the paper).
type AdjSet struct {
	// flat is the slot while root is nil: ascending entries
	// v<<1 | original (Vertex is a non-negative int32, so the packing is
	// exact). Empty while the slot is a treap.
	flat []uint32
	// root is the slot as a treap once it has grown past flatMax. A treap
	// goes back to flat only by emptying (drained, rebuilt, deleted to
	// nothing): a hub hovering at the threshold does not flip per delete.
	root *treapNode
	// origs counts entries whose original flag is set, maintained by
	// Insert/Delete so Graph.Reindex can rebuild the graph-level original
	// counter in O(1) per vertex after a sharded bulk build.
	origs int32
}

// flatMax is the entry count past which a slot is a treap: the insert
// that would take a flat slot beyond it promotes, a longer bulk build
// makes a treap directly. BenchmarkAblationAdjacency's engine-shaped mix
// (Contains, Kth, delete, insert on one cache-resident slot) in ns per
// op, treap / flat: d=50 300/83, 1000 450/220, 4096 595/380, 8192
// 685/520, 16384 950/1150, 50000 1400/4500. 8192 is the largest measured
// degree where the array wins even against a treap whose nodes are all
// in cache, which in the engine they are not (DESIGN.md §4). A variable
// only so the package's tests can lower it and cross promotion and
// demotion in short sequences; nothing else assigns it.
var flatMax = 8192

// flatLinear is the window below which search stops halving and scans:
// sixteen entries are one cache line, and a predictable forward scan over
// it beats four more mispredicted halvings.
const flatLinear = 16

type treapNode struct {
	left, right *treapNode
	key         Vertex
	prio        uint32
	size        int32
	original    bool
}

// NodeArena is a free list of treap nodes threaded through their left
// pointers, shared by the hub slots of one rank: without reuse every
// treap Insert allocates a node. An arena is owned by a single goroutine
// (one per rank) and shared across all of that rank's AdjSets, so deletes
// in one vertex's set feed inserts in another's. Flat slots never touch
// it. The zero value is ready to use, and a nil *NodeArena degrades to
// plain allocation, which is what the arena-less AdjSet methods pass.
//
//es:arena
type NodeArena struct {
	free *treapNode
	slab []treapNode
	// spine is the treap builder's scratch stack (the rightmost spine of
	// the tree under construction), kept here so bulk loads reuse one
	// allocation across every AdjSet built from the same arena.
	spine []*treapNode
}

// arenaSlab is the nodes-per-allocation granularity of a free-list miss:
// building a hub pays one heap allocation and one GC object per 1024
// nodes instead of per entry, with better locality.
const arenaSlab = 1024

func (a *NodeArena) get(v Vertex, original bool, prio uint32) *treapNode {
	if a == nil {
		return &treapNode{key: v, prio: prio, size: 1, original: original}
	}
	if n := a.free; n != nil {
		a.free = n.left
		*n = treapNode{key: v, prio: prio, size: 1, original: original}
		return n
	}
	if len(a.slab) == 0 {
		// The free-list miss is the slow path the arena exists to avoid;
		// the //es:arena marker on the type waives it.
		a.slab = make([]treapNode, arenaSlab)
	}
	n := &a.slab[0]
	a.slab = a.slab[1:]
	*n = treapNode{key: v, prio: prio, size: 1, original: original}
	return n
}

func (a *NodeArena) put(n *treapNode) {
	if a == nil {
		return
	}
	*n = treapNode{left: a.free}
	a.free = n
}

func size(n *treapNode) int32 {
	if n == nil {
		return 0
	}
	return n.size
}

func (n *treapNode) update() { n.size = 1 + size(n.left) + size(n.right) }

// find returns the node holding v in the treap rooted at n, or nil.
func (n *treapNode) find(v Vertex) *treapNode {
	for n != nil && n.key != v {
		if v < n.key {
			n = n.left
		} else {
			n = n.right
		}
	}
	return n
}

func pack(v Vertex, original bool) uint32 {
	e := uint32(v) << 1
	if original {
		e |= 1
	}
	return e
}

func unpack(e uint32) (Vertex, bool) { return Vertex(e >> 1), e&1 == 1 }

// search returns the position of the first flat entry not below v, and
// whether that entry is v.
func (s *AdjSet) search(v Vertex) (int, bool) {
	f, key := s.flat, uint32(v)<<1
	lo, hi := 0, len(f)
	for hi-lo > flatLinear {
		mid := int(uint(lo+hi) >> 1)
		if f[mid] < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	for lo < hi && f[lo] < key {
		lo++
	}
	return lo, lo < len(f) && f[lo]>>1 == uint32(v)
}

// Len reports the number of entries in the set.
func (s *AdjSet) Len() int { return len(s.flat) + int(size(s.root)) }

// Originals reports how many entries still carry the original flag.
func (s *AdjSet) Originals() int { return int(s.origs) }

// Contains reports whether v is in the set.
func (s *AdjSet) Contains(v Vertex) bool {
	if s.root != nil {
		return s.root.find(v) != nil
	}
	_, ok := s.search(v)
	return ok
}

// Original reports whether v is present and still flagged as an original
// (unswitched) edge endpoint.
func (s *AdjSet) Original(v Vertex) bool {
	if s.root != nil {
		n := s.root.find(v)
		return n != nil && n.original
	}
	i, ok := s.search(v)
	return ok && s.flat[i]&1 == 1
}

// Kth returns the k-th smallest entry (0-based) and its original flag.
// It panics if k is out of range; callers sample k uniformly in [0, Len()).
func (s *AdjSet) Kth(k int) (Vertex, bool) {
	if uint(k) < uint(len(s.flat)) {
		return unpack(s.flat[k])
	}
	n := s.root
	ki := int32(k)
	for n != nil {
		ls := size(n.left)
		switch {
		case ki < ls:
			n = n.left
		case ki > ls:
			ki -= ls + 1
			n = n.right
		default:
			return n.key, n.original
		}
	}
	panic("graph: AdjSet.Kth index out of range")
}

// TakeKthArena removes and returns the k-th smallest entry (0-based) and
// its original flag in one search: an index and a memmove on a flat
// slot, Kth then delete on a hub's treap (nodes go back to a). It panics
// if k is out of range, like Kth.
func (s *AdjSet) TakeKthArena(a *NodeArena, k int) (Vertex, bool) {
	if s.root != nil {
		v, _ := s.Kth(k)
		_, orig := s.DeleteArena(a, v)
		return v, orig
	}
	v, orig := unpack(s.flat[k])
	copy(s.flat[k:], s.flat[k+1:])
	s.flat = s.flat[:len(s.flat)-1]
	if orig {
		s.origs--
	}
	return v, orig
}

// Insert adds v with the given original flag and treap priority prio
// (callers pass fresh random bits; a flat slot ignores them). It reports
// whether the value was newly inserted (false means it was already
// present; the flag is left unchanged in that case, since a duplicate
// insert indicates a parallel edge the caller should have rejected).
func (s *AdjSet) Insert(v Vertex, original bool, prio uint32) bool {
	return s.InsertArena(nil, v, original, prio)
}

// InsertArena is Insert drawing a hub's node from a (the hot path of the
// parallel engine); a nil arena allocates. Either form finds a duplicate
// on the way to the insertion point, with no separate Contains pass: one
// search and one memmove, or the classic single-descent rotation insert
// (attach at the leaf, rotate up to the node's priority).
func (s *AdjSet) InsertArena(a *NodeArena, v Vertex, original bool, prio uint32) bool {
	if s.root == nil {
		i, dup := s.search(v)
		if dup {
			return false
		}
		if len(s.flat) < flatMax {
			s.flat = append(s.flat, 0) // hotalloc: amortized; a slot's array doubles, and a drained slot keeps its capacity
			copy(s.flat[i+1:], s.flat[i:])
			s.flat[i] = pack(v, original)
			s.origs += int32(s.flat[i] & 1)
			return true
		}
		s.promote(a)
	}
	nn := a.get(v, original, prio)
	root, inserted := insertPrio(s.root, nn)
	if !inserted {
		a.put(nn)
		return false
	}
	s.root = root
	if original {
		s.origs++
	}
	return true
}

// promote turns a flat slot that has reached flatMax into a treap. Its
// priorities are a fixed mix of the key (murmur3's 32-bit finalizer),
// never a draw: callers bring one priority per inserted entry, and taking
// flatMax more from a run RNG would move its stream by the slot's history.
func (s *AdjSet) promote(a *NodeArena) {
	spine := a.takeSpine()
	for _, e := range s.flat {
		v, orig := unpack(e)
		x := uint32(v)
		x ^= x >> 16
		x *= 0x85ebca6b
		x ^= x >> 13
		x *= 0xc2b2ae35
		x ^= x >> 16
		spine = a.pushSpine(spine, v, orig, x)
	}
	s.root = a.closeSpine(spine)
	s.flat = nil // a hub's old array is garbage, not capacity worth keeping
}

// insertPrio inserts nn into n by key, restoring the priority heap with
// rotations on the way back up. Subtree sizes are recomputed only along
// the (successful) insertion path.
func insertPrio(n, nn *treapNode) (root *treapNode, inserted bool) {
	if n == nil {
		return nn, true
	}
	switch {
	case nn.key < n.key:
		if n.left, inserted = insertPrio(n.left, nn); !inserted {
			return n, false
		}
		if n.left.prio > n.prio {
			return rotateRight(n), true
		}
	case nn.key > n.key:
		if n.right, inserted = insertPrio(n.right, nn); !inserted {
			return n, false
		}
		if n.right.prio > n.prio {
			return rotateLeft(n), true
		}
	default:
		return n, false
	}
	n.update()
	return n, true
}

// rotateRight lifts n's left child over n, preserving key order.
func rotateRight(n *treapNode) *treapNode {
	l := n.left
	n.left = l.right
	n.update()
	l.right = n
	l.update()
	return l
}

// rotateLeft lifts n's right child over n, preserving key order.
func rotateLeft(n *treapNode) *treapNode {
	r := n.right
	n.right = r.left
	n.update()
	r.left = n
	r.update()
	return r
}

// BuildSorted fills an empty set in one pass from strictly ascending
// keys, every entry getting the original flag. Up to flatMax keys it is
// an append into the capacity a drain left behind and prios is ignored;
// longer lists become a treap in O(len) with prios as the priorities
// and nodes drawn from a (nil allocates). A treap is uniquely determined
// by its (key, priority) pairs — ties resolve the same way insertPrio's
// strict rotation test does — so that result is identical to inserting
// the pairs one at a time: each node is threaded onto the rightmost
// spine of the growing tree (the classic Cartesian-tree construction),
// and subtree sizes are finalized exactly once, when a node leaves the
// spine.
func (s *AdjSet) BuildSorted(a *NodeArena, keys []Vertex, prios []uint32, original bool) {
	s.buildSorted(a, keys, prios, nil, original)
}

// BuildSortedFlagged is BuildSorted with a per-entry original flag:
// origs[i] is entry i's flag, and the set's originals counter is the
// number of set flags. This is the engine's bulk-load path, where a
// partition's entries carry the flags they had when they were drained or
// checkpointed rather than one uniform load-time value.
func (s *AdjSet) BuildSortedFlagged(a *NodeArena, keys []Vertex, prios []uint32, origs []bool) {
	if len(origs) != len(keys) {
		panic("graph: BuildSortedFlagged flag count != key count")
	}
	s.buildSorted(a, keys, prios, origs, false)
}

// buildSorted is the shared bulk build: flags[i] gives entry i's original
// flag when flags is non-nil, uniform otherwise.
func (s *AdjSet) buildSorted(a *NodeArena, keys []Vertex, prios []uint32, flags []bool, uniform bool) {
	if len(keys) == 0 {
		return
	}
	if s.Len() != 0 {
		panic("graph: BuildSorted on a non-empty AdjSet")
	}
	hub := len(keys) > flatMax
	var spine []*treapNode
	var flat []uint32
	if hub {
		spine = a.takeSpine()
	} else {
		flat = slices.Grow(s.flat[:0], len(keys))[:len(keys)]
	}
	origs := int32(0)
	for i, k := range keys {
		if i > 0 && keys[i-1] >= k {
			panic("graph: BuildSorted keys not strictly ascending")
		}
		orig := uniform
		if flags != nil {
			orig = flags[i]
		}
		if orig {
			origs++
		}
		if hub {
			spine = a.pushSpine(spine, k, orig, prios[i])
		} else {
			flat[i] = pack(k, orig)
		}
	}
	if hub {
		s.root = a.closeSpine(spine)
	} else {
		s.flat = flat
	}
	s.origs = origs
}

// takeSpine, pushSpine and closeSpine build a treap from ascending keys:
// the spine holds the rightmost path of the tree so far.
func (a *NodeArena) takeSpine() []*treapNode {
	if a == nil {
		return nil
	}
	return a.spine[:0]
}

// pushSpine appends the new maximum key k. Nodes it displaces from the
// spine become its left subtree; their sizes are final the moment they
// come off.
func (a *NodeArena) pushSpine(spine []*treapNode, k Vertex, original bool, prio uint32) []*treapNode {
	nn := a.get(k, original, prio)
	var last *treapNode
	for len(spine) > 0 && spine[len(spine)-1].prio < nn.prio {
		last = spine[len(spine)-1]
		spine = spine[:len(spine)-1]
		last.update()
	}
	nn.left = last
	if len(spine) > 0 {
		spine[len(spine)-1].right = nn
	}
	return append(spine, nn)
}

// closeSpine finalizes the sizes along the spine, hands the scratch back
// to the arena and returns the root (nil for an empty build).
func (a *NodeArena) closeSpine(spine []*treapNode) *treapNode {
	if len(spine) == 0 {
		return nil
	}
	for i := len(spine) - 1; i >= 0; i-- {
		spine[i].update()
	}
	root := spine[0]
	if a != nil {
		a.spine = spine[:0]
	}
	return root
}

// Delete removes v, reporting whether it was present and whether the
// removed entry was an original edge.
func (s *AdjSet) Delete(v Vertex) (found, original bool) {
	return s.DeleteArena(nil, v)
}

// DeleteArena is Delete returning a hub's removed node to a for reuse by
// a later InsertArena; a nil arena leaves it to the GC.
func (s *AdjSet) DeleteArena(a *NodeArena, v Vertex) (found, original bool) {
	if s.root != nil {
		s.root, found, original = deleteNode(a, s.root, v)
	} else if i, ok := s.search(v); ok {
		found, original = true, s.flat[i]&1 == 1
		copy(s.flat[i:], s.flat[i+1:])
		s.flat = s.flat[:len(s.flat)-1]
	}
	if original {
		s.origs--
	}
	return found, original
}

// deleteNode removes v from the treap rooted at n and returns the new
// root, whether v was there, and its flag.
func deleteNode(a *NodeArena, n *treapNode, v Vertex) (root *treapNode, found, original bool) {
	switch {
	case n == nil:
		return nil, false, false
	case v < n.key:
		n.left, found, original = deleteNode(a, n.left, v)
	case v > n.key:
		n.right, found, original = deleteNode(a, n.right, v)
	default:
		l, r, orig := n.left, n.right, n.original
		a.put(n)
		return merge(l, r), true, orig
	}
	if found {
		n.update()
	}
	return n, found, original
}

// DrainArena empties the set, invoking fn for each entry in ascending
// key order — the curveball engine's per-round bulk extraction, O(d). A
// flat slot keeps its array for the rebuild that follows; a treap returns
// every node to a (nil leaves them to the GC) and is flat again.
func (s *AdjSet) DrainArena(a *NodeArena, fn func(v Vertex, original bool)) {
	for _, e := range s.flat {
		fn(unpack(e))
	}
	s.flat = s.flat[:0]
	drainNode(a, s.root, fn)
	s.root = nil
	s.origs = 0
}

func drainNode(a *NodeArena, n *treapNode, fn func(v Vertex, original bool)) {
	if n == nil {
		return
	}
	// a.put clobbers the node (it threads the free list through left),
	// so capture the children first.
	l, r := n.left, n.right
	drainNode(a, l, fn)
	fn(n.key, n.original)
	a.put(n)
	drainNode(a, r, fn)
}

// merge joins two treaps where every key in l precedes every key in r.
func merge(l, r *treapNode) *treapNode {
	switch {
	case l == nil:
		return r
	case r == nil:
		return l
	case l.prio > r.prio:
		l.right = merge(l.right, r)
		l.update()
		return l
	default:
		r.left = merge(l, r.left)
		r.update()
		return r
	}
}

// Walk calls fn for each entry in ascending key order. Returning false
// from fn stops the walk early.
func (s *AdjSet) Walk(fn func(v Vertex, original bool) bool) {
	for _, e := range s.flat {
		if !fn(unpack(e)) {
			return
		}
	}
	walkNode(s.root, fn)
}

func walkNode(n *treapNode, fn func(v Vertex, original bool) bool) bool {
	return n == nil || walkNode(n.left, fn) && fn(n.key, n.original) && walkNode(n.right, fn)
}

// Keys returns all entries in ascending order. Intended for tests and
// small-scale inspection.
func (s *AdjSet) Keys() []Vertex {
	out := make([]Vertex, 0, s.Len())
	s.Walk(func(v Vertex, _ bool) bool {
		out = append(out, v)
		return true
	})
	return out
}
