package store

import (
	"fmt"
	"os"
	"path/filepath"

	"edgeswitch/internal/clock"
	"edgeswitch/internal/graph"
)

// Tiered is the Store: an in-memory overlay — one graph.AdjSet per slot
// (a flat sorted array; a treap over one shared node arena for hubs) —
// over an optional immutable mmap'd base segment holding the whole
// partition in slot order.
//
// Without a directory (NewMem) there is no base: every slot lives in the
// overlay for good, nothing streams or compacts, and Stats stay zero.
//
// With a directory (NewTiered) the overlay holds only the slots touched
// since the last compaction. Reads consult overlay-then-base; every
// mutation promotes its slot into the overlay first (decoding the base
// list into an AdjSet once); when the overlay outgrows its budget at a step
// boundary, a compaction merges it into a new base segment in one
// sequential pass — unpromoted slots are copied verbatim, byte for byte,
// since the gap encoding is owner-relative and they did not change.
// Steady-state memory is O(working set between compactions), not
// O(|E_local|); the mmap'd base does not count against GOMEMLIMIT.
//
// Tiered never consumes the engine's run RNG: promotion priorities come
// from the dedicated stream handed to NewTiered, so spill and in-memory
// runs make identical random choices (priorities shape only a hub's
// treap form, never results — selection is by key order).
type Tiered struct {
	dir   string // "" keeps every slot in the overlay, with no base
	verts []graph.Vertex

	overlay       []graph.AdjSet
	arena         graph.NodeArena
	promoted      []bool
	promotedCount int
	entries       int64 // live overlay entries
	hwm           int64
	// baseLive counts the entries of the base's unpromoted slots; with
	// entries also 0 the store is empty and a bulk build may replace the
	// base outright.
	baseLive int64

	seg *Segment
	gen uint64

	w        *SegmentWriter // open streaming bulk-build writer
	wEntries int64          // entries streamed into w so far

	budget int64 // overlay entries a step boundary leaves uncompacted

	prio func() uint32

	compactions int64
	compactNs   int64

	// decode/encode scratch, reused across slots
	keys   []graph.Vertex
	origs  []bool
	prios  []uint32
	encBuf []byte
}

// emptyList is the encoding of a slot without entries.
var emptyList = graph.AppendEmptyAdjSet(nil)

// autoBudgetFloor keeps tiny partitions from compacting on every step.
const autoBudgetFloor = 4096

// NewTiered creates a tiered store spilling to dir (created if absent;
// any stale segments from a previous run are removed). verts maps slots
// to owner labels and is retained. budget caps the overlay's entry
// count; 0 resolves at EndLoad to max(entries held/4, 4096). prio
// supplies treap priorities for promoted entries and must be a stream
// independent of the run RNG.
func NewTiered(dir string, verts []graph.Vertex, budget int64, prio func() uint32) (*Tiered, error) {
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return nil, err
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, ent := range ents {
		if !ent.IsDir() {
			_ = os.Remove(filepath.Join(dir, ent.Name()))
		}
	}
	return &Tiered{
		dir:      dir,
		verts:    verts,
		overlay:  make([]graph.AdjSet, len(verts)),
		promoted: make([]bool, len(verts)),
		budget:   budget,
		prio:     prio,
	}, nil
}

// NewMem returns a store without a directory: one empty in-memory slot
// per owned vertex. verts maps slots to their owner labels (the
// gap-encoding anchors AppendList needs) and is retained, not copied.
func NewMem(verts []graph.Vertex) *Tiered {
	return &Tiered{verts: verts, overlay: make([]graph.AdjSet, len(verts))}
}

// inOverlay reports whether slot li's live content is the overlay set
// (no base yet, or promoted since the last compaction).
func (t *Tiered) inOverlay(li int) bool { return t.seg == nil || t.promoted[li] }

// list returns slot li's encoded base list; only valid when !inOverlay.
func (t *Tiered) list(li int) []byte { return t.seg.List(li) }

// corrupt reports an undecodable base list. The segment passed its CRC
// when opened, so this is an invariant violation (an encoder bug or
// in-flight memory damage), not an I/O condition the engine could
// handle — the read paths have no error returns, matching AdjSet.
func (t *Tiered) corrupt(li int, err error) {
	panic(fmt.Sprintf("store: base segment %s slot %d undecodable after CRC pass: %v", t.seg.Path(), li, err))
}

// materialize finalizes a streamed base and promotes slot li if it is
// not yet an overlay set: its base list is decoded into one (with fresh
// priorities from the promotion stream) and the base copy goes dead
// until the next compaction.
func (t *Tiered) materialize(li int) {
	t.ensureLoaded()
	if t.inOverlay(li) {
		return
	}
	keys, origs, _, err := graph.DecodeAdjSet(t.list(li), t.verts[li], t.keys[:0], t.origs[:0])
	if err != nil {
		t.corrupt(li, err)
	}
	t.keys, t.origs = keys, origs
	prios := t.prios[:0]
	for range keys {
		prios = append(prios, t.prio())
	}
	t.prios = prios
	t.overlay[li].BuildSortedFlagged(&t.arena, keys, prios, origs)
	t.promoted[li] = true
	t.promotedCount++
	t.baseLive -= int64(len(keys))
	t.addEntries(int64(len(keys)))
}

// ensureWritable makes slot li's live content an overlay set; inlinable,
// so a slot already there costs two branches.
func (t *Tiered) ensureWritable(li int) {
	if t.w != nil || !t.inOverlay(li) {
		t.materialize(li)
	}
}

// ensureLoaded finalizes an open streaming bulk-build writer so reads and
// point mutations see a complete base; it is the one branch every call
// pays, so it stays inlinable.
func (t *Tiered) ensureLoaded() {
	if t.w != nil {
		t.finishStream()
	}
}

// finishStream finalizes the streaming writer. Slots never bulk-filled
// get empty lists. The streamed segment replaces the old base, if any,
// which held nothing live (streamBuild's precondition); outside the
// initial load that is a full rewrite of the base and counts as a
// compaction.
func (t *Tiered) finishStream() {
	start := clock.Now()
	for t.w.Slots() < len(t.verts) {
		if err := t.w.Append(emptyList); err != nil {
			t.w.Abort()
			t.w = nil
			panic(fmt.Sprintf("store: finishing streamed base segment: %v", err))
		}
	}
	seg, err := t.w.Finalize()
	t.w = nil
	if err != nil {
		panic(fmt.Sprintf("store: finalizing streamed base segment: %v", err))
	}
	if t.seg != nil {
		t.compactions++
		t.compactNs += int64(clock.Since(start))
	}
	t.installBase(seg, t.wEntries)
}

// installBase makes seg, holding live entries, the base segment and
// every slot unpromoted; the previous base is unmapped and removed. The
// overlay must be empty.
func (t *Tiered) installBase(seg *Segment, live int64) {
	if t.seg != nil {
		old := t.seg.Path()
		_ = t.seg.Close()
		_ = os.Remove(old)
	}
	t.seg = seg
	clear(t.promoted)
	t.promotedCount = 0
	t.baseLive = live
}

func (t *Tiered) addEntries(n int64) {
	t.entries += n
	if t.entries > t.hwm {
		t.hwm = t.entries
	}
}

// Len implements Store.
func (t *Tiered) Len(li int) int {
	t.ensureLoaded()
	if t.inOverlay(li) {
		return t.overlay[li].Len()
	}
	n, err := graph.AdjSetBytesLen(t.list(li))
	if err != nil {
		t.corrupt(li, err)
	}
	return n
}

// Originals implements Store.
func (t *Tiered) Originals(li int) int {
	t.ensureLoaded()
	if t.inOverlay(li) {
		return t.overlay[li].Originals()
	}
	cnt := 0
	_, err := graph.WalkAdjSetBytes(t.list(li), t.verts[li], func(_ graph.Vertex, orig bool) bool {
		if orig {
			cnt++
		}
		return true
	})
	if err != nil {
		t.corrupt(li, err)
	}
	return cnt
}

// Contains implements Store.
func (t *Tiered) Contains(li int, v graph.Vertex) bool {
	t.ensureLoaded()
	if t.inOverlay(li) {
		return t.overlay[li].Contains(v)
	}
	found := false
	_, err := graph.WalkAdjSetBytes(t.list(li), t.verts[li], func(k graph.Vertex, _ bool) bool {
		if k >= v {
			found = k == v
			return false
		}
		return true
	})
	if err != nil {
		t.corrupt(li, err)
	}
	return found
}

// Original implements Store.
func (t *Tiered) Original(li int, v graph.Vertex) bool {
	t.ensureLoaded()
	if t.inOverlay(li) {
		return t.overlay[li].Original(v)
	}
	res := false
	_, err := graph.WalkAdjSetBytes(t.list(li), t.verts[li], func(k graph.Vertex, orig bool) bool {
		if k >= v {
			res = k == v && orig
			return false
		}
		return true
	})
	if err != nil {
		t.corrupt(li, err)
	}
	return res
}

// Kth implements Store, promoting the slot like a mutation.
func (t *Tiered) Kth(li, k int) (graph.Vertex, bool) {
	t.ensureWritable(li)
	return t.overlay[li].Kth(k)
}

// TakeKth implements Store: the slot is promoted, the entry leaves it.
func (t *Tiered) TakeKth(li, k int) (graph.Vertex, bool) {
	t.ensureWritable(li)
	t.entries--
	return t.overlay[li].TakeKthArena(&t.arena, k)
}

// Insert implements Store.
func (t *Tiered) Insert(li int, v graph.Vertex, original bool, prio uint32) bool {
	t.ensureWritable(li)
	ok := t.overlay[li].InsertArena(&t.arena, v, original, prio)
	if ok {
		t.addEntries(1)
	}
	return ok
}

// Delete implements Store.
func (t *Tiered) Delete(li int, v graph.Vertex) (found, original bool) {
	t.ensureWritable(li)
	found, original = t.overlay[li].DeleteArena(&t.arena, v)
	if found {
		t.entries--
	}
	return found, original
}

// Drain implements Store. Draining an unpromoted slot streams the base
// list through fn and marks the slot promoted-empty — the base copy is
// dead, and reinserts land in the overlay.
func (t *Tiered) Drain(li int, fn func(v graph.Vertex, original bool)) {
	t.ensureLoaded()
	if t.inOverlay(li) {
		n := int64(t.overlay[li].Len())
		t.overlay[li].DrainArena(&t.arena, fn)
		if t.dir != "" {
			// A refill streams to a segment; keep no array. Without a
			// directory a refill reuses this one.
			t.overlay[li] = graph.AdjSet{}
		}
		t.entries -= n
		return
	}
	n := int64(0)
	_, err := graph.WalkAdjSetBytes(t.list(li), t.verts[li], func(v graph.Vertex, orig bool) bool {
		fn(v, orig)
		n++
		return true
	})
	if err != nil {
		t.corrupt(li, err)
	}
	t.promoted[li] = true
	t.promotedCount++
	t.baseLive -= n
}

// Walk implements Store.
func (t *Tiered) Walk(li int, fn func(v graph.Vertex, original bool) bool) {
	t.ensureLoaded()
	if t.inOverlay(li) {
		t.overlay[li].Walk(fn)
		return
	}
	if _, err := graph.WalkAdjSetBytes(t.list(li), t.verts[li], fn); err != nil {
		t.corrupt(li, err)
	}
}

// streamBuild routes an ascending-slot bulk build of n entries straight
// into a segment writer, reporting whether it consumed the call. The
// first BuildSorted* on a store holding nothing — pristine, or drained
// to the last entry — opens the writer: a full rewrite with no overlay
// sets. Builds into a store that still holds
// entries, or that has no directory, take the overlay path.
func (t *Tiered) streamBuild(li, n int, enc func([]byte, graph.Vertex) []byte) bool {
	if t.w == nil {
		if t.dir == "" || t.entries != 0 || t.baseLive != 0 {
			return false
		}
		path := filepath.Join(t.dir, segName(t.gen+1))
		w, err := NewSegmentWriter(path, len(t.verts))
		if err != nil {
			panic(fmt.Sprintf("store: opening streamed base segment: %v", err))
		}
		t.gen++
		t.w, t.wEntries = w, 0
	}
	if li < t.w.Slots() {
		panic(fmt.Sprintf("store: bulk load revisited slot %d", li))
	}
	for t.w.Slots() < li {
		if err := t.w.Append(emptyList); err != nil {
			panic(fmt.Sprintf("store: streaming base segment: %v", err))
		}
	}
	t.encBuf = enc(t.encBuf[:0], t.verts[li])
	if err := t.w.Append(t.encBuf); err != nil {
		panic(fmt.Sprintf("store: streaming base segment: %v", err))
	}
	t.wEntries += int64(n)
	return true
}

// BuildSorted implements Store. Ascending-slot builds of an empty store
// stream straight to the base segment — no AdjSets are materialized, so
// the memory of a bootstrap or a full rebuild is O(scratch), not
// O(|E_local|).
func (t *Tiered) BuildSorted(li int, keys []graph.Vertex, prios []uint32, original bool) {
	if t.streamBuild(li, len(keys), func(buf []byte, owner graph.Vertex) []byte {
		return graph.AppendSortedAdj(buf, owner, keys, original)
	}) {
		return
	}
	t.ensureWritable(li)
	t.overlay[li].BuildSorted(&t.arena, keys, prios, original)
	t.addEntries(int64(len(keys)))
}

// BuildSortedFlagged implements Store; see BuildSorted.
func (t *Tiered) BuildSortedFlagged(li int, keys []graph.Vertex, prios []uint32, origs []bool) {
	if t.streamBuild(li, len(keys), func(buf []byte, owner graph.Vertex) []byte {
		return graph.AppendSortedAdjFlagged(buf, owner, keys, origs)
	}) {
		return
	}
	t.ensureWritable(li)
	t.overlay[li].BuildSortedFlagged(&t.arena, keys, prios, origs)
	t.addEntries(int64(len(keys)))
}

// EndLoad implements Store: the partition is complete, so the first base
// segment is established (a streamed writer finalizes; an Insert-loaded
// overlay compacts) and an unset overlay budget resolves from the number
// of entries loaded. A store that loaded nothing writes no segment.
func (t *Tiered) EndLoad() error {
	t.ensureLoaded()
	if t.budget <= 0 {
		t.budget = max((t.baseLive+t.entries)/4, autoBudgetFloor)
	}
	if t.seg == nil && t.entries == 0 {
		return nil
	}
	return t.Compact()
}

// EndStep implements Store: past-budget overlays compact at step
// boundaries, where no reads are outstanding.
func (t *Tiered) EndStep() error {
	t.ensureLoaded()
	if t.entries <= t.budget {
		return nil
	}
	return t.Compact()
}

// Compact merges the overlay into a new base segment: one sequential
// write of all nv slots — promoted slots re-encoded from their overlay
// sets (then emptied), unpromoted slots copied byte
// for byte from the old mapping — then an atomic rename, after which the
// old segment is unmapped and removed. A crash anywhere in between
// leaves either the old or the new generation complete on disk. Without
// a directory there is no base to merge into, and Compact does nothing.
func (t *Tiered) Compact() error {
	t.ensureLoaded()
	if t.dir == "" || t.seg != nil && t.promotedCount == 0 {
		return nil
	}
	start := clock.Now()
	seg, err := t.writeSlots(filepath.Join(t.dir, segName(t.gen+1)))
	if err != nil {
		return err
	}
	t.gen++
	for li := range t.verts {
		// Without a prior base every slot lived in the overlay, flagged
		// or not; with one, only promoted slots did.
		if t.inOverlay(li) {
			// Hub nodes go back to the arena; a flat slot's array is
			// dropped, or the overlay's memory would grow to the whole
			// partition instead of the budget.
			t.overlay[li].DrainArena(&t.arena, func(graph.Vertex, bool) {})
			t.overlay[li] = graph.AdjSet{}
		}
	}
	t.installBase(seg, t.baseLive+t.entries)
	t.entries = 0
	t.compactions++
	t.compactNs += int64(clock.Since(start))
	return nil
}

// writeSlots writes every slot in slot order (AppendList) into a new
// segment at path and returns it finalized and mapped.
func (t *Tiered) writeSlots(path string) (*Segment, error) {
	w, err := NewSegmentWriter(path, len(t.verts))
	if err != nil {
		return nil, err
	}
	for li := range t.verts {
		t.encBuf = t.AppendList(t.encBuf[:0], li)
		if err := w.Append(t.encBuf); err != nil {
			w.Abort()
			return nil, err
		}
	}
	return w.Finalize()
}

// AppendList implements Store.
func (t *Tiered) AppendList(buf []byte, li int) []byte {
	t.ensureLoaded()
	if t.inOverlay(li) {
		return t.overlay[li].AppendAdjSet(buf, t.verts[li])
	}
	return append(buf, t.list(li)...)
}

// Stats implements Store.
func (t *Tiered) Stats() Stats {
	if t.dir == "" {
		return Stats{}
	}
	s := Stats{
		OverlayEntries: t.entries,
		OverlayHWM:     t.hwm,
		Compactions:    t.compactions,
		CompactNs:      t.compactNs,
	}
	if t.seg != nil {
		s.BaseBytes = t.seg.Size()
	}
	return s
}

// Close implements Store: the mapping is released and the rank's spill
// directory removed.
func (t *Tiered) Close() error {
	if t.dir == "" {
		return nil
	}
	if t.w != nil {
		t.w.Abort()
		t.w = nil
	}
	var err error
	if t.seg != nil {
		err = t.seg.Close()
		t.seg = nil
	}
	if rerr := os.RemoveAll(t.dir); err == nil {
		err = rerr
	}
	return err
}
