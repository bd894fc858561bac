// Package store is the per-rank partition storage seam of the parallel
// engine: an AdjSet-shaped, slot-indexed interface with two
// implementations — Mem, one graph.AdjSet per slot all in memory, and
// Tiered, a two-tier out-of-core store that keeps an immutable mmap'd
// CSR base segment on disk with the AdjSets demoted to a bounded delta
// overlay of vertices touched since the last compaction
// (DESIGN.md §7). The engine mutates storage only through this
// interface, so both randomizers (edge-switch conversations and
// curveball's whole-partition drains) run unchanged over either tier.
package store

import "edgeswitch/internal/graph"

// Store holds one rank's partition: slot li is the reduced adjacency
// list of the rank's li-th owned vertex. The contract mirrors
// graph.AdjSet per slot; implementations are single-goroutine, like the
// engine that owns them.
//
// Load protocol: bulk loads arrive as ascending-slot BuildSorted /
// BuildSortedFlagged calls or as arbitrary Inserts; EndLoad marks the
// partition complete (Tiered establishes its first base segment there).
// A store whose every slot has been drained may be rebuilt the same way
// at any time — curveball does once per round — and Tiered then streams
// the ascending-slot builds into its next base segment.
// EndStep is the engine's step-boundary hook, the only point a
// compaction may run — mid-step, outstanding reads stay valid.
type Store interface {
	// Len reports slot li's entry count.
	Len(li int) int
	// Originals reports how many of slot li's entries still carry the
	// original flag.
	Originals(li int) int
	// Contains reports whether v is in slot li.
	Contains(li int, v graph.Vertex) bool
	// Original reports whether v is present in slot li and still flagged
	// original.
	Original(li int, v graph.Vertex) bool
	// Kth returns slot li's k-th smallest entry and its flag; it panics
	// out of range, like AdjSet.Kth.
	Kth(li, k int) (graph.Vertex, bool)
	// TakeKth is Kth plus Delete of that entry in one search (the
	// engine's takeLocal).
	TakeKth(li, k int) (graph.Vertex, bool)
	// Insert adds v to slot li with the given flag and treap priority,
	// reporting false on a duplicate.
	Insert(li int, v graph.Vertex, original bool, prio uint32) bool
	// Delete removes v from slot li, reporting presence and the flag of
	// the removed entry.
	Delete(li int, v graph.Vertex) (found, original bool)
	// Drain empties slot li, invoking fn for each entry in ascending
	// order — curveball's per-round bulk extraction.
	Drain(li int, fn func(v graph.Vertex, original bool))
	// Walk visits slot li in ascending order without mutating it; fn
	// returning false stops early.
	Walk(li int, fn func(v graph.Vertex, original bool) bool)
	// BuildSorted bulk-fills empty slot li from strictly ascending keys,
	// all entries sharing one flag. Priorities are ignored wherever no
	// treap is materialized for the slot.
	BuildSorted(li int, keys []graph.Vertex, prios []uint32, original bool)
	// BuildSortedFlagged is BuildSorted with per-entry flags.
	BuildSortedFlagged(li int, keys []graph.Vertex, prios []uint32, origs []bool)
	// SaveSegment publishes the whole partition as a segment file at path
	// (replacing any file there) and reports the file's size and trailer
	// CRC32C — a checkpoint's partition image. Call between steps.
	SaveSegment(path string) (size int64, crc uint32, err error)
	// EndLoad completes the bulk-load phase.
	EndLoad() error
	// EndStep runs at every step boundary; Tiered compacts here when the
	// overlay exceeds its budget.
	EndStep() error
	// Stats reports the spill counters (zero for Mem).
	Stats() Stats
	// Close releases every resource (mappings, spill files). The store
	// is unusable afterwards.
	Close() error
}

// Stats are the observability counters of a tiered store, surfaced
// through core.Result and `edgeswitch -v` so benchmark runs can
// attribute time to compaction vs switching.
type Stats struct {
	// BaseBytes is the current base segment's on-disk size (0 before the
	// first compaction and always 0 for Mem).
	BaseBytes int64
	// OverlayEntries is the overlay's current entry count.
	OverlayEntries int64
	// OverlayHWM is the overlay's entry high-water mark.
	OverlayHWM int64
	// Compactions counts base-segment rewrites.
	Compactions int64
	// CompactNs is the cumulative wall-clock nanoseconds spent
	// compacting.
	CompactNs int64
}

// Mem is the all-in-memory Store: a graph.AdjSet per slot (a flat sorted
// array; a treap over one shared node arena for hubs).
type Mem struct {
	verts []graph.Vertex
	adj   []graph.AdjSet
	arena graph.NodeArena
}

// NewMem returns an in-memory store with one empty slot per owned
// vertex; verts maps slots to their owner labels (the gap-encoding
// anchors SaveSegment needs) and is retained, not copied.
func NewMem(verts []graph.Vertex) *Mem {
	return &Mem{verts: verts, adj: make([]graph.AdjSet, len(verts))}
}

// Len implements Store.
func (m *Mem) Len(li int) int { return m.adj[li].Len() }

// Originals implements Store.
func (m *Mem) Originals(li int) int { return m.adj[li].Originals() }

// Contains implements Store.
func (m *Mem) Contains(li int, v graph.Vertex) bool { return m.adj[li].Contains(v) }

// Original implements Store.
func (m *Mem) Original(li int, v graph.Vertex) bool { return m.adj[li].Original(v) }

// Kth implements Store.
func (m *Mem) Kth(li, k int) (graph.Vertex, bool) { return m.adj[li].Kth(k) }

// TakeKth implements Store.
func (m *Mem) TakeKth(li, k int) (graph.Vertex, bool) { return m.adj[li].TakeKthArena(&m.arena, k) }

// Insert implements Store.
func (m *Mem) Insert(li int, v graph.Vertex, original bool, prio uint32) bool {
	return m.adj[li].InsertArena(&m.arena, v, original, prio)
}

// Delete implements Store.
func (m *Mem) Delete(li int, v graph.Vertex) (found, original bool) {
	return m.adj[li].DeleteArena(&m.arena, v)
}

// Drain implements Store.
func (m *Mem) Drain(li int, fn func(v graph.Vertex, original bool)) {
	m.adj[li].DrainArena(&m.arena, fn)
}

// Walk implements Store.
func (m *Mem) Walk(li int, fn func(v graph.Vertex, original bool) bool) {
	m.adj[li].Walk(fn)
}

// BuildSorted implements Store.
func (m *Mem) BuildSorted(li int, keys []graph.Vertex, prios []uint32, original bool) {
	m.adj[li].BuildSorted(&m.arena, keys, prios, original)
}

// BuildSortedFlagged implements Store.
func (m *Mem) BuildSortedFlagged(li int, keys []graph.Vertex, prios []uint32, origs []bool) {
	m.adj[li].BuildSortedFlagged(&m.arena, keys, prios, origs)
}

// SaveSegment implements Store: every slot is encoded and streamed
// through a SegmentWriter (fsync + atomic rename, like a tiered base).
func (m *Mem) SaveSegment(path string) (int64, uint32, error) {
	w, err := NewSegmentWriter(path, len(m.verts))
	if err != nil {
		return 0, 0, err
	}
	var buf []byte
	for li := range m.adj {
		buf = m.adj[li].AppendAdjSet(buf[:0], m.verts[li])
		if err := w.Append(buf); err != nil {
			w.Abort()
			return 0, 0, err
		}
	}
	seg, err := w.Finalize()
	if err != nil {
		return 0, 0, err
	}
	return seg.Size(), seg.CRC(), seg.Close()
}

// EndLoad implements Store (a no-op).
func (m *Mem) EndLoad() error { return nil }

// EndStep implements Store (a no-op).
func (m *Mem) EndStep() error { return nil }

// Stats implements Store (all zeros).
func (m *Mem) Stats() Stats { return Stats{} }

// Close implements Store (a no-op).
func (m *Mem) Close() error { return nil }
