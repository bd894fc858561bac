// Package store is the per-rank partition storage seam of the parallel
// engine: an AdjSet-shaped, slot-indexed interface with one
// implementation, Tiered — one graph.AdjSet per touched slot in an
// in-memory overlay, over an immutable mmap'd CSR base segment when the
// store has a directory (DESIGN.md §7). Without a directory (NewMem)
// every slot stays in the overlay for good and the store never touches
// the filesystem until a checkpoint asks for its segment image. The
// engine mutates storage only through this interface, so both
// randomizers (edge-switch conversations and curveball's
// whole-partition drains) run unchanged with or without a directory.
package store

import "edgeswitch/internal/graph"

// Store holds one rank's partition: slot li is the reduced adjacency
// list of the rank's li-th owned vertex. The contract mirrors
// graph.AdjSet per slot; implementations are single-goroutine, like the
// engine that owns them.
//
// Load protocol: bulk loads arrive as ascending-slot BuildSorted /
// BuildSortedFlagged calls or as arbitrary Inserts; EndLoad marks the
// partition complete (a store with a directory establishes its first
// base segment there). A store whose every slot has been drained may be
// rebuilt the same way at any time — curveball does once per round — and
// a store with a directory then streams the ascending-slot builds into
// its next base segment.
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
	// EndStep runs at every step boundary; a store with a directory
	// compacts here when the overlay exceeds its budget.
	EndStep() error
	// Stats reports the spill counters (zero without a directory).
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
	// first compaction).
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
