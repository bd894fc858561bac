package core

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"edgeswitch/internal/graph"
	"edgeswitch/internal/rng"
	"edgeswitch/internal/store"
)

// Step-boundary snapshots: at a boundary the engine is a closed system —
// the message plane is empty, the randomizer is quiesced (asserted by
// checkStepInvariants), and the sanitizer's degree deltas have been
// folded into the exchange — so a rank's entire resumable state is its
// partition (adjacency keys + original flags), its RNG stream position,
// the randomizer's cursor, and a handful of counters. Treap priorities
// are deliberately not captured: uniform edge selection is key-order
// based (Fenwick prefix + Kth), so priorities shape only the treap's
// internal form and a restore draws fresh ones from a dedicated stream,
// leaving the run RNG at exactly its captured position.
//
// Layout (little-endian), with a CRC32C (Castagnoli) trailer over
// everything before it:
//
//	"ESSN" | version u16 | algo u8 | storage u8 | rank u32 | size u32
//	step i64 | n u32 | nv u32 | m i64 | seed u64
//	rnd state 4×u64 | cursor u64
//	initialEdges i64 | origLocal i64
//	opsInitiated, restarts, forfeited, msgsSent, flushes 5×i64
//	nv × adjacency list (graph.AppendAdjSet)
//	crc32c u32
//
// The storage byte selects the adjacency section's form. 0 (inline)
// embeds the nv adjacency lists as sketched above -- the in-memory
// store's mode. 1 (external) embeds only a 12-byte identity -- segment
// size u64 + segment CRC32C u32 -- of a base-segment file hard-linked
// next to the snapshot (checkpoint.go's ckSegPath): the tiered store
// already keeps the partition encoded on disk, so the checkpoint links
// the current base instead of re-encoding O(|E_local|) bytes into the
// snapshot. Either mode restores into either store.

// snapMagic and snapVersion identify a snapshot file; a version bump
// invalidates old checkpoints loudly instead of misdecoding them.
const (
	snapMagic   = "ESSN"
	snapVersion = 2
)

// The snapshot storage modes (header byte 7).
const (
	snapStorageInline   = 0 // adjacency lists embedded in the snapshot
	snapStorageExternal = 1 // hard-linked base segment, identity embedded
)

// segIdentity names an external base segment by content: the size and
// trailer CRC32C the restore must find at the linked path.
type segIdentity struct {
	size int64
	crc  uint32
}

// snapHeaderLen is the fixed-size prefix before the adjacency encoding.
const snapHeaderLen = 144

// castagnoli is the CRC32C table shared by snapshot trailers and the
// manifest's degree-sequence checksum.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// restorePrioSplit offsets the per-rank stream index of the restore-only
// priority RNG far away from every stream the run itself draws from
// (ranks use indices rank+2, HP-U uses 1<<20).
const restorePrioSplit = 1 << 21

// snapAlgoByte maps the algorithm to its snapshot byte.
func snapAlgoByte(a Algorithm) uint8 {
	if a == AlgoCurveball {
		return 1
	}
	return 0
}

// snapState is the decoded fixed-size portion of a snapshot.
type snapState struct {
	algo         uint8
	rank, size   int
	step         int64
	n, nv        int
	m            int64
	seed         uint64
	rnd          [4]uint64
	cursor       uint64
	initialEdges int64
	origLocal    int64
	opsInitiated int64
	restarts     int64
	forfeited    int64
	msgsSent     int64
	flushes      int64
	storage      uint8
	seg          segIdentity // external mode only
}

// encodeSnapshot serializes this rank's resumable state at a quiesced
// step boundary, with the CRC32C trailer appended. Call only between
// steps (the checkpoint hook in run). A non-nil ext switches the
// adjacency section to external mode: the snapshot embeds only the
// hard-linked base segment's identity.
func (e *rankEngine) encodeSnapshot(ext *segIdentity) []byte {
	buf := make([]byte, snapHeaderLen, snapHeaderLen+16*len(e.verts))
	copy(buf[0:], snapMagic)
	le := binary.LittleEndian
	le.PutUint16(buf[4:], snapVersion)
	algo := AlgoEdgeSwitch
	if _, ok := e.rand.(*curveball); ok {
		algo = AlgoCurveball
	}
	buf[6] = snapAlgoByte(algo)
	if ext != nil {
		buf[7] = snapStorageExternal
	}
	le.PutUint32(buf[8:], uint32(e.c.Rank()))
	le.PutUint32(buf[12:], uint32(e.c.Size()))
	le.PutUint64(buf[16:], uint64(e.stepsRun))
	le.PutUint32(buf[24:], uint32(e.n))
	le.PutUint32(buf[28:], uint32(len(e.verts)))
	le.PutUint64(buf[32:], uint64(e.m))
	le.PutUint64(buf[40:], e.seed)
	st := e.rnd.State()
	for i, w := range st {
		le.PutUint64(buf[48+8*i:], w)
	}
	le.PutUint64(buf[80:], e.rand.cursor())
	le.PutUint64(buf[88:], uint64(e.initialEdges))
	le.PutUint64(buf[96:], uint64(e.origLocal))
	counters := []int64{e.opsInitiated, e.restarts, e.forfeited, e.msgsSent, e.flushes}
	for i, v := range counters {
		le.PutUint64(buf[104+8*i:], uint64(v))
	}
	if ext != nil {
		var id [12]byte
		le.PutUint64(id[0:], uint64(ext.size))
		le.PutUint32(id[8:], ext.crc)
		buf = append(buf, id[:]...)
	} else {
		for li := range e.verts {
			buf = e.adj.AppendEncoded(buf, li)
		}
	}
	var trailer [4]byte
	le.PutUint32(trailer[:], crc32.Checksum(buf, castagnoli))
	return append(buf, trailer[:]...)
}

// snapshotCRC returns the stored trailer CRC of an encoded snapshot.
func snapshotCRC(data []byte) (uint32, error) {
	if len(data) < snapHeaderLen+4 {
		return 0, fmt.Errorf("core: snapshot truncated (%d bytes)", len(data))
	}
	return binary.LittleEndian.Uint32(data[len(data)-4:]), nil
}

// decodeSnapshotHeader verifies the magic, version and CRC32C trailer
// and decodes the fixed-size state. The adjacency bytes are returned for
// loadSnapshotAdjacency.
func decodeSnapshotHeader(data []byte) (*snapState, []byte, error) {
	if len(data) < snapHeaderLen+4 {
		return nil, nil, fmt.Errorf("core: snapshot truncated (%d bytes)", len(data))
	}
	if string(data[0:4]) != snapMagic {
		return nil, nil, fmt.Errorf("core: snapshot has bad magic %q", data[0:4])
	}
	le := binary.LittleEndian
	body, trailer := data[:len(data)-4], le.Uint32(data[len(data)-4:])
	if got := crc32.Checksum(body, castagnoli); got != trailer {
		return nil, nil, fmt.Errorf("core: snapshot CRC mismatch: file carries %08x, contents hash to %08x — the checkpoint file is corrupted; delete it (or the whole step's checkpoint) and restore an earlier step", trailer, got)
	}
	if v := le.Uint16(data[4:]); v != snapVersion {
		return nil, nil, fmt.Errorf("core: snapshot version %d, this binary reads %d", v, snapVersion)
	}
	s := &snapState{
		algo:    data[6],
		storage: data[7],
		rank:    int(le.Uint32(data[8:])),
		size:    int(le.Uint32(data[12:])),
		step:    int64(le.Uint64(data[16:])),
		n:       int(le.Uint32(data[24:])),
		nv:      int(le.Uint32(data[28:])),
		m:       int64(le.Uint64(data[32:])),
		seed:    le.Uint64(data[40:]),
		cursor:  le.Uint64(data[80:]),
	}
	for i := range s.rnd {
		s.rnd[i] = le.Uint64(data[48+8*i:])
	}
	counters := make([]int64, 5)
	for i := range counters {
		counters[i] = int64(le.Uint64(data[104+8*i:]))
	}
	s.initialEdges = int64(le.Uint64(data[88:]))
	s.origLocal = int64(le.Uint64(data[96:]))
	s.opsInitiated, s.restarts, s.forfeited, s.msgsSent, s.flushes = counters[0], counters[1], counters[2], counters[3], counters[4]
	adj := body[snapHeaderLen:]
	switch s.storage {
	case snapStorageInline:
	case snapStorageExternal:
		if len(adj) != 12 {
			return nil, nil, fmt.Errorf("core: external snapshot carries %d adjacency bytes, want the 12-byte segment identity", len(adj))
		}
		s.seg = segIdentity{size: int64(le.Uint64(adj[0:])), crc: le.Uint32(adj[8:])}
	default:
		return nil, nil, fmt.Errorf("core: snapshot has unknown storage mode %d", s.storage)
	}
	return s, adj, nil
}

// loadSnapshotAdjacency rebuilds the engine's local storage from the
// snapshot's adjacency bytes: each slot's keys and original flags are
// decoded and bulk-built (graph.AdjSet.BuildSortedFlagged), with fresh
// treap priorities drawn from a restore-only stream so the run RNG stays
// at its captured position. The Fenwick tree is rebuilt from the counts.
func (e *rankEngine) loadSnapshotAdjacency(adjData []byte) error {
	prioRnd := rng.Split(e.seed, restorePrioSplit+e.c.Rank())
	counts := make([]int64, len(e.verts))
	var keys []graph.Vertex
	var origs []bool
	var prios []uint32
	var err error
	for li := range e.verts {
		keys, origs, adjData, err = graph.DecodeAdjSet(adjData, e.verts[li], keys[:0], origs[:0])
		if err != nil {
			return err
		}
		prios = prios[:0]
		for range keys {
			prios = append(prios, prioRnd.Uint32())
		}
		e.adj.BuildSortedFlagged(li, keys, prios, origs)
		counts[li] = int64(len(keys))
	}
	if len(adjData) != 0 {
		return fmt.Errorf("core: snapshot carries %d trailing adjacency bytes", len(adjData))
	}
	e.deg = graph.NewFenwickFrom(counts)
	return nil
}

// loadSnapshotSegment rebuilds the engine's local storage from an
// external snapshot's hard-linked base segment. A tiered store adopts
// the file directly (hard link or copy into its spill directory, full
// CRC verification — no decode, no re-encode); an in-memory store
// decodes every list out of the mapping and bulk-builds its treaps with
// priorities from the restore-only stream, exactly like the inline
// path. Either way the Fenwick tree is rebuilt from the store's counts.
func (e *rankEngine) loadSnapshotSegment(path string, id segIdentity) error {
	if ts, ok := e.adj.(*store.Tiered); ok {
		if err := ts.AdoptSegment(path, id.crc, id.size); err != nil {
			return err
		}
	} else {
		seg, err := store.OpenSegment(path)
		if err != nil {
			return err
		}
		defer seg.Close()
		if seg.CRC() != id.crc || seg.Size() != id.size {
			return fmt.Errorf("core: linked segment %s is (crc %08x, %d bytes), snapshot says (crc %08x, %d bytes)",
				path, seg.CRC(), seg.Size(), id.crc, id.size)
		}
		if seg.NV() != len(e.verts) {
			return fmt.Errorf("core: linked segment %s holds %d slots, partition owns %d", path, seg.NV(), len(e.verts))
		}
		prioRnd := rng.Split(e.seed, restorePrioSplit+e.c.Rank())
		var keys []graph.Vertex
		var origs []bool
		var prios []uint32
		for li := range e.verts {
			keys, origs, _, err = graph.DecodeAdjSet(seg.List(li), e.verts[li], keys[:0], origs[:0])
			if err != nil {
				return err
			}
			prios = prios[:0]
			for range keys {
				prios = append(prios, prioRnd.Uint32())
			}
			e.adj.BuildSortedFlagged(li, keys, prios, origs)
		}
	}
	counts := make([]int64, len(e.verts))
	for li := range counts {
		counts[li] = int64(e.adj.Len(li))
	}
	e.deg = graph.NewFenwickFrom(counts)
	return nil
}

// validateSnapshot cross-checks the decoded header against this rank's
// world and run identity; any mismatch means the checkpoint belongs to a
// different run and must not be resumed.
func (e *rankEngine) validateSnapshot(s *snapState, algo Algorithm) error {
	switch {
	case s.rank != e.c.Rank() || s.size != e.c.Size():
		return fmt.Errorf("core: snapshot is for rank %d of %d, this is rank %d of %d", s.rank, s.size, e.c.Rank(), e.c.Size())
	case s.n != e.n:
		return fmt.Errorf("core: snapshot has %d vertices, this run has %d", s.n, e.n)
	case s.nv != len(e.verts):
		return fmt.Errorf("core: snapshot holds %d local vertices, this partition owns %d", s.nv, len(e.verts))
	case s.seed != e.seed:
		return fmt.Errorf("core: snapshot was taken under seed %d, this run uses %d", s.seed, e.seed)
	case s.algo != snapAlgoByte(algo):
		return fmt.Errorf("core: snapshot algorithm byte %d does not match configured algorithm %q", s.algo, algo)
	}
	return nil
}
