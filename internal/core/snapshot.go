package core

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// Step-boundary snapshots: at a boundary the engine is a closed system —
// the message plane is empty, the randomizer is quiesced (asserted by
// checkStepInvariants), and the sanitizer's degree deltas have been
// folded into the exchange — so a rank's entire resumable state is its
// partition (adjacency keys + original flags), its RNG stream position,
// the randomizer's cursor, and a handful of counters. The partition is
// always a segment file next to the snapshot (checkpoint.go's ckSegPath,
// written by Store.SaveSegment: an in-memory store streams its slots
// through a SegmentWriter, a tiered store hard-links its current base);
// the snapshot itself is a fixed-size record naming that file by content.
// Treap priorities are deliberately not captured: uniform edge selection
// is key-order based (Fenwick prefix + Kth), so priorities shape only the
// treap's internal form. A restore feeds the segment's entries to
// loadSlotEdges like any bootstrap, whose priority draws from the run RNG
// are then overwritten by the captured stream position.
//
// Layout (little-endian), snapLen bytes in all, with a CRC32C
// (Castagnoli) trailer over everything before it:
//
//	"ESSN" | version u16 | algo u8 | zero u8 | rank u32 | size u32
//	step i64 | n u32 | nv u32 | m i64 | seed u64
//	rnd state 4×u64 | cursor u64
//	initialEdges i64 | origLocal i64
//	opsInitiated, restarts, forfeited, msgsSent, flushes 5×i64
//	segment size u64 | segment crc32c u32
//	crc32c u32

// snapMagic and snapVersion identify a snapshot file; a version bump
// invalidates old checkpoints loudly instead of misdecoding them.
const (
	snapMagic   = "ESSN"
	snapVersion = 3
)

// segIdentity names a checkpoint's segment file by content: the size and
// trailer CRC32C the restore must find at ckSegPath.
type segIdentity struct {
	size int64
	crc  uint32
}

// snapHeaderLen is the run state ahead of the segment identity; snapLen
// the whole file.
const (
	snapHeaderLen = 144
	snapLen       = snapHeaderLen + 12 + 4
)

// castagnoli is the CRC32C table shared by snapshot trailers and the
// manifest's degree-sequence checksum.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// snapAlgoByte maps the algorithm to its snapshot byte.
func snapAlgoByte(a Algorithm) uint8 {
	if a == AlgoCurveball {
		return 1
	}
	return 0
}

// snapState is a decoded snapshot.
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
	seg          segIdentity
}

// encodeSnapshot serializes this rank's resumable state at a quiesced
// step boundary, with the CRC32C trailer appended. Call only between
// steps (the checkpoint hook in run); seg identifies the segment file
// the store just saved.
func (e *rankEngine) encodeSnapshot(seg segIdentity) []byte {
	buf := make([]byte, snapLen)
	copy(buf[0:], snapMagic)
	le := binary.LittleEndian
	le.PutUint16(buf[4:], snapVersion)
	algo := AlgoEdgeSwitch
	if _, ok := e.rand.(*curveball); ok {
		algo = AlgoCurveball
	}
	buf[6] = snapAlgoByte(algo)
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
	le.PutUint64(buf[snapHeaderLen:], uint64(seg.size))
	le.PutUint32(buf[snapHeaderLen+8:], seg.crc)
	le.PutUint32(buf[snapLen-4:], crc32.Checksum(buf[:snapLen-4], castagnoli))
	return buf
}

// decodeSnapshot verifies the length, magic, CRC32C trailer and version
// of a snapshot file and decodes it.
func decodeSnapshot(data []byte) (*snapState, error) {
	if len(data) != snapLen {
		return nil, fmt.Errorf("core: snapshot is %d bytes, a version-%d snapshot is exactly %d — truncated, or written by another version of this program", len(data), snapVersion, snapLen)
	}
	if string(data[0:4]) != snapMagic {
		return nil, fmt.Errorf("core: snapshot has bad magic %q", data[0:4])
	}
	le := binary.LittleEndian
	trailer := le.Uint32(data[snapLen-4:])
	if got := crc32.Checksum(data[:snapLen-4], castagnoli); got != trailer {
		return nil, fmt.Errorf("core: snapshot CRC mismatch: file carries %08x, contents hash to %08x — the checkpoint file is corrupted; delete it (or the whole step's checkpoint) and restore an earlier step", trailer, got)
	}
	if v := le.Uint16(data[4:]); v != snapVersion {
		return nil, fmt.Errorf("core: snapshot version %d, this binary reads %d", v, snapVersion)
	}
	s := &snapState{
		algo:         data[6],
		rank:         int(le.Uint32(data[8:])),
		size:         int(le.Uint32(data[12:])),
		step:         int64(le.Uint64(data[16:])),
		n:            int(le.Uint32(data[24:])),
		nv:           int(le.Uint32(data[28:])),
		m:            int64(le.Uint64(data[32:])),
		seed:         le.Uint64(data[40:]),
		cursor:       le.Uint64(data[80:]),
		initialEdges: int64(le.Uint64(data[88:])),
		origLocal:    int64(le.Uint64(data[96:])),
		opsInitiated: int64(le.Uint64(data[104:])),
		restarts:     int64(le.Uint64(data[112:])),
		forfeited:    int64(le.Uint64(data[120:])),
		msgsSent:     int64(le.Uint64(data[128:])),
		flushes:      int64(le.Uint64(data[136:])),
		seg: segIdentity{
			size: int64(le.Uint64(data[snapHeaderLen:])),
			crc:  le.Uint32(data[snapHeaderLen+8:]),
		},
	}
	for i := range s.rnd {
		s.rnd[i] = le.Uint64(data[48+8*i:])
	}
	return s, nil
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
