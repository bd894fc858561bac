package store

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
)

// A base segment is one rank's immutable CSR image of its partition:
// every owned vertex's reduced adjacency list in slot order, varint
// gap-encoded by the codec shared with checkpoints
// (graph.AppendAdjSet/WalkAdjSetBytes), behind a fixed header and ahead
// of an offset table and a CRC32C trailer. The layout is chosen so the
// whole file is produced by one sequential pass — header, payload,
// offsets, trailer — with the checksum accumulated as bytes stream out:
//
//	"ESSG" | version u16 | flags u16 | nv u64          (16-byte header)
//	payload: nv × varint adjacency list                 (graph codec)
//	offsets: (nv+1) × u64, payload-relative; offsets[nv] = len(payload)
//	crc32c u32 over everything above
//
// The payload length is not stored: it is derived from the file size and
// nv, so a truncated file is unreadable by construction. Readers mmap
// the file and serve List(li) as a zero-copy slice of the mapping;
// Len(li) costs one uvarint decode.
const (
	segMagic     = "ESSG"
	segVersion   = 1
	segHeaderLen = 16
)

// castagnoli is the CRC32C table; the same polynomial the checkpoint
// snapshots use, so the whole durability layer shares one checksum
// family.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// segName names generation g's base segment; generations only grow.
func segName(gen uint64) string { return fmt.Sprintf("base-%08d.seg", gen) }

// Segment is an open, read-only, mmap'd base segment.
type Segment struct {
	path    string
	data    []byte // the whole mapping
	payload []byte // data[segHeaderLen : segHeaderLen+payloadLen]
	offsets []byte // the (nv+1)×u64 table, as raw little-endian bytes
	nv      int
	crc     uint32
}

// OpenSegment maps the segment at path and verifies its header, frame
// arithmetic, full-content CRC32C and offset table. Use it for cold opens
// (checkpoint restore); the writer's Finalize skips the
// re-verification of bytes it just produced.
func OpenSegment(path string) (*Segment, error) {
	return openSegment(path, true)
}

func openSegment(path string, verify bool) (*Segment, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	data, err := mmapFile(f, int(fi.Size()))
	if err != nil {
		return nil, fmt.Errorf("store: mapping segment %s: %w", path, err)
	}
	s, err := parseSegment(path, data, verify)
	if err != nil {
		_ = munmap(data)
		return nil, err
	}
	return s, nil
}

// parseSegment validates the frame over an already-mapped file. With
// verify it also hashes the contents and walks the offset table, so List
// on a verified segment never meets an out-of-range offset.
func parseSegment(path string, data []byte, verify bool) (*Segment, error) {
	le := binary.LittleEndian
	if len(data) < segHeaderLen+8+4 {
		return nil, fmt.Errorf("store: segment %s truncated (%d bytes)", path, len(data))
	}
	if string(data[0:4]) != segMagic {
		return nil, fmt.Errorf("store: segment %s has bad magic %q", path, data[0:4])
	}
	if v := le.Uint16(data[4:]); v != segVersion {
		return nil, fmt.Errorf("store: segment %s has version %d, this binary reads %d", path, v, segVersion)
	}
	nv64 := le.Uint64(data[8:])
	payloadLen := int64(len(data)) - segHeaderLen - 4 - (int64(nv64)+1)*8
	if nv64 > uint64(len(data)) || payloadLen < 0 {
		return nil, fmt.Errorf("store: segment %s frame does not fit %d slots in %d bytes", path, nv64, len(data))
	}
	s := &Segment{
		path:    path,
		data:    data,
		payload: data[segHeaderLen : segHeaderLen+payloadLen],
		offsets: data[segHeaderLen+payloadLen : int64(len(data))-4],
		nv:      int(nv64),
		crc:     le.Uint32(data[len(data)-4:]),
	}
	if verify {
		if got := crc32.Checksum(data[:len(data)-4], castagnoli); got != s.crc {
			return nil, fmt.Errorf("store: segment %s CRC mismatch: trailer %08x, contents %08x", path, s.crc, got)
		}
	}
	if last := s.offset(s.nv); last != int64(len(s.payload)) {
		return nil, fmt.Errorf("store: segment %s offset table ends at %d, payload holds %d bytes", path, last, len(s.payload))
	}
	if verify {
		for li, prev := 0, int64(0); li < s.nv; li++ {
			off := s.offset(li)
			if off < prev || off > int64(len(s.payload)) {
				return nil, fmt.Errorf("store: segment %s offset table is not ascending at slot %d", path, li)
			}
			prev = off
		}
	}
	return s, nil
}

func (s *Segment) offset(li int) int64 {
	return int64(binary.LittleEndian.Uint64(s.offsets[8*li:]))
}

// NV reports the number of slots (owned vertices) in the segment.
func (s *Segment) NV() int { return s.nv }

// Size reports the on-disk byte size.
func (s *Segment) Size() int64 { return int64(len(s.data)) }

// CRC reports the trailer CRC32C — the identity checkpoint manifests
// record to bind a snapshot to its hard-linked segment.
func (s *Segment) CRC() uint32 { return s.crc }

// Path reports the file backing the mapping.
func (s *Segment) Path() string { return s.path }

// List returns slot li's encoded adjacency list as a zero-copy slice of
// the mapping. The slice dies with the segment: it must not be used
// after Close (the mmaplife vet check enforces this for locals).
func (s *Segment) List(li int) []byte {
	lo, hi := s.offset(li), s.offset(li+1)
	if lo < 0 || hi < lo || hi > int64(len(s.payload)) {
		panic(fmt.Sprintf("store: segment %s has corrupt offsets for slot %d", s.path, li))
	}
	return s.payload[lo:hi]
}

// Close unmaps the segment. Slices returned by List become invalid.
func (s *Segment) Close() error {
	data := s.data
	s.data, s.payload, s.offsets = nil, nil, nil
	return munmap(data)
}

// SegmentWriter streams a new base segment to path+".tmp" in one
// sequential pass; Finalize fsyncs and renames it into place, so a crash
// at any earlier point never leaves a partial file under path.
type SegmentWriter struct {
	path    string
	f       *os.File
	bw      *bufio.Writer
	crc     uint32
	nv      int
	next    int
	offsets []uint64
	pos     uint64
}

// NewSegmentWriter starts a segment of nv slots destined for path.
func NewSegmentWriter(path string, nv int) (*SegmentWriter, error) {
	f, err := os.OpenFile(path+".tmp", os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o666)
	if err != nil {
		return nil, err
	}
	w := &SegmentWriter{
		path:    path,
		f:       f,
		bw:      bufio.NewWriterSize(f, 1<<20),
		nv:      nv,
		offsets: make([]uint64, 0, nv+1),
	}
	var hdr [segHeaderLen]byte
	copy(hdr[0:], segMagic)
	binary.LittleEndian.PutUint16(hdr[4:], segVersion)
	binary.LittleEndian.PutUint64(hdr[8:], uint64(nv))
	if err := w.write(hdr[:]); err != nil {
		w.Abort()
		return nil, err
	}
	return w, nil
}

func (w *SegmentWriter) write(b []byte) error {
	w.crc = crc32.Update(w.crc, castagnoli, b)
	_, err := w.bw.Write(b)
	return err
}

// Append writes the next slot's encoded adjacency list (the graph
// codec's bytes, possibly copied verbatim from another segment). Slots
// are strictly sequential; Finalize requires exactly nv of them.
func (w *SegmentWriter) Append(enc []byte) error {
	if w.next >= w.nv {
		return fmt.Errorf("store: segment writer for %s overfilled past %d slots", w.path, w.nv)
	}
	w.offsets = append(w.offsets, w.pos)
	w.pos += uint64(len(enc))
	w.next++
	return w.write(enc)
}

// Slots reports how many slots have been appended so far.
func (w *SegmentWriter) Slots() int { return w.next }

// Finalize writes the offset table and CRC trailer, fsyncs, renames the
// file into place and returns it opened (mapped, trusted — the bytes
// were just produced under this checksum).
func (w *SegmentWriter) Finalize() (*Segment, error) {
	if w.next != w.nv {
		w.Abort()
		return nil, fmt.Errorf("store: segment writer for %s finalized with %d of %d slots", w.path, w.next, w.nv)
	}
	w.offsets = append(w.offsets, w.pos)
	var b [8]byte
	for _, off := range w.offsets {
		binary.LittleEndian.PutUint64(b[:], off)
		if err := w.write(b[:]); err != nil {
			w.Abort()
			return nil, err
		}
	}
	binary.LittleEndian.PutUint32(b[:4], w.crc)
	if _, err := w.bw.Write(b[:4]); err != nil {
		w.Abort()
		return nil, err
	}
	if err := w.bw.Flush(); err != nil {
		w.Abort()
		return nil, err
	}
	if err := w.f.Sync(); err != nil {
		w.Abort()
		return nil, err
	}
	if err := w.f.Close(); err != nil {
		w.f = nil
		w.Abort()
		return nil, err
	}
	w.f = nil
	if err := os.Rename(w.path+".tmp", w.path); err != nil {
		w.Abort()
		return nil, err
	}
	return openSegment(w.path, false)
}

// Abort discards the half-written segment; safe after any error.
func (w *SegmentWriter) Abort() {
	if w.f != nil {
		_ = w.f.Close()
		w.f = nil
	}
	_ = os.Remove(w.path + ".tmp")
}
