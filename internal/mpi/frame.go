package mpi

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Wire protocol (version 3), spoken on a rank's control connection to
// the coordinator and on its link to each other rank, whether the ranks
// share a process (WithTCP) or not (JoinDistributed):
//
//	hello (rank → coordinator, and dialer → acceptor on a link, once):
//	      magic u32 | version u32 | size u32 | rank u32 | n u32 | n-byte address
//	ack   (the answer, once):  magic u32 | version u32 | status u32
//	frame (either direction):  peer i32 | tag i32 | len u32 | payload | crc32c u32
//
// A coordinator hello carries the rank's data-plane listen address; a
// link hello names the dialer and carries none. Magic and version are
// checked before the rest is read, so a binary of another version is
// refused by name whatever its hello looks like. On a link the peer field
// names the sender. The CRC32C trailer covers frame[4 : frameHeader+len]
// — tag, length and payload, but NOT the peer field. A corrupted frame is
// rejected by readFrame with ErrChecksum instead of silently
// desynchronizing the stream.
//
// Application tags are non-negative (collectives use the reserved block at
// collTagBase and up); negative tags are the transport's control plane and
// never reach a mailbox. Data frames travel only on links; the control
// connection carries only these:
//
//	wireTagRoster — coordinator → ranks, once all have joined: the payload
//	  lists every rank's data-plane address (encodeParts, by rank).
//	wireTagLost — rank → coordinator: the link to the rank in the peer
//	  field ended in EOF without a LEAVE or failed a checksum; the payload
//	  carries the diagnostic.
//	wireTagFault — coordinator → ranks: the rank in the peer field was
//	  declared lost; the payload carries a diagnostic. Receivers fail
//	  their mailbox with ErrPeerLost so every blocked receive returns a
//	  named error instead of hanging.
//	wireTagLeave — rank → coordinator and on every link: orderly
//	  departure, sent by stop() just before closing, so the subsequent EOF
//	  is a clean exit, not a fault.
const (
	wireMagic   = 0x45535731 // "ESW1"
	wireVersion = 3

	helloLen = 16 // the fixed part, before the address
	ackLen   = 12

	maxHelloAddr = 256

	wireTagFault  = -2
	wireTagLeave  = -3
	wireTagLost   = -4
	wireTagRoster = -5
)

// frame layout: peer int32 | tag int32 | len uint32 | payload | crc32c.
const (
	frameHeader  = 12
	frameTrailer = 4
)

// maxFramePayload bounds a single frame so a corrupted length field
// cannot trigger a giant allocation.
const maxFramePayload = 1 << 28

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Named transport faults. Callers match with errors.Is.
var (
	// ErrPeerLost reports that a peer process's connection dropped (or the
	// coordinator itself became unreachable) while the world was live.
	ErrPeerLost = errors.New("mpi: peer connection lost")
	// ErrChecksum reports a frame whose CRC32C trailer did not match.
	ErrChecksum = errors.New("mpi: frame checksum mismatch")
	// ErrHandshake reports a join rejected by the coordinator (version or
	// magic mismatch, bad/duplicate rank, world-size disagreement).
	ErrHandshake = errors.New("mpi: handshake rejected")
)

// errJoinClosed reports a joinClosed ack: the coordinator is shutting
// down — or its world has already lost a member and is about to be torn
// down and rebuilt by the recovery layer (see the hub's admit). Unlike
// the ErrHandshake rejections this is transient: a recovering run
// restarts its coordinator on the same address, so the dialer keeps
// retrying until its deadline instead of failing permanently.
var errJoinClosed = errors.New("mpi: coordinator not accepting joins")

// Join-rejection status codes carried in the handshake ack.
const (
	joinOK = iota
	joinBadMagic
	joinBadVersion
	joinBadRank
	joinDupRank
	joinSizeMismatch
	joinClosed
)

func joinStatusText(status uint32) string {
	switch status {
	case joinBadMagic:
		return "bad magic (not an edgeswitch peer?)"
	case joinBadVersion:
		return "wire version mismatch (mixed binaries)"
	case joinBadRank:
		return "rank out of range"
	case joinDupRank:
		return "duplicate rank"
	case joinSizeMismatch:
		return "world size mismatch"
	case joinClosed:
		return "coordinator shutting down"
	default:
		return fmt.Sprintf("status %d", status)
	}
}

// frameCRC computes the trailer checksum of a full wire frame (header +
// payload, trailer excluded).
func frameCRC(frame []byte) uint32 {
	return crc32.Checksum(frame[4:len(frame)-frameTrailer], castagnoli)
}

// encodeFrame builds a complete wire frame, trailer included.
func encodeFrame(peer, tag int, payload []byte) []byte {
	frame := make([]byte, frameHeader+len(payload)+frameTrailer)
	binary.LittleEndian.PutUint32(frame[0:], uint32(peer))
	binary.LittleEndian.PutUint32(frame[4:], uint32(tag))
	binary.LittleEndian.PutUint32(frame[8:], uint32(len(payload)))
	copy(frame[frameHeader:], payload)
	binary.LittleEndian.PutUint32(frame[len(frame)-frameTrailer:], frameCRC(frame))
	return frame
}

// readFrame reads one complete frame and verifies its checksum. The
// returned slice is the full wire image (header + payload + trailer) and
// is freshly allocated on every call: the caller owns it outright and may
// retain sub-slices indefinitely (mailbox payloads alias it — see
// framePayload). peer is the decoded peer field.
func readFrame(r io.Reader) (frame []byte, peer int, err error) {
	var hdr [frameHeader]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, 0, err
	}
	n := binary.LittleEndian.Uint32(hdr[8:])
	if n > maxFramePayload {
		return nil, 0, fmt.Errorf("mpi: tcp frame too large: %d", n)
	}
	frame = make([]byte, frameHeader+int(n)+frameTrailer)
	copy(frame, hdr[:])
	if _, err := io.ReadFull(r, frame[frameHeader:]); err != nil {
		return nil, 0, err
	}
	want := binary.LittleEndian.Uint32(frame[len(frame)-frameTrailer:])
	if got := frameCRC(frame); got != want {
		return nil, 0, fmt.Errorf("%w: got %08x, want %08x", ErrChecksum, got, want)
	}
	return frame, int(int32(binary.LittleEndian.Uint32(hdr[0:]))), nil
}

// frameTag decodes a frame's tag field.
func frameTag(frame []byte) int {
	return int(int32(binary.LittleEndian.Uint32(frame[4:])))
}

// framePayload returns the payload of a full wire frame. The slice
// aliases the frame's buffer, which readFrame allocated fresh, so a link
// reader hands it to the mailbox without copying.
func framePayload(frame []byte) []byte {
	return frame[frameHeader : len(frame)-frameTrailer]
}

// encodeFaultFrame builds the control frame the coordinator broadcasts
// when it declares a rank lost: the peer field names the rank, the
// payload carries a diagnostic.
func encodeFaultFrame(rank int, msg string) []byte {
	return encodeFrame(rank, wireTagFault, []byte(msg))
}

// writeHello sends the dialer half of the versioned handshake; addr is
// the data-plane listen address of a coordinator hello, empty on a link.
func writeHello(w io.Writer, size, rank int, addr string) error {
	hello := make([]byte, helloLen+4+len(addr))
	binary.LittleEndian.PutUint32(hello[0:], wireMagic)
	binary.LittleEndian.PutUint32(hello[4:], wireVersion)
	binary.LittleEndian.PutUint32(hello[8:], uint32(size))
	binary.LittleEndian.PutUint32(hello[12:], uint32(rank))
	binary.LittleEndian.PutUint32(hello[16:], uint32(len(addr)))
	copy(hello[20:], addr)
	_, err := w.Write(hello)
	return err
}

// readHello reads and validates a hello against the world size. It
// returns the announced rank and address and a join status (joinOK when
// the hello is well-formed and in range; duplicate detection is the
// caller's job, it needs the membership table). A wrong magic or version
// is answered before anything past the fixed part is read.
func readHello(r io.Reader, size int) (rank int, addr string, status uint32, err error) {
	var hello [helloLen + 4]byte
	if _, err := io.ReadFull(r, hello[:helloLen]); err != nil {
		return 0, "", 0, err
	}
	if binary.LittleEndian.Uint32(hello[0:]) != wireMagic {
		return 0, "", joinBadMagic, nil
	}
	if binary.LittleEndian.Uint32(hello[4:]) != wireVersion {
		return 0, "", joinBadVersion, nil
	}
	if _, err := io.ReadFull(r, hello[helloLen:]); err != nil {
		return 0, "", 0, err
	}
	n := binary.LittleEndian.Uint32(hello[helloLen:])
	if n > maxHelloAddr {
		return 0, "", 0, fmt.Errorf("mpi: hello address of %d bytes", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return 0, "", 0, err
	}
	if int(binary.LittleEndian.Uint32(hello[8:])) != size {
		return 0, "", joinSizeMismatch, nil
	}
	rank = int(int32(binary.LittleEndian.Uint32(hello[12:])))
	if rank < 0 || rank >= size {
		return rank, "", joinBadRank, nil
	}
	return rank, string(buf), joinOK, nil
}

// writeAck sends the answering half of the handshake.
func writeAck(w io.Writer, status uint32) error {
	var ack [ackLen]byte
	binary.LittleEndian.PutUint32(ack[0:], wireMagic)
	binary.LittleEndian.PutUint32(ack[4:], wireVersion)
	binary.LittleEndian.PutUint32(ack[8:], status)
	_, err := w.Write(ack[:])
	return err
}

// readAck reads the handshake reply. A non-OK status comes back as
// an ErrHandshake-wrapped error (permanent — retrying cannot help),
// except joinClosed, which maps to the transient errJoinClosed; a
// malformed or short ack comes back as the underlying I/O error
// (transient — the hub may have died mid-handshake, redialing can help).
func readAck(r io.Reader) error {
	var ack [ackLen]byte
	if _, err := io.ReadFull(r, ack[:]); err != nil {
		return err
	}
	if binary.LittleEndian.Uint32(ack[0:]) != wireMagic ||
		binary.LittleEndian.Uint32(ack[4:]) != wireVersion {
		return fmt.Errorf("%w: malformed coordinator ack", ErrHandshake)
	}
	switch status := binary.LittleEndian.Uint32(ack[8:]); status {
	case joinOK:
		return nil
	case joinClosed:
		return errJoinClosed
	default:
		return fmt.Errorf("%w: %s", ErrHandshake, joinStatusText(status))
	}
}
