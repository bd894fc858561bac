package mpi

import (
	"bytes"
	"errors"
	"net"
	"strings"
	"testing"
	"time"
)

func TestFrameRoundTrip(t *testing.T) {
	payload := []byte("the payload")
	frame := encodeFrame(3, 42, payload)
	got, peer, err := readFrame(bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	if peer != 3 || frameTag(got) != 42 || !bytes.Equal(framePayload(got), payload) {
		t.Fatalf("round trip: peer=%d tag=%d payload=%q", peer, frameTag(got), framePayload(got))
	}
}

func TestFrameEmptyPayload(t *testing.T) {
	frame := encodeFrame(0, 5, nil)
	got, _, err := readFrame(bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	if len(framePayload(got)) != 0 {
		t.Fatalf("payload = %q, want empty", framePayload(got))
	}
}

// TestFrameChecksumRejectsCorruption flips one bit in every position of
// the tag, payload and trailer regions and demands readFrame reject each
// corrupted frame with ErrChecksum.
func TestFrameChecksumRejectsCorruption(t *testing.T) {
	payload := []byte{0xde, 0xad, 0xbe, 0xef, 0x01}
	clean := encodeFrame(1, 9, payload)
	for pos := 4; pos < len(clean); pos++ {
		if pos >= 8 && pos < frameHeader {
			continue // length field: corruption there changes the read size, tested below
		}
		frame := append([]byte(nil), clean...)
		frame[pos] ^= 0x10
		if _, _, err := readFrame(bytes.NewReader(frame)); !errors.Is(err, ErrChecksum) {
			t.Fatalf("byte %d corrupted: err = %v, want ErrChecksum", pos, err)
		}
	}
}

func TestFrameLengthCorruption(t *testing.T) {
	frame := encodeFrame(1, 9, []byte("abcdef"))
	frame[10] = 0xff // length now far larger than the remaining bytes
	if _, _, err := readFrame(bytes.NewReader(frame)); err == nil {
		t.Fatal("corrupted length accepted")
	}
	frame = encodeFrame(1, 9, []byte("abcdef"))
	frame[8]-- // length one short: trailer misaligned, checksum must fail
	if _, _, err := readFrame(bytes.NewReader(frame)); err == nil {
		t.Fatal("short length accepted")
	}
}

func TestFrameTooLarge(t *testing.T) {
	frame := encodeFrame(0, 0, nil)
	frame[11] = 0xff // length field = ~4G
	_, _, err := readFrame(bytes.NewReader(frame))
	if err == nil || !strings.Contains(err.Error(), "too large") {
		t.Fatalf("err = %v, want too-large rejection", err)
	}
}

func TestHandshakeCodec(t *testing.T) {
	var buf bytes.Buffer
	if err := writeHello(&buf, 4, 2, "10.0.0.7:4242"); err != nil {
		t.Fatal(err)
	}
	rank, addr, status, err := readHello(&buf, 4)
	if err != nil || status != joinOK || rank != 2 || addr != "10.0.0.7:4242" {
		t.Fatalf("hello: rank=%d addr=%q status=%d err=%v", rank, addr, status, err)
	}
	// A link hello carries no address.
	buf.Reset()
	_ = writeHello(&buf, 4, 3, "")
	if rank, addr, status, err := readHello(&buf, 4); err != nil || status != joinOK || rank != 3 || addr != "" {
		t.Fatalf("link hello: rank=%d addr=%q status=%d err=%v", rank, addr, status, err)
	}

	// Wrong world size must be rejected before the rank is even ranged.
	buf.Reset()
	_ = writeHello(&buf, 8, 2, "")
	if _, _, status, _ := readHello(&buf, 4); status != joinSizeMismatch {
		t.Fatalf("size mismatch status = %d", status)
	}

	// Out-of-range rank.
	buf.Reset()
	_ = writeHello(&buf, 4, 9, "")
	if _, _, status, _ := readHello(&buf, 4); status != joinBadRank {
		t.Fatalf("bad rank status = %d", status)
	}

	// Garbage magic, and another version, are refused from the fixed
	// part alone: nothing past it is read.
	if _, _, status, _ := readHello(bytes.NewReader(make([]byte, helloLen)), 4); status != joinBadMagic {
		t.Fatal("garbage hello accepted")
	}
	buf.Reset()
	_ = writeHello(&buf, 4, 2, "")
	old := buf.Bytes()[:helloLen]
	old[4] = wireVersion - 1
	if _, _, status, err := readHello(bytes.NewReader(old), 4); status != joinBadVersion || err != nil {
		t.Fatalf("older version: status = %d, err = %v", status, err)
	}

	// An address longer than any real one is a malformed hello.
	buf.Reset()
	_ = writeHello(&buf, 4, 2, strings.Repeat("x", maxHelloAddr+1))
	if _, _, _, err := readHello(&buf, 4); err == nil {
		t.Fatal("oversized hello address accepted")
	}

	// Ack round trip: OK passes, every permanent rejection maps to
	// ErrHandshake, and joinClosed maps to the transient errJoinClosed
	// (a recovering world restarts its coordinator, so dialers retry it).
	buf.Reset()
	_ = writeAck(&buf, joinOK)
	if err := readAck(&buf); err != nil {
		t.Fatalf("ok ack: %v", err)
	}
	for _, status := range []uint32{joinBadVersion, joinBadRank, joinDupRank, joinSizeMismatch} {
		buf.Reset()
		_ = writeAck(&buf, status)
		if err := readAck(&buf); !errors.Is(err, ErrHandshake) {
			t.Fatalf("status %d: err = %v, want ErrHandshake", status, err)
		}
	}
	buf.Reset()
	_ = writeAck(&buf, joinClosed)
	closedErr := readAck(&buf)
	if !errors.Is(closedErr, errJoinClosed) {
		t.Fatalf("joinClosed: err = %v, want errJoinClosed", closedErr)
	}
	if errors.Is(closedErr, ErrHandshake) {
		t.Fatal("joinClosed must not be a permanent handshake rejection")
	}
}

// TestLinkWritePostMortem pins a link's post-failure contract: once a
// write fails, the error names the peer and every later send to it fails
// fast with that error instead of writing again; a send to a peer that
// left in order is dropped without error.
func TestLinkWritePostMortem(t *testing.T) {
	dead := func() *link {
		near, far := net.Pipe()
		_ = far.Close() // the peer is already gone
		return &link{peer: 1, conn: near}
	}
	c := &distClient{links: []*link{nil, dead()}, box: newMailbox(0), writeTimeout: time.Second}
	err := c.send(0, 1, 1, []byte("doomed"))
	if !errors.Is(err, ErrPeerLost) || !strings.Contains(err.Error(), "rank 1") {
		t.Fatalf("write to a dead link: err = %v, want ErrPeerLost naming rank 1", err)
	}
	for i := 0; i < 1000; i++ {
		if again := c.send(0, 1, 1, []byte("post-mortem")); again != err {
			t.Fatalf("send %d after the failure: err = %v, want the recorded %v", i, again, err)
		}
	}

	c.links[1] = dead()
	c.links[1].departed.Store(true)
	if err := c.send(0, 1, 1, []byte("after LEAVE")); err != nil {
		t.Fatalf("send to a departed peer: err = %v, want it dropped", err)
	}
}

// TestMailboxFail pins fail-fast receive semantics: messages queued
// before the fault still deliver, then the named error surfaces.
func TestMailboxFail(t *testing.T) {
	mb := newMailbox(0)
	mb.put(Message{Src: 1, Tag: 2, Data: []byte("queued")})
	sentinel := errors.New("sentinel fault")
	mb.fail(sentinel)

	m, ok := mb.get(AnySource, AnyTag)
	if !ok || string(m.Data) != "queued" {
		t.Fatalf("queued message lost after fail: ok=%v", ok)
	}
	if _, ok = mb.get(AnySource, AnyTag); ok {
		t.Fatal("drained, failed mailbox returned a message")
	}
	if !errors.Is(mb.failure(), sentinel) {
		t.Fatalf("failure() = %v", mb.failure())
	}
}
