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
	// The hub's peer rewrite must keep the trailer valid: the checksum
	// excludes the peer field by design.
	putFramePeer(frame, 7)
	got, peer, err = readFrame(bytes.NewReader(frame))
	if err != nil {
		t.Fatalf("peer rewrite invalidated checksum: %v", err)
	}
	if peer != 7 || !bytes.Equal(framePayload(got), payload) {
		t.Fatalf("after rewrite: peer=%d payload=%q", peer, framePayload(got))
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
	if err := writeHello(&buf, 4, 2); err != nil {
		t.Fatal(err)
	}
	rank, status, err := readHello(&buf, 4)
	if err != nil || status != joinOK || rank != 2 {
		t.Fatalf("hello: rank=%d status=%d err=%v", rank, status, err)
	}

	// Wrong world size must be rejected before the rank is even ranged.
	buf.Reset()
	_ = writeHello(&buf, 8, 2)
	if _, status, _ := readHello(&buf, 4); status != joinSizeMismatch {
		t.Fatalf("size mismatch status = %d", status)
	}

	// Out-of-range rank.
	buf.Reset()
	_ = writeHello(&buf, 4, 9)
	if _, status, _ := readHello(&buf, 4); status != joinBadRank {
		t.Fatalf("bad rank status = %d", status)
	}

	// Garbage magic.
	if _, status, _ := readHello(bytes.NewReader(make([]byte, helloLen)), 4); status != joinBadMagic {
		t.Fatal("garbage hello accepted")
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

// TestHubWriterPostMortem pins the post-failure contract: after drain
// dies on a write error, the error is recorded, the queue is released,
// and later pushes are dropped instead of growing without bound.
func TestHubWriterPostMortem(t *testing.T) {
	client, server := net.Pipe()
	_ = client.Close() // the destination is already gone

	hw := newHubWriter()
	done := make(chan struct{})
	go func() {
		defer close(done)
		hw.drain(server)
	}()
	hw.push(encodeFrame(0, 1, []byte("doomed")))
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("drain did not exit on write error")
	}
	if hw.error() == nil {
		t.Fatal("write error not recorded")
	}
	for i := 0; i < 1000; i++ {
		hw.push(encodeFrame(0, 1, []byte("post-mortem")))
	}
	hw.mu.Lock()
	queued := len(hw.queue)
	hw.mu.Unlock()
	if queued != 0 {
		t.Fatalf("dead writer queued %d frames; post-mortem pushes must be dropped", queued)
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
