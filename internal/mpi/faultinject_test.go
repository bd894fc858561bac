package mpi

import (
	"net"
	"sync"
	"time"
)

// Fault injection: a net.Conn wrapper that understands the wire format
// well enough to manipulate individual outbound frames — drop one,
// corrupt one, delay one, or sever the connection at one — selected by
// frame index. Tests install it on one connection — a rank's link to a
// peer, or its control connection — through testDialWrap (see
// distributed.go) to exercise the transport's failure paths: checksum
// rejection, lost-peer reports, FAULT broadcast, fail-fast teardown.

// A faultAction says what to do with one outbound frame.
type faultAction int

const (
	// faultDrop silently discards the frame (the peer never sees it).
	faultDrop faultAction = iota
	// faultCorrupt flips one bit of the frame's trailer before
	// forwarding, so the receiver's checksum verification must reject
	// the frame (equivalent to payload corruption, but safe for frames
	// of any length — the stream stays parseable up to the bad frame).
	faultCorrupt
	// faultDelay forwards the frame after a pause.
	faultDelay
	// faultSever closes the underlying connection instead of writing the
	// frame; every later write fails.
	faultSever
)

// faultRule is one planned fault.
type faultRule struct {
	action faultAction
	delay  time.Duration // faultDelay only
}

// faultConn applies a per-frame fault plan to the write side of a
// connection. It reassembles the outbound byte stream into frames (writes
// need not align with frame boundaries), counts them from zero, and
// applies the rule registered for each index; unlisted frames pass
// through untouched. Reads are transparent. The wrapper is installed
// after the handshake, so hello/ack bytes are never miscounted.
type faultConn struct {
	net.Conn
	rules map[int]faultRule

	mu      sync.Mutex
	idx     int
	buf     []byte
	severed bool
}

func newFaultConn(conn net.Conn, rules map[int]faultRule) *faultConn {
	return &faultConn{Conn: conn, rules: rules}
}

func (fc *faultConn) Write(p []byte) (int, error) {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	if fc.severed {
		return 0, net.ErrClosed
	}
	fc.buf = append(fc.buf, p...)
	for {
		frame, rest, ok := splitFrame(fc.buf)
		if !ok {
			return len(p), nil
		}
		fc.buf = rest
		rule, planned := fc.rules[fc.idx]
		fc.idx++
		if !planned {
			if _, err := fc.Conn.Write(frame); err != nil {
				return 0, err
			}
			continue
		}
		switch rule.action {
		case faultDrop:
			continue
		case faultCorrupt:
			frame[len(frame)-1] ^= 0x40
			if _, err := fc.Conn.Write(frame); err != nil {
				return 0, err
			}
		case faultDelay:
			t := time.NewTimer(rule.delay)
			<-t.C
			if _, err := fc.Conn.Write(frame); err != nil {
				return 0, err
			}
		case faultSever:
			fc.severed = true
			_ = fc.Conn.Close()
			return 0, net.ErrClosed
		}
	}
}

// splitFrame pops one complete wire frame off the front of buf. ok is
// false while buf holds only a partial frame.
func splitFrame(buf []byte) (frame, rest []byte, ok bool) {
	if len(buf) < frameHeader {
		return nil, buf, false
	}
	n := int(uint32(buf[8]) | uint32(buf[9])<<8 | uint32(buf[10])<<16 | uint32(buf[11])<<24)
	total := frameHeader + n + frameTrailer
	if len(buf) < total {
		return nil, buf, false
	}
	frame = append([]byte(nil), buf[:total]...)
	return frame, append(buf[:0], buf[total:]...), true
}
