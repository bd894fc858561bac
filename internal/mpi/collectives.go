package mpi

import (
	"encoding/binary"
	"fmt"
)

// Collectives. All ranks of a world must call the same collectives in the
// same order (the usual SPMD discipline); each call consumes one slot of
// the per-rank collective sequence counter, which keeps messages from
// adjacent collectives apart even when ranks overlap in time. Collectives
// use a reserved tag space and never interfere with application messages,
// so a rank may have unconsumed point-to-point traffic queued while a
// collective runs.

// nextCollTag reserves a tag block for one collective call. Within the
// block, `round` distinguishes tree levels.
func (c *Comm) nextCollTag() int {
	seq := c.collSeq
	c.collSeq++
	// 1024 interleaved sequence slots, 64 rounds each: far more than any
	// in-flight window the SPMD discipline allows.
	return collTagBase + (seq%1024)*64
}

// Barrier blocks until every rank has entered it (dissemination barrier,
// O(log p) rounds).
func (c *Comm) Barrier() error {
	base := c.nextCollTag()
	p, r := c.Size(), c.Rank()
	for k, round := 1, 0; k < p; k, round = k<<1, round+1 {
		dst := (r + k) % p
		src := (r - k%p + p) % p
		if err := c.send(dst, base+round, nil); err != nil {
			return err
		}
		if _, err := c.Recv(src, base+round); err != nil {
			return err
		}
	}
	return nil
}

// Bcast distributes root's data to every rank. On non-root ranks the
// returned slice is the received payload; on root it is data itself.
// Binomial-tree dissemination, O(log p) rounds.
func (c *Comm) Bcast(root int, data []byte) ([]byte, error) {
	return c.bcast(c.nextCollTag(), root, data)
}

// bcast is Bcast under a caller-reserved tag.
func (c *Comm) bcast(base, root int, data []byte) ([]byte, error) {
	p := c.Size()
	// Work in a rotated space where root is rank 0.
	vr := (c.Rank() - root + p) % p
	if vr != 0 {
		// Receive from parent: clear the lowest set bit.
		parent := (vr&(vr-1) + root) % p
		m, err := c.Recv(parent, base)
		if err != nil {
			return nil, err
		}
		data = m.Data
	}
	// Forward to children: set each bit above the lowest set bit while in range.
	low := vr & (-vr)
	if vr == 0 {
		low = 1 << 30
	}
	for bit := 1; bit < p && bit < low; bit <<= 1 {
		child := vr | bit
		if child < p {
			if err := c.send((child+root)%p, base, data); err != nil {
				return nil, err
			}
		}
	}
	return data, nil
}

// Gather collects each rank's data at root. On root the result has one
// entry per rank (index = rank); on other ranks it is nil.
func (c *Comm) Gather(root int, data []byte) ([][]byte, error) {
	return c.gather(c.nextCollTag(), root, data)
}

// gather is Gather under a caller-reserved tag.
func (c *Comm) gather(base, root int, data []byte) ([][]byte, error) {
	if c.Rank() != root {
		return nil, c.send(root, base, data)
	}
	out := make([][]byte, c.Size())
	cp := make([]byte, len(data))
	copy(cp, data)
	out[root] = cp
	for i := 0; i < c.Size(); i++ {
		if i == root {
			continue
		}
		m, err := c.Recv(i, base)
		if err != nil {
			return nil, err
		}
		out[i] = m.Data
	}
	return out, nil
}

// Allgather collects every rank's data on every rank: one collective, a
// gather to rank 0 (round 0) and a broadcast of the concatenation (round 1).
func (c *Comm) Allgather(data []byte) ([][]byte, error) {
	base := c.nextCollTag()
	parts, err := c.gather(base, 0, data)
	if err != nil {
		return nil, err
	}
	var flat []byte
	if c.Rank() == 0 {
		flat = encodeParts(parts)
	}
	flat, err = c.bcast(base+1, 0, flat)
	if err != nil {
		return nil, err
	}
	return decodeParts(flat)
}

// Alltoall sends parts[i] to rank i and returns the p payloads received,
// indexed by source rank. parts must have one entry per rank.
func (c *Comm) Alltoall(parts [][]byte) ([][]byte, error) {
	if len(parts) != c.Size() {
		return nil, fmt.Errorf("mpi: Alltoall needs %d parts, got %d", c.Size(), len(parts))
	}
	base := c.nextCollTag()
	for i, p := range parts {
		if i == c.Rank() {
			continue
		}
		if err := c.send(i, base, p); err != nil {
			return nil, err
		}
	}
	out := make([][]byte, c.Size())
	cp := make([]byte, len(parts[c.Rank()]))
	copy(cp, parts[c.Rank()])
	out[c.Rank()] = cp
	for i := 0; i < c.Size(); i++ {
		if i == c.Rank() {
			continue
		}
		m, err := c.Recv(i, base)
		if err != nil {
			return nil, err
		}
		out[i] = m.Data
	}
	return out, nil
}

// encodeParts / decodeParts frame a [][]byte into one payload.
func encodeParts(parts [][]byte) []byte {
	total := 4
	for _, p := range parts {
		total += 4 + len(p)
	}
	out := make([]byte, 0, total)
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(parts)))
	out = append(out, hdr[:]...)
	for _, p := range parts {
		binary.LittleEndian.PutUint32(hdr[:], uint32(len(p)))
		out = append(out, hdr[:]...)
		out = append(out, p...)
	}
	return out
}

func decodeParts(flat []byte) ([][]byte, error) {
	if len(flat) < 4 {
		return nil, fmt.Errorf("mpi: truncated parts encoding")
	}
	n := int(binary.LittleEndian.Uint32(flat))
	flat = flat[4:]
	out := make([][]byte, n)
	for i := 0; i < n; i++ {
		if len(flat) < 4 {
			return nil, fmt.Errorf("mpi: truncated parts encoding")
		}
		l := int(binary.LittleEndian.Uint32(flat))
		flat = flat[4:]
		if len(flat) < l {
			return nil, fmt.Errorf("mpi: truncated parts encoding")
		}
		out[i] = flat[:l:l]
		flat = flat[l:]
	}
	return out, nil
}

// ReduceOp is a binary reduction operator.
type ReduceOp int

// Supported reduction operators.
const (
	OpSum ReduceOp = iota
	OpMin
	OpMax
)

func reduceInt64(op ReduceOp, a, b int64) int64 {
	switch op {
	case OpSum:
		return a + b
	case OpMin:
		if b < a {
			return b
		}
		return a
	default:
		if b > a {
			return b
		}
		return a
	}
}

// Int64sToBytes encodes a little-endian int64 slice.
func Int64sToBytes(xs []int64) []byte {
	out := make([]byte, 8*len(xs))
	for i, x := range xs {
		binary.LittleEndian.PutUint64(out[8*i:], uint64(x))
	}
	return out
}

// BytesToInt64s decodes Int64sToBytes output.
func BytesToInt64s(b []byte) ([]int64, error) {
	if len(b)%8 != 0 {
		return nil, fmt.Errorf("mpi: int64 payload length %d not a multiple of 8", len(b))
	}
	out := make([]int64, len(b)/8)
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out, nil
}

// AllreduceInt64s reduces and distributes the result to all ranks
// (butterfly, O(log p) rounds).
func (c *Comm) AllreduceInt64s(xs []int64, op ReduceOp) ([]int64, error) {
	return allreduceButterfly(c, xs, op, Int64sToBytes, BytesToInt64s, reduceInt64)
}

func reduceUint32(op ReduceOp, a, b uint32) uint32 {
	switch op {
	case OpSum:
		return a + b
	case OpMin:
		if b < a {
			return b
		}
		return a
	default:
		if b > a {
			return b
		}
		return a
	}
}

// Uint32sToBytes encodes a little-endian uint32 slice.
func Uint32sToBytes(xs []uint32) []byte {
	out := make([]byte, 4*len(xs))
	for i, x := range xs {
		binary.LittleEndian.PutUint32(out[4*i:], x)
	}
	return out
}

// BytesToUint32s decodes Uint32sToBytes output.
func BytesToUint32s(b []byte) ([]uint32, error) {
	if len(b)%4 != 0 {
		return nil, fmt.Errorf("mpi: uint32 payload length %d not a multiple of 4", len(b))
	}
	out := make([]uint32, len(b)/4)
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(b[4*i:])
	}
	return out, nil
}

// AllreduceUint32s reduces and distributes the result to all ranks
// (butterfly, O(log p) rounds). The element width matters at vertex
// scale: the curveball engine's one-time global degree bootstrap reduces
// an n-element vector, and uint32 halves that payload relative to int64.
func (c *Comm) AllreduceUint32s(xs []uint32, op ReduceOp) ([]uint32, error) {
	return allreduceButterfly(c, xs, op, Uint32sToBytes, BytesToUint32s, reduceUint32)
}
