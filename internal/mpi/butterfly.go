package mpi

import "fmt"

// Butterfly (recursive-doubling) allreduce: O(log p) rounds with no root
// bottleneck, versus the gather+broadcast baseline's O(p) fan-in at rank
// 0. Non-power-of-two worlds fold the excess ranks onto the main
// butterfly first and fan the result back out at the end — the standard
// MPI construction.

// number constrains the element types collectives reduce over.
type number interface {
	~int64 | ~uint32
}

// allreduceButterfly element-wise reduces xs across all ranks and
// returns the full result on every rank.
func allreduceButterfly[T number](
	c *Comm, xs []T, op ReduceOp,
	enc func([]T) []byte, dec func([]byte) ([]T, error),
	combine func(ReduceOp, T, T) T,
) ([]T, error) {
	base := c.nextCollTag()
	p := c.Size()
	r := c.Rank()
	acc := append([]T(nil), xs...)

	// Largest power of two ≤ p.
	q := 1
	for q*2 <= p {
		q *= 2
	}
	excess := p - q

	recvInto := func(src, tag int) error {
		m, err := c.Recv(src, tag)
		if err != nil {
			return err
		}
		vs, err := dec(m.Data)
		if err != nil {
			return err
		}
		if len(vs) != len(acc) {
			return fmt.Errorf("mpi: allreduce length mismatch from rank %d: %d != %d", src, len(vs), len(acc))
		}
		for i := range acc {
			acc[i] = combine(op, acc[i], vs[i])
		}
		return nil
	}

	// Phase 1: ranks q..p-1 fold into ranks 0..excess-1.
	if r >= q {
		if err := c.send(r-q, base, enc(acc)); err != nil {
			return nil, err
		}
	} else if r < excess {
		if err := recvInto(r+q, base); err != nil {
			return nil, err
		}
	}

	// Phase 2: butterfly among ranks 0..q-1.
	if r < q {
		for mask := 1; mask < q; mask <<= 1 {
			partner := r ^ mask
			if err := c.send(partner, base+1+log2(mask), enc(acc)); err != nil {
				return nil, err
			}
			if err := recvInto(partner, base+1+log2(mask)); err != nil {
				return nil, err
			}
		}
	}

	// Phase 3: fan the result back out to the folded ranks.
	if r < excess {
		if err := c.send(r+q, base+40, enc(acc)); err != nil {
			return nil, err
		}
	} else if r >= q {
		m, err := c.Recv(r-q, base+40)
		if err != nil {
			return nil, err
		}
		vs, err := dec(m.Data)
		if err != nil {
			return nil, err
		}
		acc = vs
	}
	return acc, nil
}

func log2(x int) int {
	n := 0
	for x > 1 {
		x >>= 1
		n++
	}
	return n
}
