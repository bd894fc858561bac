// Package rng provides a fast, deterministic, splittable pseudo-random
// number generator used throughout the edge-switching library.
//
// The generator is xoshiro256** (Blackman & Vigna), seeded through
// SplitMix64 so that any 64-bit seed yields a well-mixed initial state.
// Independent per-rank streams are derived with Split, which uses the
// SplitMix64 sequence of the parent seed; streams derived from distinct
// split indices are statistically independent for all practical purposes.
//
// The package intentionally avoids math/rand so that results are
// reproducible across Go releases and so that every component of the
// library can be driven from a single 64-bit experiment seed.
package rng

import (
	"errors"
	"math/bits"
)

// RNG is a xoshiro256** pseudo-random number generator.
// It is NOT safe for concurrent use; each goroutine (rank) must own its
// own RNG, typically derived via Split.
type RNG struct {
	s0, s1, s2, s3 uint64
}

// splitMix64 advances the SplitMix64 state and returns the next output.
func splitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a generator seeded from the given 64-bit seed.
func New(seed uint64) *RNG {
	r := &RNG{}
	r.Seed(seed)
	return r
}

// Seed resets the generator state deterministically from seed.
func (r *RNG) Seed(seed uint64) {
	sm := seed
	r.s0 = splitMix64(&sm)
	r.s1 = splitMix64(&sm)
	r.s2 = splitMix64(&sm)
	r.s3 = splitMix64(&sm)
	// xoshiro requires a state that is not all zero; SplitMix64 cannot
	// produce four consecutive zeros, but guard anyway.
	if r.s0|r.s1|r.s2|r.s3 == 0 {
		r.s0 = 1
	}
}

// Split derives an independent generator for stream index i.
// Splitting the same seed with the same index always yields the same
// stream, which gives per-rank determinism in parallel runs.
//
// The stream's seed is the SplitMix64 output that follows i+1 steps (none
// for a negative i) from a key of seed. A step only adds SplitMix64's
// increment to the state, so the walk is one multiply: O(1) for any i.
func Split(seed uint64, i int) *RNG {
	sm := (seed ^ 0x5851f42d4c957f2d) + uint64(max(i+1, 0))*0x9e3779b97f4a7c15
	return New(splitMix64(&sm) ^ uint64(i)*0xd1342543de82ef95)
}

// State returns the generator's four state words, for checkpointing.
// Restoring them with SetState resumes the stream exactly where it was:
// the next Uint64 after a SetState(State()) round trip is the same value
// the original generator would have produced.
func (r *RNG) State() [4]uint64 { return [4]uint64{r.s0, r.s1, r.s2, r.s3} }

// SetState overwrites the generator state with previously captured state
// words (see State). An all-zero state is invalid for xoshiro and is
// rejected.
func (r *RNG) SetState(s [4]uint64) error {
	if s[0]|s[1]|s[2]|s[3] == 0 {
		return errors.New("rng: SetState with all-zero state")
	}
	r.s0, r.s1, r.s2, r.s3 = s[0], s[1], s[2], s[3]
	return nil
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed random bits.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s1*5, 7) * 9
	t := r.s1 << 17
	r.s2 ^= r.s0
	r.s3 ^= r.s1
	r.s1 ^= r.s2
	r.s0 ^= r.s3
	r.s2 ^= t
	r.s3 = rotl(r.s3, 45)
	return result
}

// Uint32 returns 32 uniformly distributed random bits.
func (r *RNG) Uint32() uint32 { return uint32(r.Uint64() >> 32) }

// Int64n returns a uniform integer in [0, n). It panics if n <= 0.
// Uses Lemire's multiply-shift rejection method, which is unbiased.
func (r *RNG) Int64n(n int64) int64 {
	if n <= 0 {
		panic("rng: Int64n called with n <= 0")
	}
	un := uint64(n)
	// Fast path for powers of two.
	if un&(un-1) == 0 {
		return int64(r.Uint64() & (un - 1))
	}
	// Lemire's method with rejection to remove bias.
	threshold := (-un) % un
	for {
		hi, lo := bits.Mul64(r.Uint64(), un)
		if lo >= threshold {
			return int64(hi)
		}
	}
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int { return int(r.Int64n(int64(n))) }

// Float64 returns a uniform float64 in [0, 1) with 53 bits of precision.
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns a fair coin flip.
func (r *RNG) Bool() bool { return r.Uint64()&1 == 1 }

// Perm returns a random permutation of [0, n) (Fisher–Yates).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.ShuffleInts(p)
	return p
}

// ShuffleInts shuffles s in place.
func (r *RNG) ShuffleInts(s []int) {
	for i := len(s) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		s[i], s[j] = s[j], s[i]
	}
}

// Shuffle shuffles n elements using the provided swap function.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}
