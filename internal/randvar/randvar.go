// Package randvar implements the random-variate generators the paper's
// algorithms depend on: the BINV inverse-transform binomial generator
// (Algorithm 3) hardened against floating-point underflow by splitting
// large trial counts (eqs. 14–15), the conditional-distribution multinomial
// method (Algorithm 4), and the paper's parallel multinomial algorithm
// (Algorithm 5, §6.2) built on the mpi substrate.
package randvar

import (
	"fmt"
	"math"

	"edgeswitch/internal/mpi"
	"edgeswitch/internal/rng"
)

// maxChunk bounds the per-chunk trial count for Binomial so that
// (1-q)^N_i stays above the smallest positive normal float64
// (eq. 15 with z = 2^-1022): N_i <= -ln(z) / (2q) = 708.39 / (2q).
// The 2q bound uses -ln(1-q) <= 2q for q in (0, ~0.7968]; for larger q
// the exact bound is used.
func maxChunk(q float64) int64 {
	const negLogZ = 708.39641853226408 // -ln(2^-1022)
	var denom float64
	if q <= 0.75 {
		denom = 2 * q
	} else {
		denom = -math.Log1p(-q)
	}
	n := int64(negLogZ / denom)
	if n < 1 {
		n = 1
	}
	return n
}

// binv is one inverse-transform draw of Binomial(n, q) for a chunk size n
// small enough that (1-q)^n does not underflow (Algorithm 3).
func binv(r *rng.RNG, n int64, q float64) int64 {
	if q <= 0 {
		return 0
	}
	if q >= 1 {
		return n
	}
	u := r.Float64()
	ratio := q / (1 - q)
	pr := math.Pow(1-q, float64(n)) // Q in the paper's pseudocode
	s := pr
	var i int64
	for s < u && i < n {
		i++
		pr *= (float64(n-i+1) / float64(i)) * ratio
		s += pr
	}
	return i
}

// Binomial draws X ~ B(n, q) using BINV with trial-count splitting:
// n is divided into chunks bounded by eq. 15 and the chunk draws are
// summed, which is distribution-exact by the additivity of binomials
// (eq. 12). Expected time O(nq + n/maxChunk). It panics if n < 0 or q is
// outside [0, 1].
func Binomial(r *rng.RNG, n int64, q float64) int64 {
	if n < 0 {
		panic("randvar: Binomial with negative n")
	}
	if q < 0 || q > 1 || math.IsNaN(q) {
		panic(fmt.Sprintf("randvar: Binomial probability %v out of [0,1]", q))
	}
	if n == 0 || q == 0 {
		return 0
	}
	if q == 1 {
		return n
	}
	chunk := maxChunk(q)
	var x int64
	for n > 0 {
		c := chunk
		if n < c {
			c = n
		}
		x += binv(r, c, q)
		n -= c
	}
	return x
}

// Multinomial draws ⟨X₀,…,X_{ℓ-1}⟩ ~ M(n, q₀,…,q_{ℓ-1}) with the
// conditional-distribution method (Algorithm 4): X_i is binomial on the
// remaining trials with the renormalized probability q_i / (1 - Σ_{j<i} q_j).
// The probabilities must be non-negative and sum to 1 (within 1e-9).
func Multinomial(r *rng.RNG, n int64, q []float64) ([]int64, error) {
	if err := validateProbs(q); err != nil {
		return nil, err
	}
	x := make([]int64, len(q))
	var xs int64   // trials consumed so far (X_s)
	var qs float64 // probability mass consumed so far (Q_s)
	for i := range q {
		if qs < 1 && n-xs > 0 {
			cond := q[i] / (1 - qs)
			if cond > 1 {
				cond = 1
			}
			x[i] = Binomial(r, n-xs, cond)
			xs += x[i]
			qs += q[i]
		}
	}
	// Floating-point slack can leave trials unassigned when Σq reaches 1
	// before the last bucket; assign the remainder to the final bucket
	// with positive probability, matching the exact distribution in the
	// limit where the slack is pure rounding noise.
	if xs < n {
		for i := len(q) - 1; i >= 0; i-- {
			if q[i] > 0 {
				x[i] += n - xs
				break
			}
		}
	}
	return x, nil
}

func validateProbs(q []float64) error {
	if len(q) == 0 {
		return fmt.Errorf("randvar: empty probability vector")
	}
	sum := 0.0
	for i, v := range q {
		if v < 0 || math.IsNaN(v) {
			return fmt.Errorf("randvar: probability q[%d] = %v invalid", i, v)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		return fmt.Errorf("randvar: probabilities sum to %v, want 1", sum)
	}
	return nil
}

// SplitTrials divides n trials into p near-equal parts (the first n%p
// parts get one extra), as Algorithm 5 lines 2–3 prescribe.
func SplitTrials(n int64, p int) []int64 {
	out := make([]int64, p)
	base := n / int64(p)
	rem := n % int64(p)
	for i := range out {
		out[i] = base
		if int64(i) < rem {
			out[i]++
		}
	}
	return out
}

// ParallelMultinomial is Algorithm 5: every rank draws a multinomial of
// its near-equal share N_i of the n trials with the shared probability
// vector q, the per-outcome counts are transposed with an all-to-all
// exchange, and each rank sums the contributions for the outcomes it
// owns. Outcome j is owned by rank j%p (round-robin); the return value
// holds this rank's owned outcomes in increasing j order, i.e. outcomes
// rank, rank+p, rank+2p, … Runs in O(n/p + ℓ log p) time.
//
// All ranks must pass identical n and q, and r must be a rank-private
// stream (e.g. rng.Split(seed, rank)).
func ParallelMultinomial(c *mpi.Comm, r *rng.RNG, n int64, q []float64) ([]int64, error) {
	if err := validateProbs(q); err != nil {
		return nil, err
	}
	p := c.Size()
	ni := SplitTrials(n, p)[c.Rank()]
	local, err := Multinomial(r, ni, q)
	if err != nil {
		return nil, err
	}
	// Transpose: pack the counts for the outcomes each destination rank
	// owns and exchange.
	parts := make([][]byte, p)
	for dst := 0; dst < p; dst++ {
		var mine []int64
		for j := dst; j < len(q); j += p {
			mine = append(mine, local[j])
		}
		parts[dst] = mpi.Int64sToBytes(mine)
	}
	recv, err := c.Alltoall(parts)
	if err != nil {
		return nil, err
	}
	nOwned := 0
	for j := c.Rank(); j < len(q); j += p {
		nOwned++
	}
	owned := make([]int64, nOwned)
	for src, payload := range recv {
		vs, err := mpi.BytesToInt64s(payload)
		if err != nil {
			return nil, fmt.Errorf("randvar: bad transpose payload from rank %d: %w", src, err)
		}
		if len(vs) != nOwned {
			return nil, fmt.Errorf("randvar: rank %d sent %d counts, want %d", src, len(vs), nOwned)
		}
		for k, v := range vs {
			owned[k] += v
		}
	}
	return owned, nil
}

// ParallelMultinomialGathered runs ParallelMultinomial and assembles the
// full ℓ-vector on every rank, at the cost of a second collective, for
// cmd/multinomial. The edge-switch engine does not use it: every rank
// draws its ℓ = p step quotas itself from a shared counter stream.
func ParallelMultinomialGathered(c *mpi.Comm, r *rng.RNG, n int64, q []float64) ([]int64, error) {
	owned, err := ParallelMultinomial(c, r, n, q)
	if err != nil {
		return nil, err
	}
	parts, err := c.Allgather(mpi.Int64sToBytes(owned))
	if err != nil {
		return nil, err
	}
	out := make([]int64, len(q))
	for src, payload := range parts {
		vs, err := mpi.BytesToInt64s(payload)
		if err != nil {
			return nil, err
		}
		for k, v := range vs {
			out[src+k*c.Size()] = v
		}
	}
	return out, nil
}
