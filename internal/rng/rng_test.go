package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical draws", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	a := Split(7, 0)
	b := Split(7, 1)
	c := Split(7, 0)
	for i := 0; i < 100; i++ {
		av, bv, cv := a.Uint64(), b.Uint64(), c.Uint64()
		if av != cv {
			t.Fatalf("Split not deterministic at draw %d", i)
		}
		if av == bv {
			t.Fatalf("Split streams 0 and 1 collided at draw %d", i)
		}
	}
}

// splitWalk is Split as the SplitMix64 walk it shortcuts: i+1 steps
// from the keyed seed, one at a time.
func splitWalk(seed uint64, i int) *RNG {
	sm := seed ^ 0x5851f42d4c957f2d
	for j := 0; j <= i; j++ {
		splitMix64(&sm)
	}
	return New(splitMix64(&sm) ^ uint64(i)*0xd1342543de82ef95)
}

// TestSplitMatchesWalk: the closed-form Split is bit-identical to the
// walk, for negative, small and large stream indices.
func TestSplitMatchesWalk(t *testing.T) {
	for _, seed := range []uint64{0, 1, 42, 0xdeadbeef, 1<<64 - 1} {
		for _, i := range []int{-3, -1, 0, 1, 2, 7, 1 << 20, 1<<21 + 1, 1<<22 + 7} {
			if got, want := Split(seed, i).State(), splitWalk(seed, i).State(); got != want {
				t.Errorf("Split(%#x, %d) state %x, walk %x", seed, i, got, want)
			}
		}
	}
}

func TestInt64nRange(t *testing.T) {
	r := New(3)
	for _, n := range []int64{1, 2, 3, 7, 16, 100, 1 << 40} {
		for i := 0; i < 200; i++ {
			v := r.Int64n(n)
			if v < 0 || v >= n {
				t.Fatalf("Int64n(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestInt64nPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for n <= 0")
		}
	}()
	New(1).Int64n(0)
}

func TestInt64nUniformity(t *testing.T) {
	// Chi-square test over 10 buckets.
	r := New(99)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Int64n(n)]++
	}
	expected := float64(draws) / n
	chi2 := 0.0
	for _, c := range counts {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	// 9 degrees of freedom; 99.9% critical value ~27.88.
	if chi2 > 27.88 {
		t.Fatalf("chi-square %f too large; counts=%v", chi2, counts)
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(5)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(11)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("Float64 mean %f far from 0.5", mean)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(29)
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%50) + 1
		r.Seed(seed)
		p := r.Perm(n)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestShuffleSwapCount(t *testing.T) {
	r := New(31)
	calls := 0
	r.Shuffle(10, func(i, j int) { calls++ })
	if calls != 9 {
		t.Fatalf("Shuffle(10) performed %d swaps, want 9", calls)
	}
}

func TestBoolBalance(t *testing.T) {
	r := New(37)
	trues := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if r.Bool() {
			trues++
		}
	}
	if trues < n/2-1000 || trues > n/2+1000 {
		t.Fatalf("Bool heavily biased: %d/%d true", trues, n)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += r.Uint64()
	}
	_ = sink
}

func BenchmarkInt64n(b *testing.B) {
	r := New(1)
	var sink int64
	for i := 0; i < b.N; i++ {
		sink += r.Int64n(1000003)
	}
	_ = sink
}

// TestStateRoundTrip: capturing State and replaying it through SetState
// on a fresh generator reproduces the exact output stream — the contract
// checkpoint restore depends on.
func TestStateRoundTrip(t *testing.T) {
	r := New(99)
	for i := 0; i < 57; i++ {
		r.Uint64()
	}
	st := r.State()
	want := make([]uint64, 20)
	for i := range want {
		want[i] = r.Uint64()
	}
	clone := New(1)
	if err := clone.SetState(st); err != nil {
		t.Fatal(err)
	}
	for i, w := range want {
		if got := clone.Uint64(); got != w {
			t.Fatalf("draw %d after SetState: %d, want %d", i, got, w)
		}
	}
}

// TestSetStateRejectsZero: the all-zero state is a fixed point of
// xoshiro (the generator would emit zeros forever), so SetState must
// refuse it rather than install a dead generator.
func TestSetStateRejectsZero(t *testing.T) {
	r := New(3)
	before := r.State()
	if err := r.SetState([4]uint64{}); err == nil {
		t.Fatal("all-zero state accepted")
	}
	if r.State() != before {
		t.Fatal("rejected SetState still clobbered the generator")
	}
}
