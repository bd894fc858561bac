package core

import (
	"math"
	"testing"
)

func TestHarmonicExactSmall(t *testing.T) {
	cases := []struct {
		k    int64
		want float64
	}{
		{0, 0}, {1, 1}, {2, 1.5}, {3, 1.5 + 1.0/3}, {4, 25.0 / 12},
	}
	for _, c := range cases {
		if got := harmonic(c.k); math.Abs(got-c.want) > 1e-12 {
			t.Fatalf("H(%d) = %v, want %v", c.k, got, c.want)
		}
	}
}

func TestHarmonicAsymptoticMatchesExact(t *testing.T) {
	// Brute-force H(k) around the 256 cutoff and well past it.
	for _, k := range []int64{250, 256, 257, 300, 1000, 5000} {
		var exact float64
		for i := int64(1); i <= k; i++ {
			exact += 1 / float64(i)
		}
		if got := harmonic(k); math.Abs(got-exact) > 1e-9 {
			t.Fatalf("H(%d) = %.15f, exact %.15f", k, got, exact)
		}
	}
}

func TestExpectedEdgesSwitchedApproximation(t *testing.T) {
	// For x < 1 and large m: E[T] ≈ −m ln(1−x).
	const m = int64(1_000_000)
	for _, x := range []float64{0.1, 0.3, 0.5, 0.9} {
		et, err := ExpectedEdgesSwitched(m, x)
		if err != nil {
			t.Fatal(err)
		}
		want := -float64(m) * math.Log(1-x)
		if math.Abs(et-want)/want > 0.001 {
			t.Fatalf("x=%v: E[T]=%f, approx %f", x, et, want)
		}
	}
	// x = 1: E[T] ≈ m ln m (within the γ-constant correction).
	et, err := ExpectedEdgesSwitched(m, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := float64(m) * math.Log(float64(m))
	if math.Abs(et-want)/want > 0.05 {
		t.Fatalf("x=1: E[T]=%f, m ln m = %f", et, want)
	}
}

func TestExpectedEdgesSwitchedEdgeCases(t *testing.T) {
	if v, err := ExpectedEdgesSwitched(0, 0.5); err != nil || v != 0 {
		t.Fatalf("m=0: (%v,%v)", v, err)
	}
	if v, err := ExpectedEdgesSwitched(100, 0); err != nil || v != 0 {
		t.Fatalf("x=0: (%v,%v)", v, err)
	}
	if _, err := ExpectedEdgesSwitched(100, -0.1); err == nil {
		t.Fatal("negative x accepted")
	}
	if _, err := ExpectedEdgesSwitched(100, 1.1); err == nil {
		t.Fatal("x > 1 accepted")
	}
	if _, err := ExpectedEdgesSwitched(-1, 0.5); err == nil {
		t.Fatal("negative m accepted")
	}
}

// TestOpsForVisitRateSmallTargets pins the rounding clamp: a small
// nonzero x on a small m used to round `remaining` back up to m, making
// E[T] = 0 and silently doing no work (e.g. -x 0.05 on m=10). Any
// positive target must cost at least one operation.
func TestOpsForVisitRateSmallTargets(t *testing.T) {
	cases := []struct {
		m      int64
		x      float64
		minOps int64
	}{
		{m: 10, x: 0.05, minOps: 1},   // round(10·0.95) = 10: the reported bug
		{m: 10, x: 0.04, minOps: 1},   // even further below half an edge
		{m: 1, x: 0.5, minOps: 1},     // single-edge graph
		{m: 1, x: 1, minOps: 1},       // single edge, full visit
		{m: 3, x: 0.1, minOps: 1},     // round(3·0.9) = 3
		{m: 100, x: 0.001, minOps: 1}, // round(100·0.999) = 100
		{m: 1000000, x: 1e-9, minOps: 1},
		{m: 10, x: 0.1, minOps: 1}, // round(9) = 9 < 10: unclamped path still ≥ 1
	}
	for _, c := range cases {
		ops, err := OpsForVisitRate(c.m, c.x)
		if err != nil {
			t.Fatalf("m=%d x=%v: %v", c.m, c.x, err)
		}
		if ops < c.minOps {
			t.Errorf("m=%d x=%v: got %d ops, want >= %d", c.m, c.x, ops, c.minOps)
		}
	}
	// The zero cases stay zero: clamping must not invent work.
	if ops, err := OpsForVisitRate(10, 0); err != nil || ops != 0 {
		t.Fatalf("x=0: (%d,%v)", ops, err)
	}
	if ops, err := OpsForVisitRate(0, 0.5); err != nil || ops != 0 {
		t.Fatalf("m=0: (%d,%v)", ops, err)
	}
}

func TestOpsForVisitRateMonotone(t *testing.T) {
	const m = int64(100000)
	prev := int64(-1)
	for _, x := range []float64{0.1, 0.2, 0.4, 0.6, 0.8, 0.95, 1} {
		ops, err := OpsForVisitRate(m, x)
		if err != nil {
			t.Fatal(err)
		}
		if ops <= prev {
			t.Fatalf("ops not strictly increasing at x=%v: %d after %d", x, ops, prev)
		}
		prev = ops
	}
}

func TestVisitRate(t *testing.T) {
	if v := VisitRate(0, 100); v != 1 {
		t.Fatalf("all modified: %v", v)
	}
	if v := VisitRate(100, 100); v != 0 {
		t.Fatalf("none modified: %v", v)
	}
	if v := VisitRate(25, 100); math.Abs(v-0.75) > 1e-12 {
		t.Fatalf("3/4 modified: %v", v)
	}
	if v := VisitRate(5, 0); v != 0 {
		t.Fatalf("empty graph: %v", v)
	}
}

// TestBudget pins the run-budget rule: an explicit count is t, x ∈ (0, 1]
// derives it per algorithm, only a derived curveball budget arms the
// early stop, and x = 0 with no count is refused rather than read as 0
// operations or as a full visit.
func TestBudget(t *testing.T) {
	const m = int64(10000)
	esOps, _ := OpsForVisitRate(m, 0.5)
	cbRounds, _ := CurveballRoundsForVisitRate(m, 0.9)
	for _, c := range []struct {
		algo   Algorithm
		ops    int64
		x      float64
		t      int64
		stopAt float64
		ok     bool
	}{
		{"", 0, 0.5, esOps, 0, true},
		{AlgoEdgeSwitch, 0, 0.5, esOps, 0, true},
		{AlgoCurveball, 0, 0.9, cbRounds, 0.9, true},
		{AlgoEdgeSwitch, 40, 0, 40, 0, true},
		{AlgoCurveball, 3, 0.9, 3, 0, true},
		{AlgoEdgeSwitch, 0, 0, 0, 0, false},
		{AlgoCurveball, 0, 0, 0, 0, false},
		{AlgoEdgeSwitch, 0, 1.5, 0, 0, false},
		{AlgoEdgeSwitch, -1, 1, 0, 0, false},
		{"bogus", 40, 1, 0, 0, false},
	} {
		tt, stopAt, err := Budget(c.algo, m, c.ops, c.x)
		if (err == nil) != c.ok || tt != c.t || stopAt != c.stopAt {
			t.Errorf("Budget(%q, %d, %d, %v) = (%d, %v, %v), want (%d, %v, ok=%v)",
				c.algo, m, c.ops, c.x, tt, stopAt, err, c.t, c.stopAt, c.ok)
		}
	}
}
