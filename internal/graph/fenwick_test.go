package graph

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"edgeswitch/internal/rng"
)

func TestFenwickBasic(t *testing.T) {
	f := NewFenwick(5)
	if f.Len() != 5 || f.Total() != 0 {
		t.Fatal("new fenwick wrong shape")
	}
	f.Add(0, 3)
	f.Add(2, 5)
	f.Add(4, 1)
	if f.Total() != 9 {
		t.Fatalf("total %d want 9", f.Total())
	}
	for i, w := range []int64{3, 0, 5, 0, 1} {
		if got := f.Get(i); got != w {
			t.Fatalf("Get(%d) = %d, want %d", i, got, w)
		}
	}
	f.Add(2, -5)
	if f.Total() != 4 || f.Get(2) != 0 {
		t.Fatal("negative delta not applied")
	}
	if slot, off := f.FindByPrefix(3); slot != 4 || off != 0 {
		t.Fatalf("FindByPrefix(3) = (%d,%d) after emptying slot 2, want (4,0)", slot, off)
	}
}

func TestFenwickFindByPrefix(t *testing.T) {
	f := NewFenwick(4)
	weights := []int64{2, 0, 3, 1}
	for i, w := range weights {
		f.Add(i, w)
	}
	// Cumulative: [0,2) -> slot0, [2,5) -> slot2, [5,6) -> slot3.
	cases := []struct {
		target int64
		slot   int
		offset int64
	}{
		{0, 0, 0}, {1, 0, 1}, {2, 2, 0}, {3, 2, 1}, {4, 2, 2}, {5, 3, 0},
	}
	for _, c := range cases {
		slot, off := f.FindByPrefix(c.target)
		if slot != c.slot || off != c.offset {
			t.Fatalf("FindByPrefix(%d) = (%d,%d), want (%d,%d)", c.target, slot, off, c.slot, c.offset)
		}
	}
}

// mustPanicFind asserts FindByPrefix refuses target.
func mustPanicFind(t *testing.T, f *Fenwick, target int64) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic for target %d (total %d)", target, f.Total())
		}
	}()
	f.FindByPrefix(target)
}

func TestFenwickFindByPrefixPanics(t *testing.T) {
	f := NewFenwick(3)
	f.Add(0, 1)
	for _, target := range []int64{-1, 1, 100} {
		mustPanicFind(t, f, target)
	}
	mustPanicFind(t, NewFenwick(0), 0)
}

// refFind is the linear-scan reference for FindByPrefix over w.
func refFind(w []int64, target int64) (int, int64) {
	for i, x := range w {
		if target < x {
			return i, target
		}
		target -= x
	}
	return -1, 0
}

// TestFenwickAgainstNaive drives the tree with random updates and checks
// weights and FindByPrefix against a plain slice.
func TestFenwickAgainstNaive(t *testing.T) {
	r := rng.New(1)
	const n = 128
	f := NewFenwick(n)
	ref := make([]int64, n)
	for step := 0; step < 5000; step++ {
		i := r.Intn(n)
		delta := r.Int64n(7) - ref[i]%3 // mixed sign but keep weights >= 0
		if ref[i]+delta < 0 {
			delta = -ref[i]
		}
		f.Add(i, delta)
		ref[i] += delta

		if j := r.Intn(n); f.Get(j) != ref[j] {
			t.Fatalf("step %d: Get(%d) = %d, want %d", step, j, f.Get(j), ref[j])
		}
		if f.Total() > 0 {
			target := r.Int64n(f.Total())
			slot, off := f.FindByPrefix(target)
			wantSlot, wantOff := refFind(ref, target)
			if slot != wantSlot || off != wantOff {
				t.Fatalf("step %d: FindByPrefix(%d) = (%d,%d), want (%d,%d)",
					step, target, slot, off, wantSlot, wantOff)
			}
		}
	}
}

// TestFenwickNonPowerOfTwoSizes checks FindByPrefix across awkward sizes.
func TestFenwickNonPowerOfTwoSizes(t *testing.T) {
	f := func(sizeRaw uint8, seed uint64) bool {
		n := int(sizeRaw%60) + 1
		r := rng.New(seed)
		fw := NewFenwick(n)
		ref := make([]int64, n)
		for i := 0; i < n; i++ {
			w := r.Int64n(4)
			fw.Add(i, w)
			ref[i] = w
		}
		if fw.Total() == 0 {
			return true
		}
		for trial := 0; trial < 20; trial++ {
			target := r.Int64n(fw.Total())
			slot, off := fw.FindByPrefix(target)
			var cum int64
			for k := 0; k < slot; k++ {
				cum += ref[k]
			}
			if target != cum+off || off >= ref[slot] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// checkFenwick asserts f holds exactly the weights w: Len, Total, every
// Get, and for every nonempty slot the first, a middle and the last
// target that must select it; targets just outside [0, Total()) panic.
func checkFenwick(t *testing.T, f *Fenwick, w []int64) {
	t.Helper()
	if f.Len() != len(w) {
		t.Fatalf("Len %d, want %d", f.Len(), len(w))
	}
	var cum int64
	for i, x := range w {
		if got := f.Get(i); got != x {
			t.Fatalf("Get(%d) = %d, want %d", i, got, x)
		}
		if x > 0 {
			for _, off := range []int64{0, x / 2, x - 1} {
				if slot, o := f.FindByPrefix(cum + off); slot != i || o != off {
					t.Fatalf("FindByPrefix(%d) = (%d,%d), want (%d,%d)", cum+off, slot, o, i, off)
				}
			}
		}
		cum += x
	}
	if f.Total() != cum {
		t.Fatalf("Total %d, want %d", f.Total(), cum)
	}
	mustPanicFind(t, f, -1)
	mustPanicFind(t, f, cum)
}

// TestFenwickDifferential checks the counted tree against a plain weight
// slice at sizes around every level boundary: dense heavy-tailed weights,
// and weights with zero runs at both ends and over whole 16- and
// 256-slot blocks; then slots emptied and refilled by Add, and the bulk
// build against the same weights added one by one in random order.
func TestFenwickDifferential(t *testing.T) {
	for _, n := range []int{1, 15, 16, 17, 255, 256, 257, 4096, 4097, 70000} {
		for _, gappy := range []bool{false, true} {
			t.Run(fmt.Sprintf("n=%d/gappy=%v", n, gappy), func(t *testing.T) {
				r := rng.New(uint64(n))
				w := make([]int64, n)
				for i := range w {
					zero := i < 17 || i >= n-17 || (i/fanout)%5 == 2 || (i/(fanout*fanout))%7 == 3
					if !gappy || !zero {
						w[i] = heavyTailed(r)
					}
				}
				f := NewFenwick(n)
				for _, i := range r.Perm(n) {
					f.Add(i, w[i])
				}
				bulk := NewFenwickFrom(w)
				for l := range f.levels {
					if !slices.Equal(f.levels[l], bulk.levels[l]) {
						t.Fatalf("level %d: NewFenwickFrom differs from incremental Adds", l)
					}
				}
				checkFenwick(t, bulk, w)
				checkFenwick(t, f, w)

				for i := range w {
					if (i/fanout)%3 == 0 {
						f.Add(i, -w[i])
						w[i] = 0
					}
				}
				checkFenwick(t, f, w)
				for i := range w {
					if w[i] == 0 {
						w[i] = int64(1 + i%3)
						f.Add(i, w[i])
					}
				}
				checkFenwick(t, f, w)
			})
		}
	}
}

// heavyTailed draws a Pareto(1.5)-like degree: mostly single digits,
// occasionally thousands, like a preferential-attachment partition.
func heavyTailed(r *rng.RNG) int64 {
	return int64(math.Min(3*math.Pow(1-r.Float64(), -1/1.5), 1e6))
}

// BenchmarkSelection times the engine's per-operation use of the tree:
// pick a slot edge-proportionally and take an edge from it, pick again,
// and put the edge back — over heavy-tailed weights on 25 000 slots,
// the per-rank size of the es-pa benchmark graph.
func BenchmarkSelection(b *testing.B) {
	const n = 25000
	r := rng.New(2)
	w := make([]int64, n)
	for i := range w {
		w[i] = heavyTailed(r)
	}
	f := NewFenwickFrom(w)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, _ := f.FindByPrefix(r.Int64n(f.Total()))
		f.Add(s, -1)
		f.FindByPrefix(r.Int64n(f.Total()))
		f.Add(s, 1)
	}
}
