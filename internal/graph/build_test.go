package graph

import (
	"sync"
	"testing"

	"edgeswitch/internal/rng"
)

func TestNewFenwickFromMatchesAdds(t *testing.T) {
	r := rng.New(11)
	for _, n := range []int{0, 1, 2, 3, 7, 8, 9, 63, 64, 65, 1000} {
		vals := make([]int64, n)
		ref := NewFenwick(n)
		for i := range vals {
			vals[i] = r.Int64n(10)
			ref.Add(i, vals[i])
		}
		got := NewFenwickFrom(vals)
		if got.Total() != ref.Total() {
			t.Fatalf("n=%d: total %d, want %d", n, got.Total(), ref.Total())
		}
		for i := 0; i < n; i++ {
			if got.Get(i) != ref.Get(i) {
				t.Fatalf("n=%d: weight[%d] = %d, want %d", n, i, got.Get(i), ref.Get(i))
			}
		}
		for target := int64(0); target < got.Total(); target++ {
			slot, off := got.FindByPrefix(target)
			wantSlot, wantOff := ref.FindByPrefix(target)
			if slot != wantSlot || off != wantOff {
				t.Fatalf("n=%d: FindByPrefix(%d) = (%d,%d), want (%d,%d)", n, target, slot, off, wantSlot, wantOff)
			}
		}
	}
}

func TestAdjSetOriginalsCounter(t *testing.T) {
	var s AdjSet
	r := rng.New(12)
	s.Insert(1, true, r.Uint32())
	s.Insert(2, false, r.Uint32())
	s.Insert(3, true, r.Uint32())
	if s.Originals() != 2 {
		t.Fatalf("originals %d, want 2", s.Originals())
	}
	// Duplicate insert must not bump the counter.
	if s.Insert(1, true, r.Uint32()) {
		t.Fatal("duplicate insert accepted")
	}
	if s.Originals() != 2 {
		t.Fatalf("originals after duplicate %d, want 2", s.Originals())
	}
	s.Delete(3)
	s.Delete(2)
	if s.Originals() != 1 {
		t.Fatalf("originals after deletes %d, want 1", s.Originals())
	}
	// Deleting a missing key changes nothing.
	s.Delete(9)
	if s.Originals() != 1 {
		t.Fatalf("originals after missing delete %d, want 1", s.Originals())
	}
}

// TestInsertUnindexedReindex bulk-loads a graph through sharded workers
// and asserts Reindex reconstructs exactly the state an edge-at-a-time
// build produces.
func TestInsertUnindexedReindex(t *testing.T) {
	const n = 200
	r := rng.New(13)
	var edges []Edge
	for u := Vertex(0); u < n; u++ {
		for v := u + 1; v < n; v += Vertex(1 + r.Intn(9)) {
			edges = append(edges, Edge{U: u, V: v})
		}
	}
	ref := New(n)
	for i, e := range edges {
		original := i%3 != 0
		if !ref.AddEdge(e, r) {
			t.Fatalf("ref add %v", e)
		}
		if !original {
			ref.RemoveEdge(e)
			ref.AddModified(e, r)
		}
	}

	const workers = 4
	got := New(n)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wr := rng.Split(13, w)
			for i, e := range edges {
				if int(e.U)%workers != w {
					continue
				}
				if !got.InsertUnindexed(e, i%3 != 0, wr.Uint32()) {
					t.Errorf("worker %d: duplicate %v", w, e)
				}
			}
		}(w)
	}
	wg.Wait()
	got.Reindex()

	if got.M() != ref.M() || got.Originals() != ref.Originals() {
		t.Fatalf("counters: m=%d origs=%d, want m=%d origs=%d",
			got.M(), got.Originals(), ref.M(), ref.Originals())
	}
	if err := got.CheckSimple(); err != nil {
		t.Fatal(err)
	}
	ge, re := got.Edges(), ref.Edges()
	if len(ge) != len(re) {
		t.Fatalf("edge count %d, want %d", len(ge), len(re))
	}
	for i := range ge {
		if ge[i] != re[i] {
			t.Fatalf("edge %d: %v, want %v", i, ge[i], re[i])
		}
	}
	for u := Vertex(0); int(u) < n; u++ {
		if got.ReducedDegree(u) != ref.ReducedDegree(u) {
			t.Fatalf("reduced degree of %d: %d, want %d", u, got.ReducedDegree(u), ref.ReducedDegree(u))
		}
	}
}
