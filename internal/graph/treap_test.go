package graph

import (
	"sort"
	"testing"
	"testing/quick"

	"edgeswitch/internal/rng"
)

func TestAdjSetBasic(t *testing.T) {
	r := rng.New(1)
	var s AdjSet
	if s.Len() != 0 {
		t.Fatal("new set not empty")
	}
	if !s.Insert(5, true, r.Uint32()) {
		t.Fatal("insert of new key failed")
	}
	if s.Insert(5, false, r.Uint32()) {
		t.Fatal("duplicate insert succeeded")
	}
	if !s.Contains(5) || s.Contains(6) {
		t.Fatal("contains wrong")
	}
	if !s.Original(5) {
		t.Fatal("original flag lost")
	}
	found, orig := s.Delete(5)
	if !found || !orig {
		t.Fatalf("delete = (%v,%v), want (true,true)", found, orig)
	}
	if found, _ := s.Delete(5); found {
		t.Fatal("double delete reported found")
	}
	if s.Len() != 0 {
		t.Fatal("set not empty after delete")
	}
}

func TestAdjSetOrderedWalk(t *testing.T) {
	r := rng.New(2)
	var s AdjSet
	vals := []Vertex{9, 3, 7, 1, 5, 11, 2}
	for _, v := range vals {
		s.Insert(v, true, r.Uint32())
	}
	got := s.Keys()
	want := append([]Vertex(nil), vals...)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	if len(got) != len(want) {
		t.Fatalf("len %d want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("Keys()[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestAdjSetKth(t *testing.T) {
	r := rng.New(3)
	var s AdjSet
	for _, v := range []Vertex{10, 20, 30, 40, 50} {
		s.Insert(v, true, r.Uint32())
	}
	for k, want := range []Vertex{10, 20, 30, 40, 50} {
		if got, _ := s.Kth(k); got != want {
			t.Fatalf("Kth(%d) = %d, want %d", k, got, want)
		}
	}
}

func TestAdjSetKthPanicsOutOfRange(t *testing.T) {
	var s AdjSet
	s.Insert(1, true, 12345)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.Kth(1)
}

func TestAdjSetOriginalFlagPerEntry(t *testing.T) {
	r := rng.New(4)
	var s AdjSet
	s.Insert(1, true, r.Uint32())
	s.Insert(2, false, r.Uint32())
	if !s.Original(1) || s.Original(2) || s.Original(3) {
		t.Fatal("original flags wrong")
	}
	_, orig := s.Kth(1)
	if orig {
		t.Fatal("Kth returned wrong original flag")
	}
}

// TestAdjSetAgainstMap drives the treap with random operations and checks
// it against a reference map implementation.
func TestAdjSetAgainstMap(t *testing.T) {
	r := rng.New(5)
	var s AdjSet
	ref := map[Vertex]bool{} // value = original flag
	for i := 0; i < 20000; i++ {
		v := Vertex(r.Intn(500))
		switch r.Intn(3) {
		case 0: // insert
			orig := r.Bool()
			_, exists := ref[v]
			if s.Insert(v, orig, r.Uint32()) == exists {
				t.Fatalf("step %d: insert(%d) disagreed with reference", i, v)
			}
			if !exists {
				ref[v] = orig
			}
		case 1: // delete
			want, exists := ref[v]
			found, orig := s.Delete(v)
			if found != exists || (found && orig != want) {
				t.Fatalf("step %d: delete(%d) = (%v,%v), want (%v,%v)", i, v, found, orig, exists, want)
			}
			delete(ref, v)
		case 2: // query
			if s.Contains(v) != func() bool { _, ok := ref[v]; return ok }() {
				t.Fatalf("step %d: contains(%d) disagreed", i, v)
			}
		}
		if s.Len() != len(ref) {
			t.Fatalf("step %d: len %d != ref %d", i, s.Len(), len(ref))
		}
	}
	// Final ordering check.
	keys := s.Keys()
	for i := 1; i < len(keys); i++ {
		if keys[i-1] >= keys[i] {
			t.Fatal("final walk out of order")
		}
	}
}

// TestAdjSetKthMatchesSortedOrder is a property test: for any set of
// distinct values, Kth(k) must equal the k-th smallest.
func TestAdjSetKthMatchesSortedOrder(t *testing.T) {
	f := func(raw []uint16, seed uint64) bool {
		r := rng.New(seed)
		var s AdjSet
		uniq := map[Vertex]bool{}
		for _, x := range raw {
			uniq[Vertex(x)] = true
		}
		var want []Vertex
		for v := range uniq {
			want = append(want, v)
			s.Insert(v, true, r.Uint32())
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		if s.Len() != len(want) {
			return false
		}
		for k, w := range want {
			if got, _ := s.Kth(k); got != w {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestAdjSetWalkEarlyStop(t *testing.T) {
	r := rng.New(6)
	var s AdjSet
	for v := Vertex(0); v < 100; v++ {
		s.Insert(v, true, r.Uint32())
	}
	visited := 0
	s.Walk(func(v Vertex, _ bool) bool {
		visited++
		return visited < 10
	})
	if visited != 10 {
		t.Fatalf("early stop visited %d, want 10", visited)
	}
}

func BenchmarkAdjSetInsertDelete(b *testing.B) {
	r := rng.New(7)
	var s AdjSet
	for i := 0; i < b.N; i++ {
		v := Vertex(r.Intn(1 << 20))
		if !s.Insert(v, true, r.Uint32()) {
			s.Delete(v)
		}
	}
}

func BenchmarkAdjSetKth(b *testing.B) {
	r := rng.New(8)
	var s AdjSet
	for i := 0; i < 1000; i++ {
		s.Insert(Vertex(i*3), true, r.Uint32())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Kth(r.Intn(1000))
	}
}

// identicalTreap reports whether two treaps have the same structure,
// keys, priorities, and sizes — stronger than behavioral equality, it
// pins BuildSorted's claim of being bit-identical to one-at-a-time
// insertion.
func identicalTreap(a, b *treapNode) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.key == b.key && a.prio == b.prio && a.size == b.size &&
		a.original == b.original &&
		identicalTreap(a.left, b.left) && identicalTreap(a.right, b.right)
}

func TestBuildSortedMatchesIncrementalInsert(t *testing.T) {
	lowerFlatMax(t, 0) // every slot a treap
	r := rng.New(7)
	for trial := 0; trial < 200; trial++ {
		n := r.Intn(40) + 1
		keys := make([]Vertex, 0, n)
		prios := make([]uint32, 0, n)
		seen := map[Vertex]bool{}
		for len(keys) < n {
			v := Vertex(r.Intn(200))
			if seen[v] {
				continue
			}
			seen[v] = true
			keys = append(keys, v)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		for range keys {
			// Narrow priority range so ties actually occur in the trial set.
			prios = append(prios, uint32(r.Intn(16)))
		}

		var inc, bulk AdjSet
		var arena NodeArena
		for i, k := range keys {
			inc.Insert(k, true, prios[i])
		}
		bulk.BuildSorted(&arena, keys, prios, true)

		if !identicalTreap(inc.root, bulk.root) {
			t.Fatalf("trial %d: BuildSorted tree differs from incremental insert (n=%d)", trial, n)
		}
		if bulk.Len() != len(keys) || bulk.Originals() != len(keys) {
			t.Fatalf("trial %d: Len=%d Originals=%d, want %d", trial, bulk.Len(), bulk.Originals(), len(keys))
		}
	}
}

func TestBuildSortedPanicsOnUnsortedOrNonEmpty(t *testing.T) {
	expectPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	expectPanic("unsorted keys", func() {
		var s AdjSet
		s.BuildSorted(nil, []Vertex{3, 2}, []uint32{1, 2}, true)
	})
	expectPanic("duplicate keys", func() {
		var s AdjSet
		s.BuildSorted(nil, []Vertex{2, 2}, []uint32{1, 2}, true)
	})
	expectPanic("non-empty set", func() {
		var s AdjSet
		s.Insert(1, true, 9)
		s.BuildSorted(nil, []Vertex{2}, []uint32{1}, true)
	})
}

// TestAdjSetDrainArena checks the bulk-drain primitive the curveball
// randomizer uses at every round start: entries arrive in ascending key
// order with their original flags, the set ends empty, and every node is
// returned to the arena free list for the round's re-inserts.
func TestAdjSetDrainArena(t *testing.T) {
	lowerFlatMax(t, 0) // every slot a treap
	var s AdjSet
	var arena NodeArena
	r := rng.New(13)
	want := map[Vertex]bool{}
	for len(want) < 60 {
		v := Vertex(r.Intn(500))
		if _, ok := want[v]; ok {
			continue
		}
		orig := r.Bool()
		want[v] = orig
		s.InsertArena(&arena, v, orig, r.Uint32())
	}

	var keys []Vertex
	got := map[Vertex]bool{}
	s.DrainArena(&arena, func(v Vertex, orig bool) {
		keys = append(keys, v)
		got[v] = orig
	})
	if !sort.SliceIsSorted(keys, func(i, j int) bool { return keys[i] < keys[j] }) {
		t.Fatalf("drain not in key order: %v", keys)
	}
	if len(got) != len(want) {
		t.Fatalf("drained %d entries, want %d", len(got), len(want))
	}
	for v, orig := range want {
		if g, ok := got[v]; !ok || g != orig {
			t.Fatalf("entry %d: got (%v, %v), want (true, %v)", v, ok, g, orig)
		}
	}
	if s.Len() != 0 || s.Originals() != 0 {
		t.Fatalf("set not empty after drain: len %d, originals %d", s.Len(), s.Originals())
	}

	// Every drained node must be back on the free list.
	freed := 0
	for n := arena.free; n != nil; n = n.left {
		freed++
	}
	if freed != len(want) {
		t.Fatalf("free list holds %d nodes, want %d", freed, len(want))
	}

	// An empty set drains as a no-op.
	s.DrainArena(&arena, func(Vertex, bool) { t.Fatal("callback on empty set") })
}
