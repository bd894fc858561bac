package graph

import (
	"fmt"
	"sort"
	"testing"

	"edgeswitch/internal/rng"
)

// lowerFlatMax sets the flat→treap threshold for one test: 0 keeps every
// slot a treap (what the treap-structure tests need), a small value lets
// short op sequences cross promotion and demotion.
func lowerFlatMax(tb testing.TB, n int) {
	tb.Helper()
	old := flatMax
	flatMax = n
	tb.Cleanup(func() { flatMax = old })
}

// adjModel is the map+sort reference an AdjSet is checked against.
type adjModel map[Vertex]bool

func (m adjModel) keys() []Vertex {
	out := make([]Vertex, 0, len(m))
	for v := range m {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (m adjModel) originals() int {
	n := 0
	for _, o := range m {
		if o {
			n++
		}
	}
	return n
}

// panics reports whether fn panicked.
func panics(fn func()) (p bool) {
	defer func() { p = recover() != nil }()
	fn()
	return false
}

// adjOpUniverse bounds the keys the op interpreter uses, so random
// sequences collide (duplicate inserts, hits on delete) and a slot fills
// past a lowered threshold within a few dozen ops.
const adjOpUniverse = 48

// runAdjSetOps interprets ops — (opcode, argument) byte pairs — against
// one AdjSet and the reference model, failing on the first divergence:
// order of Kth/Walk/Drain, Originals, duplicate-insert refusal, the
// BuildSorted panics, and the representation invariant (a treap or a flat
// array within the threshold, never both). It returns how often the slot
// went flat→treap and treap→flat.
func runAdjSetOps(t *testing.T, ops []byte, arena *NodeArena) (promotions, demotions int) {
	t.Helper()
	var s AdjSet
	m := adjModel{}
	// Priorities and build lists come from the arguments alone, so a
	// fuzz input replays exactly.
	pr := rng.New(99)
	buildList := func(arg byte) ([]Vertex, []uint32, []bool) {
		n := int(arg) % 24
		r := rng.New(uint64(arg) + 1)
		seen := adjModel{}
		for len(seen) < n {
			seen[Vertex(r.Intn(adjOpUniverse))] = r.Bool()
		}
		keys := seen.keys()
		prios, flags := make([]uint32, n), make([]bool, n)
		for i, k := range keys {
			prios[i], flags[i] = r.Uint32(), seen[k]
		}
		return keys, prios, flags
	}

	for i := 0; i+1 < len(ops); i += 2 {
		op, arg := ops[i]%9, ops[i+1]
		v := Vertex(arg % adjOpUniverse)
		wasTreap := s.root != nil
		what := fmt.Sprintf("op %d (%d, %d)", i/2, op, arg)
		switch op {
		case 0: // Insert
			orig := arg >= 128
			_, dup := m[v]
			if got := s.InsertArena(arena, v, orig, pr.Uint32()); got == dup {
				t.Fatalf("%s: Insert(%d) = %v with duplicate = %v", what, v, got, dup)
			}
			if !dup {
				m[v] = orig
			}
		case 1: // Delete
			wantOrig, want := m[v]
			found, orig := s.DeleteArena(arena, v)
			if found != want || orig != wantOrig {
				t.Fatalf("%s: Delete(%d) = (%v, %v), want (%v, %v)", what, v, found, orig, want, wantOrig)
			}
			delete(m, v)
		case 2: // Kth, or TakeKthArena for arg ≥ 128; one past the end included
			keys := m.keys()
			k := int(arg) % (len(keys) + 1)
			if k == len(keys) {
				if !panics(func() { s.Kth(k) }) || !panics(func() { s.Kth(-1) }) || !panics(func() { s.TakeKthArena(arena, k) }) {
					t.Fatalf("%s: Kth out of range did not panic", what)
				}
				break
			}
			kth := s.Kth
			if arg >= 128 {
				kth = func(k int) (Vertex, bool) { return s.TakeKthArena(arena, k) }
			}
			if got, orig := kth(k); got != keys[k] || orig != m[got] {
				t.Fatalf("%s: Kth(%d) = (%d, %v), want (%d, %v)", what, k, got, orig, keys[k], m[keys[k]])
			}
			if arg >= 128 {
				delete(m, keys[k])
			}
		case 3: // Contains / Original
			orig, in := m[v]
			if s.Contains(v) != in || s.Original(v) != (in && orig) {
				t.Fatalf("%s: Contains(%d) = %v, Original = %v, want %v, %v", what, v, s.Contains(v), s.Original(v), in, in && orig)
			}
		case 4: // Walk, stopped early
			keys := m.keys()
			stop := int(arg) % (len(keys) + 1)
			var got []Vertex
			s.Walk(func(v Vertex, orig bool) bool {
				if orig != m[v] {
					t.Fatalf("%s: Walk flag of %d = %v", what, v, orig)
				}
				got = append(got, v)
				return len(got) < stop
			})
			if want := keys[:max(stop, min(1, len(keys)))]; fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%s: Walk visited %v, want %v", what, got, want)
			}
		case 5: // Drain
			var got []Vertex
			s.DrainArena(arena, func(v Vertex, orig bool) {
				if orig != m[v] {
					t.Fatalf("%s: Drain flag of %d = %v", what, v, orig)
				}
				got = append(got, v)
			})
			if fmt.Sprint(got) != fmt.Sprint(m.keys()) {
				t.Fatalf("%s: Drain yielded %v, want %v", what, got, m.keys())
			}
			m = adjModel{}
		case 6, 7: // BuildSorted / BuildSortedFlagged
			keys, prios, flags := buildList(arg)
			build := func() { s.BuildSorted(arena, keys, prios, arg >= 128) }
			if op == 7 {
				build = func() { s.BuildSortedFlagged(arena, keys, prios, flags) }
			}
			if len(m) > 0 && len(keys) > 0 {
				if !panics(build) {
					t.Fatalf("%s: BuildSorted on a non-empty set did not panic", what)
				}
				break
			}
			build()
			for j, k := range keys {
				m[k] = flags[j]
				if op == 6 {
					m[k] = arg >= 128
				}
			}
		case 8: // the malformed builds, on a set emptied for them
			s.DrainArena(arena, func(Vertex, bool) {})
			m = adjModel{}
			keys, prios, flags := buildList(arg | 2) // at least two keys
			if arg >= 128 {
				keys[1] = keys[0] // duplicate
			} else {
				keys[0], keys[1] = keys[1], keys[0] // descending
			}
			if !panics(func() { s.BuildSortedFlagged(arena, keys, prios, flags) }) {
				t.Fatalf("%s: BuildSorted accepted keys %v", what, keys)
			}
			if !panics(func() { s.BuildSortedFlagged(arena, keys[:1], prios, flags) }) {
				t.Fatalf("%s: BuildSortedFlagged accepted %d flags for 1 key", what, len(flags))
			}
			// A refused build leaves the set as it was: empty.
		}

		if s.Len() != len(m) || s.Originals() != m.originals() {
			t.Fatalf("%s: Len %d Originals %d, want %d %d", what, s.Len(), s.Originals(), len(m), m.originals())
		}
		if fmt.Sprint(s.Keys()) != fmt.Sprint(m.keys()) {
			t.Fatalf("%s: Keys %v, want %v", what, s.Keys(), m.keys())
		}
		if s.root != nil && len(s.flat) != 0 || len(s.flat) > flatMax {
			t.Fatalf("%s: treap of %d beside %d flat entries at threshold %d", what, size(s.root), len(s.flat), flatMax)
		}
		switch isTreap := s.root != nil; {
		case isTreap && !wasTreap:
			promotions++
		case wasTreap && !isTreap:
			demotions++
		}
	}
	return promotions, demotions
}

// TestAdjSetDifferential drives random op sequences at thresholds from
// "always a treap" through "promotes within the sequence" to the real
// one, with and without an arena, and requires the middle ones to have
// crossed promotion and demotion.
func TestAdjSetDifferential(t *testing.T) {
	for _, threshold := range []int{0, 1, 5, 16, 8192} {
		t.Run(fmt.Sprint(threshold), func(t *testing.T) {
			lowerFlatMax(t, threshold)
			r := rng.New(uint64(threshold) + 21)
			promotions, demotions := 0, 0
			for trial := 0; trial < 60; trial++ {
				ops := make([]byte, 2*400)
				for i := range ops {
					ops[i] = byte(r.Intn(256))
				}
				// Inserts outnumber everything else so slots grow.
				for i := 0; i < len(ops); i += 2 {
					if r.Intn(3) > 0 {
						ops[i] = 0
					}
				}
				var arena *NodeArena
				if trial%2 == 0 {
					arena = new(NodeArena)
				}
				p, d := runAdjSetOps(t, ops, arena)
				promotions, demotions = promotions+p, demotions+d
			}
			crosses := threshold < adjOpUniverse
			if crosses && (promotions == 0 || demotions == 0) {
				t.Fatalf("threshold %d: %d promotions, %d demotions — sequences never crossed", threshold, promotions, demotions)
			}
			if !crosses && promotions != 0 {
				t.Fatalf("threshold %d: %d promotions with at most %d keys", threshold, promotions, adjOpUniverse)
			}
		})
	}
}

// TestAdjSetPromotesAtThreshold pins where the forms change: the insert
// past flatMax builds the treap, deletes below it do not go back, an
// emptied slot does, and a bulk build picks its form by length.
func TestAdjSetPromotesAtThreshold(t *testing.T) {
	lowerFlatMax(t, 4)
	var s AdjSet
	var arena NodeArena
	for v := Vertex(0); v < 4; v++ {
		s.InsertArena(&arena, 10+v, true, 0)
	}
	if s.root != nil || len(s.flat) != 4 {
		t.Fatalf("at the threshold: treap %v, %d flat", s.root != nil, len(s.flat))
	}
	if s.InsertArena(&arena, 11, true, 0) || s.root != nil {
		t.Fatal("a duplicate at the threshold was accepted or promoted the slot")
	}
	s.InsertArena(&arena, 20, false, 0)
	if s.root == nil || len(s.flat) != 0 || s.Len() != 5 || s.Originals() != 4 {
		t.Fatalf("past the threshold: treap %v, %d flat, len %d, originals %d", s.root != nil, len(s.flat), s.Len(), s.Originals())
	}
	s.DeleteArena(&arena, 20)
	s.DeleteArena(&arena, 10)
	if s.root == nil {
		t.Fatal("a treap went flat on a delete")
	}
	for _, v := range s.Keys() {
		s.DeleteArena(&arena, v)
	}
	if s.root != nil || s.Len() != 0 {
		t.Fatal("an emptied treap is not an empty flat slot")
	}
	s.BuildSorted(&arena, []Vertex{1, 2, 3, 4}, nil, true)
	if s.root != nil {
		t.Fatal("a bulk build of flatMax keys made a treap")
	}
	s.DrainArena(&arena, func(Vertex, bool) {})
	s.BuildSorted(&arena, []Vertex{1, 2, 3, 4, 5}, []uint32{5, 4, 3, 2, 1}, true)
	if s.root == nil || s.Len() != 5 {
		t.Fatal("a bulk build past flatMax stayed flat")
	}
}

// TestAdjSetDrainKeepsCapacity: a drained flat slot is rebuilt into the
// array it already has — curveball's per-round drain and rebuild
// allocates nothing per slot.
func TestAdjSetDrainKeepsCapacity(t *testing.T) {
	var s AdjSet
	keys := []Vertex{3, 5, 8, 13, 21}
	s.BuildSorted(nil, keys, nil, true)
	allocs := testing.AllocsPerRun(100, func() {
		s.DrainArena(nil, func(Vertex, bool) {})
		s.BuildSorted(nil, keys, nil, false)
	})
	if allocs != 0 {
		t.Fatalf("drain + rebuild of a flat slot allocates %v times", allocs)
	}
}

// FuzzAdjSetOps is TestAdjSetDifferential with the fuzzer choosing the
// sequence and the threshold.
func FuzzAdjSetOps(f *testing.F) {
	f.Add(uint8(4), []byte{0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 2, 3, 1, 2, 5, 0, 7, 200, 4, 9})
	f.Add(uint8(0), []byte{6, 140, 1, 3, 8, 7, 0, 130})
	f.Add(uint8(255), []byte{7, 23, 3, 9, 5, 0, 6, 5})
	f.Fuzz(func(t *testing.T, threshold uint8, ops []byte) {
		lowerFlatMax(t, int(threshold)%32)
		runAdjSetOps(t, ops, new(NodeArena))
	})
}

// TestAdjSetSearchMatchesSortSearch checks the branchless flat search
// against sort.Search at every length up to three linear windows and at
// the largest flat slots: probes below, on, between and above the
// entries, with entries carrying either original flag.
func TestAdjSetSearchMatchesSortSearch(t *testing.T) {
	lengths := []int{8191, 8192}
	for n := 0; n <= 3*flatLinear; n++ {
		lengths = append(lengths, n)
	}
	for _, n := range lengths {
		for flip := uint32(0); flip < 2; flip++ {
			var s AdjSet
			for i := 0; i < n; i++ {
				s.flat = append(s.flat, pack(Vertex(3*i+1), (uint32(i)+flip)&1 == 1))
			}
			for v := Vertex(0); v <= Vertex(3*n+1); v++ {
				key := uint32(v) << 1
				want := sort.Search(n, func(j int) bool { return s.flat[j] >= key })
				wantOK := want < n && s.flat[want]>>1 == uint32(v)
				if i, ok := s.search(v); i != want || ok != wantOK {
					t.Fatalf("len %d flip %d: search(%d) = (%d,%v), want (%d,%v)", n, flip, v, i, ok, want, wantOK)
				}
			}
		}
	}
}

// BenchmarkAblationAdjacency is where flatMax is decided: the engine's
// per-switch mix on one slot (Contains, Kth, Delete, Insert) at degrees
// from a typical slot to the paper's PA-100M hub scale, with the slot
// forced to a treap, forced flat, and as the real AdjSet picks (hybrid).
// One slot stays cache-resident here, which flatters the treap: in the
// engine every level of a descent is a miss on a 32-byte node, and a
// flat slot's search touches log2(d/16) lines.
func BenchmarkAblationAdjacency(b *testing.B) {
	for _, degree := range []int{50, 1000, 4096, 8192, 16384, 50000} {
		for _, arm := range []struct {
			name    string
			flatMax int
		}{{"treap", 0}, {"flat", 1 << 30}, {"hybrid", flatMax}} {
			b.Run(fmt.Sprintf("%s/d=%d", arm.name, degree), func(b *testing.B) {
				lowerFlatMax(b, arm.flatMax)
				r := rng.New(uint64(degree))
				keys := make([]Vertex, degree)
				var s AdjSet
				for i := range keys {
					keys[i] = Vertex(i * 7)
					s.Insert(keys[i], true, r.Uint32())
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					v := keys[r.Intn(degree)]
					s.Contains(v + 1)
					s.Kth(r.Intn(s.Len()))
					s.Delete(v)
					s.Insert(v, false, r.Uint32())
				}
			})
		}
	}
}
