package core

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"

	"edgeswitch/internal/gen/pergen"
	"edgeswitch/internal/graph"
	"edgeswitch/internal/mpi"
	"edgeswitch/internal/partition"
	"edgeswitch/internal/rng"
	"edgeswitch/internal/store"
)

// recBuild is one bulk build a store received.
type recBuild struct {
	li    int
	keys  []graph.Vertex
	prios []uint32
	origs []bool
}

// recStore records every BuildSortedFlagged call — the keys, treap
// priorities and flags of each slot — before passing it on.
type recStore struct {
	store.Store
	builds []recBuild
}

func (s *recStore) BuildSortedFlagged(li int, keys []graph.Vertex, prios []uint32, origs []bool) {
	s.builds = append(s.builds, recBuild{li, slices.Clone(keys), slices.Clone(prios), slices.Clone(origs)})
	s.Store.BuildSortedFlagged(li, keys, prios, origs)
}

// withLoadEngines runs fn on a one-rank world with engines over n
// vertices whose stores record their bulk builds; every engine starts
// from the same run-RNG state.
func withLoadEngines(t testing.TB, n, engines int, cfg Config, fn func(es []*rankEngine)) {
	t.Helper()
	w, err := mpi.NewWorld(1)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	pt, err := partition.NewHPD(1)
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(c *mpi.Comm) error {
		es := make([]*rankEngine, engines)
		for i := range es {
			e, err := newEmptyRankEngine(c, pt, n, cfg)
			if err != nil {
				return err
			}
			defer e.adj.Close()
			e.adj = &recStore{Store: e.adj}
			es[i] = e
		}
		fn(es)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// loadSlotEdges is the bulk load a bootstrap or a curveball fill makes —
// sortSlotEdges, then buildStore — returning how many entries are
// originals.
func (e *rankEngine) loadSlotEdges(ents, spare []slotEdge, collapseDup bool) (int64, error) {
	ents, err := e.sortSlotEdges(ents, spare, collapseDup)
	if err != nil {
		return 0, err
	}
	return e.buildStore(ents), nil
}

// refLoadSlotEdges is loadSlotEdges' specification with a comparison
// sort: entries sorted by (slot, v) — stably, so of two equal entries
// the earlier one's flag survives a collapse — then, slot by slot, one
// run-RNG priority per entry, one BuildSortedFlagged and one Fenwick
// update.
func refLoadSlotEdges(e *rankEngine, ents []slotEdge, collapseDup bool) error {
	ents = slices.Clone(ents)
	sort.SliceStable(ents, func(i, j int) bool {
		a, b := ents[i], ents[j]
		return a.slot < b.slot || a.slot == b.slot && a.v < b.v
	})
	for i := 0; i < len(ents); {
		li := ents[i].slot
		var keys []graph.Vertex
		var prios []uint32
		var origs []bool
		for ; i < len(ents) && ents[i].slot == li; i++ {
			prio := e.rnd.Uint32()
			if n := len(keys); n > 0 && keys[n-1] == ents[i].v {
				if collapseDup {
					continue
				}
				return fmt.Errorf("duplicate entry %+v", ents[i])
			}
			keys, prios, origs = append(keys, ents[i].v), append(prios, prio), append(origs, ents[i].orig)
		}
		e.adj.BuildSortedFlagged(int(li), keys, prios, origs)
		e.deg.Add(int(li), int64(len(keys)))
	}
	return nil
}

// loaderInput draws shuffled entries over a few hundred slots of an
// n-vertex partition, slot 0 a hub past flatMax (a treap), with mixed
// flags and, when dups, a sprinkling of repeated entries.
func loaderInput(r *rng.RNG, n int, dups bool) []slotEdge {
	var ents []slotEdge
	add := func(u int, vs []int) {
		for _, v := range vs {
			ents = append(ents, slotEdge{slot: int32(u), v: graph.Vertex(v), orig: r.Bool()})
		}
	}
	hub := r.Perm(n - 1)[:9000]
	for i := range hub {
		hub[i]++
	}
	add(0, hub)
	for range 300 {
		u := 1 + r.Intn(n-100)
		vs := r.Perm(n - u - 1)[:1+r.Intn(40)]
		for i := range vs {
			vs[i] += u + 1
		}
		add(u, vs)
	}
	if dups {
		for range 60 {
			d := ents[r.Intn(len(ents))]
			d.orig = r.Bool()
			ents = append(ents, d)
		}
	}
	r.Shuffle(len(ents), func(i, j int) { ents[i], ents[j] = ents[j], ents[i] })
	return ents
}

// TestLoadSlotEdgesMatchesReference pins the counting-sort loader to its
// comparison-sort specification on shuffled input: the same builds
// (keys, priorities, flags per slot, the hub's treap included), the same
// Walk and Fenwick degree per slot and the same run-RNG state — and a
// repeated entry refused by both unless collapseDup. The load moves no
// originals count or sanitizer delta.
func TestLoadSlotEdgesMatchesReference(t *testing.T) {
	const n = 12000
	for _, tc := range []struct {
		dups, collapse bool
	}{{false, false}, {true, true}, {true, false}} {
		t.Run(fmt.Sprintf("dups=%v/collapse=%v", tc.dups, tc.collapse), func(t *testing.T) {
			ents := loaderInput(rng.New(3), n, tc.dups)
			withLoadEngines(t, n, 2, Config{Seed: 5, CheckInvariants: true}, func(es []*rankEngine) {
				got, want := es[0], es[1]
				gotOrigs, gotErr := got.loadSlotEdges(slices.Clone(ents), nil, tc.collapse)
				wantErr := refLoadSlotEdges(want, ents, tc.collapse)
				if tc.dups && !tc.collapse {
					if gotErr == nil || wantErr == nil || !strings.Contains(gotErr.Error(), "duplicate edge") {
						t.Fatalf("repeated entry: loader %v, reference %v", gotErr, wantErr)
					}
					return
				}
				if gotErr != nil || wantErr != nil {
					t.Fatalf("loader %v, reference %v", gotErr, wantErr)
				}
				gb, wb := got.adj.(*recStore).builds, want.adj.(*recStore).builds
				if len(gb) != len(wb) {
					t.Fatalf("%d slot builds, reference %d", len(gb), len(wb))
				}
				for i := range gb {
					g, w := gb[i], wb[i]
					if g.li != w.li || !slices.Equal(g.keys, w.keys) || !slices.Equal(g.prios, w.prios) || !slices.Equal(g.origs, w.origs) {
						t.Fatalf("build %d: slot %d with %d keys, reference slot %d with %d keys (or their priorities or flags differ)", i, g.li, len(g.keys), w.li, len(w.keys))
					}
				}
				if len(gb[0].keys) <= 8192 {
					t.Fatalf("hub slot holds %d entries, not past flatMax", len(gb[0].keys))
				}
				type entry struct {
					v    graph.Vertex
					orig bool
				}
				walk := func(e *rankEngine, li int) (out []entry) {
					e.adj.Walk(li, func(v graph.Vertex, orig bool) bool {
						out = append(out, entry{v, orig})
						return true
					})
					return out
				}
				for li := range got.verts {
					if !slices.Equal(walk(got, li), walk(want, li)) || got.deg.Get(li) != want.deg.Get(li) {
						t.Fatalf("slot %d: Walk or degree (%d vs %d) differs from the reference", li, got.deg.Get(li), want.deg.Get(li))
					}
				}
				if got.rnd.State() != want.rnd.State() {
					t.Errorf("run RNG at %#x, reference %#x", got.rnd.State(), want.rnd.State())
				}
				if got.origLocal != 0 || got.degSig != 0 {
					t.Errorf("the load counted %d originals and degree fingerprint %#x, want none", got.origLocal, got.degSig)
				}
				var origs int64
				for _, b := range wb {
					for _, o := range b.origs {
						if o {
							origs++
						}
					}
				}
				if gotOrigs != origs {
					t.Errorf("the load reported %d originals, it built %d", gotOrigs, origs)
				}
			})
		})
	}
}

// TestLoadSlotEdgesRefusesForeignVertex: the counting sort indexes its
// counters by neighbour, so a neighbour outside [0, n) — a decoded
// checkpoint segment is bounded only by graph's vertex limit — is a
// named error before anything is drawn or stored, never a panic.
func TestLoadSlotEdgesRefusesForeignVertex(t *testing.T) {
	const n = 10
	for _, v := range []graph.Vertex{n, 1<<31 - 1, -1} {
		withLoadEngines(t, n, 1, Config{Seed: 5}, func(es []*rankEngine) {
			e := es[0]
			rnd := e.rnd.State()
			ents := []slotEdge{{slot: 0, v: 1, orig: true}, {slot: 3, v: v}}
			_, err := e.loadSlotEdges(ents, nil, false)
			want := fmt.Sprintf("core: rank 0 bulk load: slot 3 names vertex %d of %d", v, n)
			if err == nil || err.Error() != want {
				t.Fatalf("v=%d: got %v, want %q", v, err, want)
			}
			if e.deg.Total() != 0 || e.rnd.State() != rnd || len(e.adj.(*recStore).builds) != 0 {
				t.Fatalf("v=%d: the refused load moved the store or the run RNG", v)
			}
		})
	}
}

// BenchmarkLoadSlotEdges times the bulk loader per entry on a PA
// partition of ≈ 2.5·10^5 entries, in generation order and shuffled (the
// curveball settled list's order), scattering through a reused spare as
// curveball's fill does.
func BenchmarkLoadSlotEdges(b *testing.B) {
	src, err := genSource(pergen.Spec{Model: pergen.ModelPA, Seed: 42, N: 25000, D: 10})
	if err != nil {
		b.Fatal(err)
	}
	for _, order := range []string{"generated", "shuffled"} {
		b.Run(order, func(b *testing.B) {
			withLoadEngines(b, src.n, 1, Config{Seed: 5}, func(es []*rankEngine) {
				e := es[0]
				e.adj = e.adj.(*recStore).Store
				input, err := src.edges(e)
				if err != nil {
					b.Fatal(err)
				}
				if order == "shuffled" {
					r := rng.New(1)
					r.Shuffle(len(input), func(i, j int) { input[i], input[j] = input[j], input[i] })
				}
				var ents, spare []slotEdge
				b.ResetTimer()
				for range b.N {
					b.StopTimer()
					ents = e.drainPartition(ents[:0])
					ents = append(ents[:0], input...)
					b.StartTimer()
					if _, err := e.loadSlotEdges(ents, spare, true); err != nil {
						b.Fatal(err)
					}
					ents, spare = spare, ents
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(input)), "ns/entry")
			})
		})
	}
}
