package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"

	"edgeswitch/internal/gen"
	"edgeswitch/internal/gen/pergen"
	"edgeswitch/internal/graph"
	"edgeswitch/internal/mpi"
	"edgeswitch/internal/partition"
	"edgeswitch/internal/rng"
)

func genSpecs() map[string]pergen.Spec {
	return map[string]pergen.Spec{
		"pa": {Model: pergen.ModelPA, Seed: 99, N: 1200, D: 4},
		"contact": {Model: pergen.ModelContact, Seed: 99, N: 1200,
			Contact: gen.ContactConfig{AvgDegree: 8, CommunitySize: 20, WithinFrac: 0.7}},
	}
}

// TestDistributedGenPInvariance pins the tentpole contract end to end:
// bootstrapping the engine via Config.DistributedGen and reassembling
// (t = 0, so switching never perturbs the edges) yields the exact edge
// set of the sequential pergen materialization — for every model,
// partitioning scheme and rank count.
func TestDistributedGenPInvariance(t *testing.T) {
	for name, spec := range genSpecs() {
		spec := spec
		t.Run(name, func(t *testing.T) {
			g, err := pergen.New(spec)
			if err != nil {
				t.Fatal(err)
			}
			full, err := g.Full()
			if err != nil {
				t.Fatal(err)
			}
			want := full.Edges()
			for _, p := range []int{1, 2, 3, 8} {
				for _, scheme := range Schemes() {
					res, err := Parallel(nil, 0, Config{
						Ranks:           p,
						Scheme:          scheme,
						Seed:            spec.Seed,
						DistributedGen:  &spec,
						CheckInvariants: true,
					})
					if err != nil {
						t.Fatalf("p=%d %s: %v", p, scheme, err)
					}
					got := res.Graph.Edges()
					if len(got) != len(want) {
						t.Fatalf("p=%d %s: %d edges, want %d", p, scheme, len(got), len(want))
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("p=%d %s: edge %d is %v, want %v — graph depends on rank count", p, scheme, i, got[i], want[i])
						}
					}
				}
			}
		})
	}
}

// TestDistributedGenPInvarianceTCP is the p-invariance check over
// loopback TCP on a contact graph large enough that each rank routes
// several full chunks to each peer: the shares' within-count allreduce
// runs while route chunks are still on the sockets, and the graph must
// still be the sequential materialization edge for edge.
func TestDistributedGenPInvarianceTCP(t *testing.T) {
	spec := benchGenSpec("contact", 50_000, 10)
	g, err := pergen.New(spec)
	if err != nil {
		t.Fatal(err)
	}
	full, err := g.Full()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Parallel(nil, 0, Config{Ranks: 3, Scheme: SchemeHPD, Seed: spec.Seed, UseTCP: true, DistributedGen: &spec})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.Graph.Edges(), full.Edges(); !slices.Equal(got, want) {
		t.Fatalf("contact n=%d p=3 over TCP: %d edges differ from the sequential %d", spec.N, len(got), len(want))
	}
}

// TestDistributedGenSwitching runs actual switching on top of the
// generated bootstrap under the invariant sanitizer: simplicity,
// ownership and exact degree-sequence conservation all verified against
// the generated baseline.
func TestDistributedGenSwitching(t *testing.T) {
	for name, spec := range genSpecs() {
		spec := spec
		t.Run(name, func(t *testing.T) {
			ops := spec.MaxEdges() / 2
			res, err := Parallel(nil, ops, Config{
				Ranks:           4,
				Seed:            spec.Seed,
				DistributedGen:  &spec,
				CheckInvariants: true,
				StepSize:        ops / 4,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Ops+res.Forfeited != ops {
				t.Fatalf("ops %d + forfeited %d != requested %d", res.Ops, res.Forfeited, ops)
			}
			if res.VisitRate <= 0 {
				t.Fatalf("visit rate %f after %d ops", res.VisitRate, ops)
			}
			if res.Graph.M() != int64(len(res.Graph.Edges())) {
				t.Fatalf("reassembled graph inconsistent: M=%d, edges=%d", res.Graph.M(), len(res.Graph.Edges()))
			}
		})
	}
}

func TestDistributedGenValidation(t *testing.T) {
	spec := pergen.Spec{Model: pergen.ModelPA, Seed: 1, N: 100, D: 3}
	// A graph alongside DistributedGen is a caller bug.
	g, err := gen.PrefAttachment(rng.New(1), 100, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Parallel(g, 10, Config{Ranks: 2, DistributedGen: &spec}); err == nil {
		t.Fatal("Parallel accepted both a graph and DistributedGen")
	}
	// Invalid specs surface the generator's validation error.
	bad := pergen.Spec{Model: pergen.ModelPA, N: 2, D: 5}
	if _, err := Parallel(nil, 10, Config{Ranks: 2, DistributedGen: &bad}); err == nil {
		t.Fatal("Parallel accepted an invalid generator spec")
	}
	// Nil graph without a generator spec is rejected.
	if _, err := Parallel(nil, 10, Config{Ranks: 2}); err == nil {
		t.Fatal("Parallel accepted a nil graph without DistributedGen")
	}
}

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// TestBootstrapAllocs pins what a generation bootstrap allocates, counted
// around bootstrap itself on a 2-rank world under HP-D (a Parallel run
// also stores a curveball partition at its end, whatever t). pergen scans
// allocate nothing and sortSlotEdges sorts into reused scratch, so an
// edge-switch bootstrap makes about one exact-size adjacency array per
// vertex (0.86, whatever n), and a curveball bootstrap, which carries the
// sorted list to round 1, only its fixed per-rank tables. A per-edge
// allocation would add d = 10 per vertex.
func TestBootstrapAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates about twice as often here")
	}
	for _, row := range []struct {
		algo  Algorithm
		n     int
		bound float64
	}{
		{AlgoEdgeSwitch, 5001, 0.9}, {AlgoEdgeSwitch, 50001, 0.9},
		{AlgoCurveball, 5001, 0.05}, {AlgoCurveball, 50001, 0.05},
	} {
		spec := pergen.Spec{Model: pergen.ModelPA, Seed: 8, N: row.n, D: 10}
		cfg := Config{Scheme: SchemeHPD, Seed: 19, DistributedGen: &spec, Algorithm: row.algo}
		w, err := mpi.NewWorld(2)
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		err = w.Run(func(c *mpi.Comm) error {
			src, err := genSource(spec)
			if err != nil {
				return err
			}
			e, err := bootstrap(c, src, 1, cfg)
			if err != nil {
				return err
			}
			return e.adj.Close()
		})
		runtime.ReadMemStats(&after)
		w.Close()
		if err != nil {
			t.Fatal(err)
		}
		perVertex := float64(after.Mallocs-before.Mallocs) / float64(row.n)
		t.Logf("%s n=%d: %d mallocs, %.3f per vertex", row.algo, row.n, after.Mallocs-before.Mallocs, perVertex)
		if perVertex >= row.bound {
			t.Errorf("%s n=%d: bootstrap made %.3f mallocs per vertex, want < %v", row.algo, row.n, perVertex, row.bound)
		}
	}
}

// routeBytes packs (u, v) entries as the bootstrap routes them.
func routeBytes(es ...graph.Edge) []byte {
	var b []byte
	for _, e := range es {
		b = binary.LittleEndian.AppendUint32(b, uint32(e.U))
		b = binary.LittleEndian.AppendUint32(b, uint32(e.V))
	}
	return b
}

// withRouteEngines runs fn on every rank of a p-rank world, each with an
// empty engine over n vertices under HP-D.
func withRouteEngines(t *testing.T, n, p int, fn func(e *rankEngine) error) {
	t.Helper()
	w, err := mpi.NewWorld(p)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	pt, err := partition.NewHPD(p)
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(c *mpi.Comm) error {
		e, err := newEmptyRankEngine(c, pt, n, Config{Seed: 5})
		if err != nil {
			return err
		}
		defer e.adj.Close()
		return fn(e)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRouteRefusals: a routed chunk comes off a socket, so each
// corruption is a named error naming the sender, never an index out of
// range or a foreign edge in the partition.
func TestRouteRefusals(t *testing.T) {
	const n = 10 // HP-D over 2 ranks: rank 0 owns the even vertices
	good := routeBytes(graph.Edge{U: 2, V: 5}, graph.Edge{U: 4, V: 9})
	full := make([]byte, routeChunk)
	for i := 0; i < routeChunk; i += 8 {
		copy(full[i:], good[:8])
	}
	withRouteEngines(t, n, 2, func(e *rankEngine) error {
		if e.c.Rank() != 0 {
			return nil
		}
		got, err := e.decodeRoute(1, good, nil)
		if want := []slotEdge{{slot: e.slot[2], v: 5, orig: true}, {slot: e.slot[4], v: 9, orig: true}}; err != nil || !slices.Equal(got, want) {
			t.Errorf("good chunk: %v, %v; want %v", got, err, want)
		}
		for _, tc := range []struct {
			name string
			data []byte
			want error
		}{
			{"odd length", good[:5], errRouteLength},
			{"truncated chunk", full[:routeChunk-4], errRouteLength},
			{"oversized chunk", append(slices.Clone(full), good[:8]...), errRouteLength},
			{"foreign u", routeBytes(graph.Edge{U: 3, V: 5}), errRouteForeign},
			{"u = v", routeBytes(graph.Edge{U: 4, V: 4}), errRouteEdge},
			{"u > v", routeBytes(graph.Edge{U: 6, V: 2}), errRouteEdge},
			{"v >= n", routeBytes(graph.Edge{U: 2, V: n}), errRouteEdge},
			{"v far past n", routeBytes(graph.Edge{U: 2, V: 1<<31 - 1}), errRouteEdge},
		} {
			_, err := e.decodeRoute(1, tc.data, nil)
			if !errors.Is(err, tc.want) || !strings.Contains(err.Error(), "from rank 1") {
				t.Errorf("%s: got %v, want %v from rank 1", tc.name, err, tc.want)
			}
		}
		return nil
	})
}

// TestRouteChunkBoundaries: whatever a rank routes to a peer — nothing,
// part of a chunk, exactly one or several full chunks — arrives whole and
// in order, the stream closed by its short chunk.
func TestRouteChunkBoundaries(t *testing.T) {
	const n = 40000
	per := routeChunk / 8
	for _, k := range []int{0, 1, per - 1, per, per + 1, 2 * per, 3*per + 5} {
		t.Run(fmt.Sprint(k), func(t *testing.T) {
			withRouteEngines(t, n, 2, func(e *rankEngine) error {
				// HP-D over 2 ranks: rank 1 owns the odd vertices.
				rt := newRouter(e, nil)
				if e.c.Rank() == 0 {
					for i := range k {
						rt.add(1, graph.Edge{U: graph.Vertex(2*(i%(n/4)) + 1), V: n - 1})
					}
					_, err := rt.finish()
					return err
				}
				var want []slotEdge
				for i := range k {
					want = append(want, slotEdge{slot: e.slot[2*(i%(n/4))+1], v: n - 1, orig: true})
				}
				got, err := rt.finish()
				if err != nil {
					return err
				}
				if !slices.Equal(got, want) {
					t.Errorf("%d routed entries arrived as %d", len(want), len(got))
				}
				return nil
			})
		})
	}
}
