package main

import (
	"fmt"
	"os"
	"slices"
	"time"

	"edgeswitch/internal/core"
	"edgeswitch/internal/gen/pergen"
	"edgeswitch/internal/graph"
	"edgeswitch/internal/mpi"
	"edgeswitch/internal/partition"
	"edgeswitch/internal/randvar"
	"edgeswitch/internal/rng"
	"edgeswitch/internal/store"
)

// The kernels time the harness's own calls into each package's public
// functions, on the workload's rank-0 partition, inside spans. Each is
// repeated kernelRounds times and reports the median round.
const (
	kernelRounds  = 3
	kernelSamples = 1 << 17 // random-access operations per round
	ownerCalls    = 10_000_000
	kernelTag     = 7 // application tag of the mpi kernels' messages
)

// kernels carries the traced pass's state.
type kernels struct {
	tr    *tracer
	layer *table
	rnd   *rng.RNG
}

// timed runs fn kernelRounds times, each inside a span that records
// count units of work, and returns the median round's duration.
func (k *kernels) timed(layer, name string, count int64, fn func()) time.Duration {
	ds := make([]time.Duration, kernelRounds)
	for i := range ds {
		id := k.tr.begin(layer, name)
		start := time.Now()
		fn()
		ds[i] = time.Since(start)
		k.tr.end(id, count)
	}
	return medianDur(ds)
}

func perCall(d time.Duration, calls int64) float64 { return float64(d) / float64(calls) }

// part is one rank's partition as the engine's bootstrap builds it:
// owned vertices in slot order and each slot's sorted reduced adjacency.
type part struct {
	verts []graph.Vertex
	keys  [][]graph.Vertex
	edges int64
}

func loadPart(gn *pergen.Gen, pt partition.Partitioner, rank int) part {
	verts := partition.LocalVertices(pt, gn.N(), rank)
	slot := make([]int32, gn.N())
	for i, v := range verts {
		slot[v] = int32(i)
	}
	var es []graph.Edge
	gn.PartitionEdges(pt, rank, func(e graph.Edge) { es = append(es, e) })
	slices.SortFunc(es, func(a, b graph.Edge) int {
		if a.U != b.U {
			return int(a.U) - int(b.U)
		}
		return int(a.V) - int(b.V)
	})
	es = slices.Compact(es) // contact cross slots may repeat an edge
	p := part{verts: verts, keys: make([][]graph.Vertex, len(verts)), edges: int64(len(es))}
	flat := make([]graph.Vertex, len(es))
	for i, e := range es {
		flat[i] = e.V
	}
	for lo := 0; lo < len(es); {
		hi := lo
		for hi < len(es) && es[hi].U == es[lo].U {
			hi++
		}
		p.keys[slot[es[lo].U]] = flat[lo:hi:hi]
		lo = hi
	}
	return p
}

// prios draws one treap priority per key of the longest slot, reused for
// every bulk build (priorities shape the tree, not the cost class).
func (k *kernels) prios(p part) []uint32 {
	longest := 0
	for _, ks := range p.keys {
		longest = max(longest, len(ks))
	}
	out := make([]uint32, longest)
	for i := range out {
		out[i] = k.rnd.Uint32()
	}
	return out
}

// genKernels times the generator and the partitioner.
func (k *kernels) genKernels(gn *pergen.Gen, pt partition.Partitioner) {
	var emitted int64
	d := k.timed("pergen", "PartitionEdges", 0, func() {
		emitted = 0
		for rank := 0; rank < ranks; rank++ {
			gn.PartitionEdges(pt, rank, func(graph.Edge) { emitted++ })
		}
	})
	k.layer.add("pergen.edges_per_s", "1/s", float64(emitted)/d.Seconds())
	d = k.timed("pergen", "ReducedDegrees", int64(gn.N()), func() { gn.ReducedDegrees() })
	k.layer.add("pergen.reduced_degrees_s", "s", d.Seconds())

	n := graph.Vertex(gn.N())
	var sink int
	d = k.timed("partition", "Owner", ownerCalls, func() {
		v := graph.Vertex(0)
		for i := 0; i < ownerCalls; i++ {
			sink += pt.Owner(v)
			if v += 7; v >= n {
				v -= n
			}
		}
	})
	k.layer.add("partition.owner_ns", "ns", perCall(d, ownerCalls))
	_ = sink
}

// rngKernels times the two generators everything else draws from.
func (k *kernels) rngKernels() {
	const calls = 1 << 21
	var sink uint64
	d := k.timed("rng", "Int64n", calls, func() {
		for i := 0; i < calls; i++ {
			sink += uint64(k.rnd.Int64n(1_000_003))
		}
	})
	k.layer.add("rng.int64n_ns", "ns", perCall(d, calls))
	st := rng.NewStream(k.rnd.Uint64(), 1)
	d = k.timed("rng", "Stream.At", calls, func() {
		for i := uint64(0); i < calls; i++ {
			sink += st.At(i)
		}
	})
	k.layer.add("rng.stream_at_ns", "ns", perCall(d, calls))
	_ = sink
}

// graphKernels times the Fenwick tree and the treaps under the engine's
// access pattern: slots are chosen edge-proportionally through the
// Fenwick tree, as takeLocal does, so hub treaps are hit as often as
// they are in a run.
func (k *kernels) graphKernels(p part) {
	var arena graph.NodeArena
	adj := make([]graph.AdjSet, len(p.verts))
	counts := make([]int64, len(p.verts))
	prios := k.prios(p)
	for li, ks := range p.keys {
		adj[li].BuildSorted(&arena, ks, prios[:len(ks)], true)
		counts[li] = int64(len(ks))
	}
	deg := graph.NewFenwickFrom(counts)

	targets := make([]int64, kernelSamples)
	slots := make([]int, kernelSamples)
	offs := make([]int, kernelSamples)
	probes := make([]graph.Vertex, kernelSamples)
	nverts := int64(len(p.verts))
	for i := range targets {
		targets[i] = k.rnd.Int64n(deg.Total())
		slot, off := deg.FindByPrefix(targets[i])
		slots[i], offs[i] = slot, int(off)
		// A reservation probes for a replacement edge, which is absent
		// almost always: probe with a random vertex.
		probes[i] = p.verts[k.rnd.Int64n(nverts)]
	}
	var sink int
	d := k.timed("graph", "Fenwick.FindByPrefix", kernelSamples, func() {
		for _, t := range targets {
			s, _ := deg.FindByPrefix(t)
			sink += s
		}
	})
	k.layer.add("graph.fenwick_find_ns", "ns", perCall(d, kernelSamples))
	d = k.timed("graph", "Fenwick.Add", 2*kernelSamples, func() {
		for _, s := range slots {
			deg.Add(s, -1)
			deg.Add(s, 1)
		}
	})
	k.layer.add("graph.fenwick_add_ns", "ns", perCall(d, 2*kernelSamples))
	d = k.timed("graph", "AdjSet.Kth", kernelSamples, func() {
		for i, s := range slots {
			v, _ := adj[s].Kth(offs[i])
			sink += int(v)
		}
	})
	k.layer.add("graph.treap_kth_ns", "ns", perCall(d, kernelSamples))
	d = k.timed("graph", "AdjSet.Contains", kernelSamples, func() {
		for i, s := range slots {
			if adj[s].Contains(probes[i]) {
				sink++
			}
		}
	})
	k.layer.add("graph.treap_contains_ns", "ns", perCall(d, kernelSamples))
	d = k.timed("graph", "AdjSet.Delete+Insert", kernelSamples, func() {
		for i, s := range slots {
			v, orig := adj[s].Kth(offs[i])
			adj[s].DeleteArena(&arena, v)
			adj[s].InsertArena(&arena, v, orig, k.rnd.Uint32())
		}
	})
	// The pair costs one Kth more than the engine's delete-then-insert;
	// treap_kth_ns says how much that is.
	k.layer.add("graph.treap_insdel_ns", "ns", perCall(d, kernelSamples))
	_ = sink

	var keys []graph.Vertex
	var origs []bool
	d = k.timed("graph", "DrainArena+BuildSortedFlagged", p.edges, func() {
		for li := range adj {
			keys, origs = keys[:0], origs[:0]
			adj[li].DrainArena(&arena, func(v graph.Vertex, o bool) {
				keys, origs = append(keys, v), append(origs, o)
			})
			adj[li].BuildSortedFlagged(&arena, keys, prios[:len(keys)], origs)
		}
	})
	k.layer.add("graph.drain_build_ns_per_edge", "ns", perCall(d, p.edges))

	var buf []byte
	d = k.timed("graph", "AppendAdjSet", p.edges, func() {
		buf = buf[:0]
		for li := range adj {
			buf = adj[li].AppendAdjSet(buf, p.verts[li])
		}
	})
	k.layer.add("graph.adj_encode_mb_per_s", "MB/s", float64(len(buf))/1e6/d.Seconds())
	var decodeErr error
	d = k.timed("graph", "WalkAdjSetBytes", p.edges, func() {
		rest := buf
		for li := range adj {
			rest, decodeErr = graph.WalkAdjSetBytes(rest, p.verts[li], func(v graph.Vertex, _ bool) bool {
				sink += int(v)
				return true
			})
			if decodeErr != nil {
				return
			}
		}
	})
	if decodeErr != nil {
		// Decoding what was just encoded cannot fail short of a codec bug.
		panic(fmt.Sprintf("esbench: adjacency codec round trip: %v", decodeErr))
	}
	k.layer.add("graph.adj_decode_mb_per_s", "MB/s", float64(len(buf))/1e6/d.Seconds())
}

// scan drains and rebuilds every slot of s, the storage traffic of one
// curveball round.
func scan(s store.Store, p part, prios []uint32) {
	var keys []graph.Vertex
	var origs []bool
	for li := range p.verts {
		keys, origs = keys[:0], origs[:0]
		s.Drain(li, func(v graph.Vertex, o bool) { keys, origs = append(keys, v), append(origs, o) })
		s.BuildSortedFlagged(li, keys, prios[:len(keys)], origs)
	}
}

// storeKernels times both Store implementations through the interface
// the engine uses.
func (k *kernels) storeKernels(p part, spillDir string) error {
	prios := k.prios(p)

	var mem store.Store = store.NewMem(p.verts)
	for li, ks := range p.keys {
		mem.BuildSorted(li, ks, prios[:len(ks)], true)
	}
	if err := mem.EndLoad(); err != nil {
		return err
	}
	// Slots edge-proportionally, without a Fenwick tree: pick a uniform
	// edge index and find its slot by prefix offsets.
	starts := make([]int64, len(p.keys)+1)
	for li, ks := range p.keys {
		starts[li+1] = starts[li] + int64(len(ks))
	}
	slots := make([]int, kernelSamples)
	offs := make([]int, kernelSamples)
	for i := range slots {
		e := k.rnd.Int64n(p.edges)
		li, _ := slices.BinarySearch(starts, e+1)
		slots[i], offs[i] = li-1, int(e-starts[li-1])
	}
	d := k.timed("store", "Mem Kth+Contains+Delete+Insert", kernelSamples, func() {
		for i, s := range slots {
			v, orig := mem.Kth(s, offs[i])
			mem.Contains(s, v+1)
			mem.Delete(s, v)
			mem.Insert(s, v, orig, k.rnd.Uint32())
		}
	})
	k.layer.add("store.mem_randaccess_ns", "ns", perCall(d, kernelSamples))
	d = k.timed("store", "Mem Drain+BuildSortedFlagged", p.edges, func() { scan(mem, p, prios) })
	k.layer.add("store.mem_scan_ns_per_edge", "ns", perCall(d, p.edges))
	if err := mem.Close(); err != nil {
		return err
	}

	// The tiered kernels change the store's state, so each round is its
	// own load → scan → compact sequence.
	var loads, scans, compacts []time.Duration
	for round := 0; round < kernelRounds; round++ {
		dir, err := os.MkdirTemp(spillDir, "kernel-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		t, err := store.NewTiered(dir, p.verts, 0, k.rnd.Uint32)
		if err != nil {
			return err
		}
		id := k.tr.begin("store", "Tiered BuildSorted+EndLoad")
		start := time.Now()
		for li, ks := range p.keys {
			t.BuildSorted(li, ks, prios[:len(ks)], true)
		}
		err = t.EndLoad()
		loads = append(loads, time.Since(start))
		k.tr.end(id, p.edges)
		if err != nil {
			return err
		}

		id = k.tr.begin("store", "Tiered Drain+BuildSortedFlagged")
		start = time.Now()
		scan(t, p, prios)
		scans = append(scans, time.Since(start))
		k.tr.end(id, p.edges)

		id = k.tr.begin("store", "Tiered Compact")
		start = time.Now()
		err = t.Compact()
		compacts = append(compacts, time.Since(start))
		k.tr.end(id, p.edges)
		if err != nil {
			return err
		}
		if err := t.Close(); err != nil {
			return err
		}
	}
	k.layer.add("store.tiered_load_s", "s", medianDur(loads).Seconds())
	k.layer.add("store.tiered_scan_ns_per_edge", "ns", perCall(medianDur(scans), p.edges))
	k.layer.add("store.compact_ns_per_edge", "ns", perCall(medianDur(compacts), p.edges))
	return nil
}

// mpiKernels times the transport and the step-boundary primitives on a
// two-rank world of the workload's transport. Both ranks run the same
// sequence; rank 0's timings are reported.
func (k *kernels) mpiKernels(tcp bool, stepSize int64, seed uint64) error {
	const (
		calls     = 1000
		chunk     = 64 << 10
		chunks    = 256
		multCalls = 1000
	)
	var opts []mpi.Option
	if tcp {
		opts = append(opts, mpi.WithTCP())
	}
	world, err := mpi.NewWorld(ranks, opts...)
	if err != nil {
		return err
	}
	q := []float64{0.5, 0.5}
	var pingpong, allreduce, barrier, stream, parMult []time.Duration
	err = world.Run(func(c *mpi.Comm) error {
		peer := 1 - c.Rank()
		rnd := rng.Split(seed, c.Rank())
		small := make([]byte, 64)
		// round times fn between two barriers' worth of agreement: the
		// barrier before lines the ranks up, and every fn ends on a
		// message from the peer, so rank 0's clock covers the whole
		// exchange.
		round := func(layer, name string, count int64, out *[]time.Duration, fn func() error) error {
			for i := 0; i < kernelRounds; i++ {
				if err := c.Barrier(); err != nil {
					return err
				}
				id := -1
				if c.Rank() == 0 {
					id = k.tr.begin(layer, name)
				}
				start := time.Now()
				if err := fn(); err != nil {
					return err
				}
				if c.Rank() == 0 {
					*out = append(*out, time.Since(start))
					k.tr.end(id, count)
				}
			}
			return nil
		}
		if err := round("mpi", "Send+Recv 64B round trip", calls, &pingpong, func() error {
			for i := 0; i < calls; i++ {
				if c.Rank() == 0 {
					if err := c.Send(peer, kernelTag, small); err != nil {
						return err
					}
				}
				if _, err := c.Recv(peer, kernelTag); err != nil {
					return err
				}
				if c.Rank() == 1 {
					if err := c.Send(peer, kernelTag, small); err != nil {
						return err
					}
				}
			}
			return nil
		}); err != nil {
			return err
		}
		xs := make([]int64, 4)
		if err := round("mpi", "AllreduceInt64s", calls, &allreduce, func() error {
			for i := 0; i < calls; i++ {
				if _, err := c.AllreduceInt64s(xs, mpi.OpSum); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return err
		}
		if err := round("mpi", "Barrier", calls, &barrier, func() error {
			for i := 0; i < calls; i++ {
				if err := c.Barrier(); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return err
		}
		if err := round("mpi", "SendOwned 64KiB stream", chunks, &stream, func() error {
			if c.Rank() == 0 {
				for i := 0; i < chunks; i++ {
					// SendOwned gives the buffer away, so each send needs
					// its own; the engine's batches are fresh too.
					if err := c.SendOwned(peer, kernelTag, make([]byte, chunk)); err != nil {
						return err
					}
				}
				_, err := c.Recv(peer, kernelTag)
				return err
			}
			for i := 0; i < chunks; i++ {
				if _, err := c.Recv(peer, kernelTag); err != nil {
					return err
				}
			}
			return c.Send(peer, kernelTag, small)
		}); err != nil {
			return err
		}
		return round("randvar", "ParallelMultinomialGathered", multCalls, &parMult, func() error {
			for i := 0; i < multCalls; i++ {
				if _, err := randvar.ParallelMultinomialGathered(c, rnd, stepSize, q); err != nil {
					return err
				}
			}
			return nil
		})
	})
	if cerr := world.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	us := func(ds []time.Duration, n int64) float64 { return perCall(medianDur(ds), n) / 1e3 }
	k.layer.add("mpi.pingpong_us", "us", us(pingpong, calls))
	k.layer.add("mpi.allreduce_us", "us", us(allreduce, calls))
	k.layer.add("mpi.barrier_us", "us", us(barrier, calls))
	k.layer.add("mpi.stream_mb_per_s", "MB/s", float64(chunks*chunk)/1e6/medianDur(stream).Seconds())
	k.layer.add("randvar.parallel_multinomial_us", "us", us(parMult, multCalls))

	var multErr error
	d := k.timed("randvar", "Multinomial", multCalls, func() {
		for i := 0; i < multCalls; i++ {
			if _, err := randvar.Multinomial(k.rnd, stepSize, q); err != nil {
				multErr = err
			}
		}
	})
	k.layer.add("randvar.multinomial_us", "us", perCall(d, multCalls)/1e3)
	return multErr
}

// sequential runs the plain single-goroutine reference on the whole
// graph and returns its operation count, duration and final EdgeHash.
// Curveball runs the rounds the parallel run needed to reach the target
// (the reference has no early stop), so the two do the same work.
func (k *kernels) sequential(gn *pergen.Gen, algo core.Algorithm, rounds int64, seed uint64) (ops int64, d time.Duration, hash uint64, err error) {
	g, err := gn.Full()
	if err != nil {
		return 0, 0, 0, err
	}
	id := k.tr.begin("core", "sequential reference")
	start := time.Now()
	var st core.SeqStats
	if algo == core.AlgoCurveball {
		st, err = core.SequentialCurveball(g, rounds, seed)
	} else {
		st, err = core.SequentialVisitRate(g, targetX, rng.New(seed))
	}
	d = time.Since(start)
	k.tr.end(id, st.Ops)
	return st.Ops, d, edgeHash(g), err
}
