package core

import (
	"fmt"
	"sync"

	"edgeswitch/internal/graph"
	"edgeswitch/internal/partition"
	"edgeswitch/internal/rng"
)

// reassemble rebuilds the global switched graph from the partitions
// gathered at rank 0. parts[r] is rank r's lists in slot order, in the
// segment codec (Store.AppendList); the slot→vertex order comes from the
// partitioner every rank shares. One goroutine per part walks its lists
// straight into graph.InsertUnindexed — safe concurrently because parts
// own disjoint vertices — with a private seed-derived priority stream, so
// the rebuilt structure does not depend on goroutine scheduling; one O(n)
// Reindex then rebuilds the degree index and counters. Gathered bytes
// come from peers: a part cut short (or any list the codec refuses), a
// neighbour outside the vertex range and bytes after a part's last list
// are refused, naming the rank.
func reassemble(n int, pt partition.Partitioner, parts [][]byte, seed uint64) (*graph.Graph, error) {
	out := graph.New(n)
	errs := make([]error, len(parts))
	var wg sync.WaitGroup
	for pi, data := range parts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[pi] = reassemblePart(out, pi, partition.LocalVertices(pt, n, pi), data, rng.Split(seed, (1<<21)+pi))
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	out.Reindex()
	return out, nil
}

// reassemblePart inserts rank pi's lists, one per vertex of verts, into
// out. The codec's lists are strictly ascending above their owner, so
// every in-range entry is a new normalized edge.
func reassemblePart(out *graph.Graph, pi int, verts []graph.Vertex, data []byte, r *rng.RNG) error {
	n := graph.Vertex(out.N())
	for _, u := range verts {
		var outside error
		rest, err := graph.WalkAdjSetBytes(data, u, func(v graph.Vertex, orig bool) bool {
			if v >= n {
				outside = fmt.Errorf("core: reassembly: rank %d shipped neighbour %d of vertex %d, outside the %d vertices", pi, v, u, n)
				return false
			}
			out.InsertUnindexed(graph.Edge{U: u, V: v}, orig, r.Uint32())
			return true
		})
		if err != nil {
			return fmt.Errorf("core: reassembly: rank %d, list of vertex %d: %w", pi, u, err)
		}
		if outside != nil {
			return outside
		}
		data = rest
	}
	if len(data) != 0 {
		return fmt.Errorf("core: reassembly: rank %d shipped %d bytes after its last list", pi, len(data))
	}
	return nil
}
