package core

import (
	"fmt"
	"runtime"
	"sync"

	"edgeswitch/internal/graph"
	"edgeswitch/internal/rng"
)

// reassemble rebuilds the global switched graph from the per-rank edge
// payloads gathered at rank 0. The edge-at-a-time rebuild was a serial
// tail on large graphs (every record paid a flat-slot or treap insert
// plus a counted-tree degree update on one core), so it is sharded: decode
// workers parse each rank's 9-byte records in parallel and bucket them
// by U mod W, then W shard workers bulk-insert their buckets through
// graph.InsertUnindexed — safe concurrently because distinct shards
// touch disjoint vertices — and one O(n) Reindex rebuilds the degree
// index and counters.
func reassemble(n int, parts [][]byte, seed uint64) (*graph.Graph, error) {
	shards := runtime.GOMAXPROCS(0)
	if shards < 1 {
		shards = 1
	}
	if n > 0 && shards > n {
		shards = n
	}

	// Stage 1: decode and validate each part, bucketing by shard.
	buckets := make([][][]flaggedEdge, len(parts)) // [part][shard]
	decErrs := make([]error, len(parts))
	var wg sync.WaitGroup
	for pi, pb := range parts {
		wg.Add(1)
		go func(pi int, pb []byte) {
			defer wg.Done()
			fes, err := parseEdges(pb)
			if err != nil {
				decErrs[pi] = err
				return
			}
			bk := make([][]flaggedEdge, shards)
			for _, fe := range fes {
				e := fe.e
				if e.U < 0 || e.U >= e.V || int(e.V) >= n {
					decErrs[pi] = fmt.Errorf("core: reassembly: rank %d shipped invalid edge %v", pi, e)
					return
				}
				s := int(e.U) % shards
				bk[s] = append(bk[s], fe)
			}
			buckets[pi] = bk
		}(pi, pb)
	}
	wg.Wait()
	for _, err := range decErrs {
		if err != nil {
			return nil, err
		}
	}

	// Stage 2: shard workers insert concurrently. Iterating parts in
	// rank order gives each shard a fixed record order and a private
	// seed-derived priority stream, so the rebuilt structure does not
	// depend on goroutine scheduling.
	out := graph.New(n)
	insErrs := make([]error, shards)
	for s := 0; s < shards; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			r := rng.Split(seed, (1<<21)+s)
			for pi := range buckets {
				for _, fe := range buckets[pi][s] {
					if !out.InsertUnindexed(fe.e, fe.orig, r.Uint32()) {
						insErrs[s] = fmt.Errorf("core: reassembly found duplicate edge %v", fe.e)
						return
					}
				}
			}
		}(s)
	}
	wg.Wait()
	for _, err := range insErrs {
		if err != nil {
			return nil, err
		}
	}
	out.Reindex()
	return out, nil
}
