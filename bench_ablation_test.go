// Ablation benchmarks for the design choices DESIGN.md calls out: the
// counted-tree edge sampler vs a linear scan, the in-process vs TCP
// transports, and edge switching vs the configuration-model baseline for
// degree-sequence random graph generation — plus the per-operation
// message-cost bound as a test.
package edgeswitch

import (
	"testing"

	"edgeswitch/internal/core"
	"edgeswitch/internal/gen"
	"edgeswitch/internal/graph"
	"edgeswitch/internal/rng"
)

// BenchmarkAblationEdgeSampling compares the O(log16 n) counted-tree
// weighted sampler (graph.Fenwick) against the O(n) linear scan it
// replaces.
func BenchmarkAblationEdgeSampling(b *testing.B) {
	const n = 1 << 17
	r := rng.New(1)
	weights := make([]int64, n)
	fw := graph.NewFenwick(n)
	var total int64
	for i := range weights {
		w := int64(r.Intn(40))
		weights[i] = w
		fw.Add(i, w)
		total += w
	}
	b.Run("fenwick", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			fw.FindByPrefix(r.Int64n(total))
		}
	})
	b.Run("linear", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			target := r.Int64n(total)
			var cum int64
			for j, w := range weights {
				cum += w
				if target < cum {
					_ = j
					break
				}
			}
		}
	})
}

// BenchmarkAblationTransports runs the identical parallel workload over
// the in-process mailbox transport and the loopback TCP transport.
func BenchmarkAblationTransports(b *testing.B) {
	g := benchGraph(b, "erdosrenyi", 0.05)
	const t = int64(20000)
	for _, tc := range []struct {
		name string
		tcp  bool
	}{{"mem", false}, {"tcp", true}} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := core.Parallel(g, t, core.Config{
					Ranks: 4, Scheme: HPU, Seed: uint64(i), UseTCP: tc.tcp, SkipResult: true,
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(t)/res.Elapsed.Seconds(), "ops/s")
			}
		})
	}
}

// TestMessagesPerOpBounded is §4.5's message-cost verdict as a gate: a
// switch costs O(1) protocol messages at any p. Only legs that cross
// ranks are messages, so the count follows the remote share of the
// replacement-edge owners — 0 at p=1, ≈1.8 at p=2, ≈2.9 at p=4 and ≈3.4
// at p=8 on this graph. A completed switch costs at most 5 (a relay
// chain: two remote owners besides the partner); the bound of 10 leaves
// room for the records of aborted attempts.
func TestMessagesPerOpBounded(t *testing.T) {
	g := benchGraph(t, "erdosrenyi", 0.05)
	const ops = int64(20000)
	for _, p := range []int{1, 2, 4, 8} {
		res, err := core.Parallel(g, ops, core.Config{Ranks: p, Scheme: HPU, Seed: 1, SkipResult: true})
		if err != nil {
			t.Fatal(err)
		}
		var msgs int64
		for _, m := range res.RankMessages {
			msgs += m
		}
		perOp := float64(msgs) / float64(res.Ops)
		t.Logf("p=%d: %d records, %.2f per op", p, msgs, perOp)
		if p == 1 && msgs != 0 {
			t.Errorf("p=1 sent %d records, want 0", msgs)
		}
		if perOp > 10 {
			t.Errorf("p=%d: %.2f records per op, want <= 10", p, perOp)
		}
	}
}

// BenchmarkAblationDegreeSequenceGenerators compares the paper's
// Havel–Hakimi + edge-switching pipeline against the configuration-model
// baseline for random graphs with a prescribed degree sequence.
func BenchmarkAblationDegreeSequenceGenerators(b *testing.B) {
	degrees := make([]int, 2000)
	for i := range degrees {
		degrees[i] = 4 + i%5
	}
	s := 0
	for _, d := range degrees {
		s += d
	}
	if s%2 == 1 {
		degrees[0]++
	}
	b.Run("havelhakimi+switch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := RandomGraph(degrees, uint64(i), 1); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("configmodel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := gen.ConfigurationModel(rng.New(uint64(i)), degrees)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(res.ErasedLoops+res.ErasedParallel), "erased")
		}
	})
}
