// Ablation benchmarks for the design choices DESIGN.md calls out: the
// Fenwick-tree edge sampler vs a linear scan, the in-process vs TCP
// transports, per-operation message cost, the connectivity constraint's
// overhead, and edge switching vs the configuration-model baseline for
// degree-sequence random graph generation.
package edgeswitch

import (
	"testing"

	"edgeswitch/internal/core"
	"edgeswitch/internal/gen"
	"edgeswitch/internal/graph"
	"edgeswitch/internal/rng"
)

// BenchmarkAblationEdgeSampling compares the O(log n) Fenwick-tree
// weighted sampler against the O(n) linear scan it replaces.
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

// BenchmarkAblationMessageCost measures protocol messages per completed
// operation across rank counts (the constant the §4.5 analysis assumes).
func BenchmarkAblationMessageCost(b *testing.B) {
	g := benchGraph(b, "erdosrenyi", 0.05)
	const t = int64(20000)
	for _, p := range []int{1, 2, 4, 8} {
		b.Run(bName("p", p), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := core.Parallel(g, t, core.Config{
					Ranks: p, Scheme: HPU, Seed: uint64(i), SkipResult: true,
				})
				if err != nil {
					b.Fatal(err)
				}
				var msgs int64
				for _, m := range res.RankMessages {
					msgs += m
				}
				b.ReportMetric(float64(msgs)/float64(res.Ops), "msgs/op")
			}
		})
	}
}

func bName(k string, v int) string { return k + "=" + itoa(v) }

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// BenchmarkAblationConnectivityConstraint compares unconstrained
// sequential switching against the connectivity-preserving variant.
func BenchmarkAblationConnectivityConstraint(b *testing.B) {
	g := benchGraph(b, "smallworld", 0.05)
	const t = int64(5000)
	b.Run("unconstrained", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Run(g, Options{Ops: t, Seed: uint64(i)}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("connected", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := RunConnected(g, t, uint64(i)); err != nil {
				b.Fatal(err)
			}
		}
	})
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
