// Benchmarks: one per table and figure of the paper's evaluation. Each
// benchmark exercises the exact code path of the corresponding harness
// experiment at a fixed benchmark-friendly size; the full-size sweeps
// (with printed tables matching the paper's rows) live in
// `cmd/experiments -run <id>` and their outcomes in EXPERIMENTS.md.
package edgeswitch

import (
	"fmt"
	"testing"
	"time"

	"edgeswitch/internal/core"
	"edgeswitch/internal/gen"
	"edgeswitch/internal/metrics"
	"edgeswitch/internal/mpi"
	"edgeswitch/internal/randvar"
	"edgeswitch/internal/rng"
)

// benchGraph memoizes the benchmark inputs across benchmarks.
var benchGraphs = map[string]*Graph{}

func benchGraph(b testing.TB, name string, scale float64) *Graph {
	b.Helper()
	key := fmt.Sprintf("%s/%v", name, scale)
	if g, ok := benchGraphs[key]; ok {
		return g
	}
	g, err := Generate(name, scale, 42)
	if err != nil {
		b.Fatal(err)
	}
	benchGraphs[key] = g
	return g
}

func benchOps(b *testing.B, g *Graph, x float64) int64 {
	b.Helper()
	t, err := TargetOps(g.M(), x)
	if err != nil {
		b.Fatal(err)
	}
	return t
}

// BenchmarkTable1VisitRate — Table 1 / Fig. 2: sequential switching to a
// target visit rate and the accuracy of the E[T]/2 prescription.
func BenchmarkTable1VisitRate(b *testing.B) {
	g := benchGraph(b, "miami", 0.05)
	t := benchOps(b, g, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := Run(g, Options{Config: Config{Seed: uint64(i)}, Ops: t})
		if err != nil {
			b.Fatal(err)
		}
		if rep.VisitRate < 0.999 {
			b.Fatalf("visit rate %v", rep.VisitRate)
		}
	}
	b.ReportMetric(float64(t), "ops/run")
}

// BenchmarkTable2Datasets — Table 2: generating every dataset stand-in.
func BenchmarkTable2Datasets(b *testing.B) {
	for _, spec := range gen.DefaultDatasets() {
		b.Run(spec.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				g, err := gen.Dataset(rng.New(uint64(i)), spec.Name, 0.05)
				if err != nil {
					b.Fatal(err)
				}
				_ = g.M()
			}
		})
	}
}

// strongScalingBench runs the parallel engine across rank counts.
func strongScalingBench(b *testing.B, scheme Scheme, name string) {
	g := benchGraph(b, name, 0.05)
	t := benchOps(b, g, 1)
	for _, p := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := core.Parallel(g, t, core.Config{
					Ranks: p, Scheme: scheme, Seed: uint64(i), StepSize: t / 100, SkipResult: true,
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(t)/res.Elapsed.Seconds(), "ops/s")
			}
		})
	}
}

// BenchmarkFig4StrongScalingCP — Fig. 4: CP strong scaling.
func BenchmarkFig4StrongScalingCP(b *testing.B) {
	strongScalingBench(b, CP, "miami")
}

// BenchmarkFig5WeakScalingCP — Fig. 5: CP weak scaling (work grows with p).
func BenchmarkFig5WeakScalingCP(b *testing.B) {
	for _, p := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			g, err := gen.PrefAttachment(rng.New(7), 1500*p, 10)
			if err != nil {
				b.Fatal(err)
			}
			t := int64(15000 * p)
			for i := 0; i < b.N; i++ {
				if _, err := core.Parallel(g, t, core.Config{
					Ranks: p, Scheme: CP, Seed: uint64(i), StepSize: t / 10, SkipResult: true,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig6_7StepSizeByRanks — Figs. 6–7: step-size × rank sweep.
func BenchmarkFig6_7StepSizeByRanks(b *testing.B) {
	g := benchGraph(b, "miami", 0.05)
	t := benchOps(b, g, 1)
	for _, frac := range []int64{100, 10, 1} {
		for _, p := range []int{2, 8} {
			b.Run(fmt.Sprintf("s=t_%d/p=%d", frac, p), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := core.Parallel(g, t, core.Config{
						Ranks: p, Scheme: CP, Seed: uint64(i), StepSize: t / frac, SkipResult: true,
					}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFig8_9StepSizeSweep — Figs. 8–9: step-size sweep at fixed p,
// including the error-rate computation against a sequential run.
func BenchmarkFig8_9StepSizeSweep(b *testing.B) {
	g := benchGraph(b, "miami", 0.05)
	t := benchOps(b, g, 1)
	seq, err := Run(g, Options{Config: Config{Seed: 1}, Ops: t})
	if err != nil {
		b.Fatal(err)
	}
	for _, frac := range []int64{100, 10, 1} {
		b.Run(fmt.Sprintf("s=t_%d", frac), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := core.Parallel(g, t, core.Config{
					Ranks: 8, Scheme: CP, Seed: uint64(i), StepSize: t / frac,
				})
				if err != nil {
					b.Fatal(err)
				}
				er, err := metrics.ErrorRate(seq.Result, res.Graph, 20)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(er, "ER%")
			}
		})
	}
}

// BenchmarkFig10_11StepSizeAcrossGraphs — Figs. 10–11: the same sweep on
// graphs of different character.
func BenchmarkFig10_11StepSizeAcrossGraphs(b *testing.B) {
	for _, name := range []string{"flickr", "miami", "livejournal", "erdosrenyi"} {
		b.Run(name, func(b *testing.B) {
			g := benchGraph(b, name, 0.05)
			t := benchOps(b, g, 1)
			for i := 0; i < b.N; i++ {
				if _, err := core.Parallel(g, t, core.Config{
					Ranks: 8, Scheme: CP, Seed: uint64(i), StepSize: t / 10, SkipResult: true,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig12_13PropertyTracking — Figs. 12–13: switching plus the
// clustering/path-length measurements.
func BenchmarkFig12_13PropertyTracking(b *testing.B) {
	g := benchGraph(b, "miami", 0.05)
	t := benchOps(b, g, 0.5)
	r := rng.New(3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.Parallel(g, t, core.Config{Ranks: 4, Scheme: HPU, Seed: uint64(i)})
		if err != nil {
			b.Fatal(err)
		}
		cc := metrics.SampledClusteringCoefficient(res.Graph, 300, r)
		sp := metrics.AvgShortestPath(res.Graph, 5, r)
		b.ReportMetric(cc, "clustering")
		b.ReportMetric(sp, "avgpath")
	}
}

// BenchmarkFig14StrongScalingHPU — Fig. 14: HP-U strong scaling.
func BenchmarkFig14StrongScalingHPU(b *testing.B) {
	strongScalingBench(b, HPU, "miami")
}

// BenchmarkFig15SchemeComparison — Fig. 15: all four schemes on the same
// graph and rank count.
func BenchmarkFig15SchemeComparison(b *testing.B) {
	g := benchGraph(b, "miami", 0.05)
	t := benchOps(b, g, 1)
	for _, scheme := range core.Schemes() {
		b.Run(string(scheme), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Parallel(g, t, core.Config{
					Ranks: 8, Scheme: scheme, Seed: uint64(i), StepSize: t / 100, SkipResult: true,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig16_17Partitioning — Figs. 16–17: computing the initial
// vertex/edge distributions for every scheme.
func BenchmarkFig16_17Partitioning(b *testing.B) {
	g := benchGraph(b, "miami", 0.05)
	for _, scheme := range core.Schemes() {
		b.Run(string(scheme), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pt, err := core.NewPartitioner(g, scheme, 8, uint64(i))
				if err != nil {
					b.Fatal(err)
				}
				verts := make([]int64, 8)
				edges := make([]int64, 8)
				for u := 0; u < g.N(); u++ {
					o := pt.Owner(Vertex(u))
					verts[o]++
					edges[o] += int64(g.ReducedDegree(Vertex(u)))
				}
				_ = verts
				_ = edges
			}
		})
	}
}

// BenchmarkFig18FinalDistribution — Fig. 18: a full run keeping the
// per-rank final edge counts.
func BenchmarkFig18FinalDistribution(b *testing.B) {
	g := benchGraph(b, "miami", 0.05)
	t := benchOps(b, g, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.Parallel(g, t, core.Config{
			Ranks: 8, Scheme: CP, Seed: uint64(i), StepSize: t / 100, SkipResult: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		im := metrics.LoadImbalance(res.RankFinalEdges)
		b.ReportMetric(im.MaxOverMean, "max/mean")
	}
}

// BenchmarkFig19_20Workload — Figs. 19–20: workload distribution of CP
// vs HP-U on the contact graph (skew) and the PA graph (balance).
func BenchmarkFig19_20Workload(b *testing.B) {
	for _, tc := range []struct {
		name   string
		scheme Scheme
	}{{"miami", CP}, {"miami", HPU}, {"pa", CP}, {"pa", HPU}} {
		b.Run(fmt.Sprintf("%s/%s", tc.name, tc.scheme), func(b *testing.B) {
			g := benchGraph(b, tc.name, 0.05)
			t := benchOps(b, g, 1)
			for i := 0; i < b.N; i++ {
				res, err := core.Parallel(g, t, core.Config{
					Ranks: 8, Scheme: tc.scheme, Seed: uint64(i), StepSize: t / 100, SkipResult: true,
				})
				if err != nil {
					b.Fatal(err)
				}
				im := metrics.LoadImbalance(res.RankOps)
				b.ReportMetric(im.MaxOverMean, "max/mean")
			}
		})
	}
}

// BenchmarkFig21_22Adversarial — Figs. 21–22: HP-D on the adversarially
// relabeled PA graph vs HP-U on the same graph.
func BenchmarkFig21_22Adversarial(b *testing.B) {
	g := benchGraph(b, "pa", 0.05)
	adv, err := gen.AdversarialRelabel(rng.New(8), g, 8, 2)
	if err != nil {
		b.Fatal(err)
	}
	t, err := TargetOps(adv.M(), 1)
	if err != nil {
		b.Fatal(err)
	}
	for _, scheme := range []Scheme{HPD, HPU, CP} {
		b.Run(string(scheme), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := core.Parallel(adv, t, core.Config{
					Ranks: 8, Scheme: scheme, Seed: uint64(i), StepSize: t / 100, SkipResult: true,
				})
				if err != nil {
					b.Fatal(err)
				}
				im := metrics.LoadImbalance(res.RankOps)
				b.ReportMetric(im.MaxOverMean, "max/mean")
			}
		})
	}
}

// BenchmarkFig23WeakScalingSchemes — Fig. 23: one weak-scaling point per
// scheme (p=4, graph and work sized to p).
func BenchmarkFig23WeakScalingSchemes(b *testing.B) {
	g, err := gen.PrefAttachment(rng.New(9), 6000, 10)
	if err != nil {
		b.Fatal(err)
	}
	const t = int64(60000)
	for _, scheme := range core.Schemes() {
		b.Run(string(scheme), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Parallel(g, t, core.Config{
					Ranks: 4, Scheme: scheme, Seed: uint64(i), StepSize: t / 10, SkipResult: true,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable3OneStepError — Table 3: one-step HP-U run plus the
// error-rate comparison against a sequential run.
func BenchmarkTable3OneStepError(b *testing.B) {
	g := benchGraph(b, "miami", 0.05)
	t := benchOps(b, g, 1)
	seq, err := Run(g, Options{Config: Config{Seed: 1}, Ops: t})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.Parallel(g, t, core.Config{Ranks: 8, Scheme: HPU, Seed: uint64(i)})
		if err != nil {
			b.Fatal(err)
		}
		er, err := metrics.ErrorRate(seq.Result, res.Graph, 20)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(er, "ER%")
	}
}

// BenchmarkFig24MultinomialStrong — Fig. 24: parallel multinomial strong
// scaling (fixed N, growing p).
func BenchmarkFig24MultinomialStrong(b *testing.B) {
	const n = int64(50_000_000)
	q := make([]float64, 20)
	for i := range q {
		q[i] = 0.05
	}
	for _, p := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			w, err := mpi.NewWorld(p)
			if err != nil {
				b.Fatal(err)
			}
			defer w.Close()
			for i := 0; i < b.N; i++ {
				var elapsed time.Duration
				err := w.Run(func(c *mpi.Comm) error {
					r := rng.Split(uint64(i), c.Rank())
					if err := c.Barrier(); err != nil {
						return err
					}
					start := time.Now()
					if _, err := randvar.ParallelMultinomial(c, r, n, q); err != nil {
						return err
					}
					if err := c.Barrier(); err != nil {
						return err
					}
					if c.Rank() == 0 {
						elapsed = time.Since(start)
					}
					return nil
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(n)/elapsed.Seconds()/1e6, "Mtrials/s")
			}
		})
	}
}

// BenchmarkFig25MultinomialWeak — Fig. 25: parallel multinomial weak
// scaling (N and ℓ grow with p).
func BenchmarkFig25MultinomialWeak(b *testing.B) {
	const n0 = int64(10_000_000)
	for _, p := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			q := make([]float64, p)
			for i := range q {
				q[i] = 1 / float64(p)
			}
			w, err := mpi.NewWorld(p)
			if err != nil {
				b.Fatal(err)
			}
			defer w.Close()
			for i := 0; i < b.N; i++ {
				err := w.Run(func(c *mpi.Comm) error {
					r := rng.Split(uint64(i), c.Rank())
					_, err := randvar.ParallelMultinomial(c, r, n0*int64(p), q)
					return err
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
