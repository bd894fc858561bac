package core

import (
	"fmt"
	"math"
	"os"
	"testing"
	"time"

	"edgeswitch/internal/gen/pergen"
	"edgeswitch/internal/graph"
	"edgeswitch/internal/mpi"
)

// The randomizer benchmark matrix: both
// algorithms behind the Randomizer seam (edge-switch conversations vs
// global curveball trades) driven to the SAME target visit rate
// (x = 0.9) on the pergen evaluation graphs (pa, contact), across both
// transports and p ∈ {2, 8}. Each algorithm gets its own per-algorithm
// budget (OpsForVisitRateAlgo) and the engine's TargetVisitRate early
// stop, so the comparison is work-to-reach-x, not work-per-op: an
// edge-switch op rewires 2 edges after a conversation, a curveball
// round trades every adjacency list at once with zero conversations.

// randBenchTargetX is the matrix's common target visit rate.
const randBenchTargetX = 0.9

// randBenchReached reports whether an achieved visit rate meets the
// common target. Curveball runs whole rounds until the rate is at least
// x. Edge switching's t is an expectation, so its rate scatters around
// the target (about one run in five ends at 0.899x): it is held to the
// ±0.01 band cmd/esbench's rep.check uses.
func randBenchReached(algo Algorithm, x float64) bool {
	if algo == AlgoCurveball {
		return x >= randBenchTargetX
	}
	return math.Abs(x-randBenchTargetX) <= 0.01
}

// randBenchAlgos lists both randomizers in presentation order.
var randBenchAlgos = []Algorithm{AlgoEdgeSwitch, AlgoCurveball}

// randBenchCell is one matrix measurement.
type randBenchCell struct {
	steps     int     // steps actually run (early stop can shorten)
	ops       int64   // operations executed (switches, or trades)
	visitRate float64 // achieved — see randBenchReached
	msgs      int64   // transport payloads
	records   int64   // protocol records behind msgs (sum of Result.RankMessages)
	seconds   float64
}

// randBenchGraph materializes a pergen benchmark graph small enough for
// the full matrix to run in benchsmoke.
func randBenchGraph(tb testing.TB, model string) *graph.Graph {
	tb.Helper()
	d := 5
	if model == "contact" {
		d = 6
	}
	pg, err := pergen.New(benchGenSpec(model, 2000, d))
	if err != nil {
		tb.Fatal(err)
	}
	g, err := pg.Full()
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

// runRandomizerCell drives one matrix cell: a full run to the target
// visit rate on a fresh world, returning the measurement.
func runRandomizerCell(tb testing.TB, algo Algorithm, model, transport string, p int) randBenchCell {
	tb.Helper()
	g := randBenchGraph(tb, model)
	budget, err := OpsForVisitRateAlgo(algo, g.M(), randBenchTargetX)
	if err != nil {
		tb.Fatal(err)
	}
	cfg := Config{
		Ranks:           p,
		Scheme:          SchemeHPD,
		Seed:            42,
		Algorithm:       algo,
		TargetVisitRate: randBenchTargetX,
		SkipResult:      true,
	}
	if algo != AlgoCurveball {
		// Ten quota steps give the early stop boundaries to act on; a
		// curveball step is always one round.
		cfg.StepSize = budget / 10
	}
	var opts []mpi.Option
	if transport == "tcp" {
		opts = append(opts, mpi.WithTCP())
	}
	w, err := mpi.NewWorld(p, opts...)
	if err != nil {
		tb.Fatal(err)
	}
	defer w.Close()
	var res *Result
	start := w.Stats()
	t0 := time.Now()
	err = w.Run(func(c *mpi.Comm) error {
		r, err := RunRank(c, g, budget, cfg)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			res = r
		}
		return nil
	})
	elapsed := time.Since(t0)
	if err != nil {
		tb.Fatal(err)
	}
	st := w.Stats()
	records := int64(0)
	for _, n := range res.RankMessages {
		records += n
	}
	return randBenchCell{
		steps:     res.Steps,
		ops:       res.Ops,
		visitRate: res.VisitRate,
		msgs:      st.Sends - start.Sends,
		records:   records,
		seconds:   elapsed.Seconds(),
	}
}

// BenchmarkRandomizer times both randomizers to the common target visit
// rate across the transport × rank matrix on the pergen graphs.
func BenchmarkRandomizer(b *testing.B) {
	for _, algo := range randBenchAlgos {
		for _, model := range []string{"pa", "contact"} {
			for _, transport := range []string{"mem", "tcp"} {
				for _, p := range []int{2, 8} {
					b.Run(fmt.Sprintf("%s/%s/%s/p%d", algo, model, transport, p), func(b *testing.B) {
						var cell randBenchCell
						for i := 0; i < b.N; i++ {
							cell = runRandomizerCell(b, algo, model, transport, p)
						}
						if !randBenchReached(algo, cell.visitRate) {
							b.Fatalf("visit rate %v misses target %v", cell.visitRate, randBenchTargetX)
						}
						b.ReportMetric(float64(cell.ops)/cell.seconds, "ops/s")
						b.ReportMetric(cell.visitRate, "visitrate")
						b.ReportMetric(float64(cell.msgs), "msgs/run")
					})
				}
			}
		}
	}
}

// TestBenchsmokeCurveballRegression is the regression guard for the
// randomizer seam: it runs the pa/mem/p2 cell once per algorithm and
// fails if (a) either algorithm no longer reaches the common target
// visit rate within its per-algorithm budget, (b) the curveball
// trajectory drifts — trades are deterministic and p-invariant, so
// steps, ops, and achieved visit rate must match exactly — (c) either
// algorithm's transport sends regress beyond 2x the recorded value, or
// (d) edge-switching stops coalescing: its sends must stay below a
// quarter of its records. Conversation batches flush at convFlushCap as
// well as where the step loop blocks; those sends buy overlap between
// the two ranks, and (d) keeps them from sliding towards one send per
// record.
func TestBenchsmokeCurveballRegression(t *testing.T) {
	if raceEnabled {
		t.Skip("a counter guard; -race only slows it")
	}
	base := map[Algorithm]randBenchCell{
		AlgoEdgeSwitch: {msgs: 1438},
		AlgoCurveball:  {steps: 3, ops: 3000, visitRate: 0.9224837255883825, msgs: 113},
	}
	for _, algo := range randBenchAlgos {
		bc := base[algo]
		got := runRandomizerCell(t, algo, "pa", "mem", 2)
		t.Logf("%s: visit rate %.4f in %d steps / %d ops, %d msgs for %d records (baseline msgs %d)",
			algo, got.visitRate, got.steps, got.ops, got.msgs, got.records, bc.msgs)
		if !randBenchReached(algo, got.visitRate) {
			t.Errorf("%s: visit rate %v no longer reaches the target %v", algo, got.visitRate, randBenchTargetX)
		}
		if algo == AlgoCurveball {
			if got.steps != bc.steps || got.ops != bc.ops || got.visitRate != bc.visitRate {
				t.Errorf("%s trajectory drifted: steps %d ops %d rate %v, baseline steps %d ops %d rate %v — trades are deterministic, so this is a correctness regression",
					algo, got.steps, got.ops, got.visitRate, bc.steps, bc.ops, bc.visitRate)
			}
		}
		if got.msgs > 2*bc.msgs {
			t.Errorf("%s transport sends regressed >2x: %d vs baseline %d", algo, got.msgs, bc.msgs)
		}
		if algo == AlgoEdgeSwitch && got.msgs >= got.records/4 {
			t.Errorf("%s no longer coalesces: %d transport sends for %d records", algo, got.msgs, got.records)
		}
	}
}

// TestLargeCurveballSmoke is the large-graph CI leg for the curveball
// randomizer: a full run to the target visit rate on a ~10^6-edge
// pergen pa graph at p=8, sanity-checking the achieved rate. Runs only
// under ESLARGE=1 (`make largesmoke`), time-boxed by -timeout.
func TestLargeCurveballSmoke(t *testing.T) {
	if os.Getenv("ESLARGE") == "" {
		t.Skip("set ESLARGE=1 to run the large-graph curveball smoke")
	}
	spec := benchGenSpec("pa", 100_001, 10) // MaxEdges 1,000,005
	budget, err := OpsForVisitRateAlgo(AlgoCurveball, spec.MaxEdges(), randBenchTargetX)
	if err != nil {
		t.Fatal(err)
	}
	w, err := mpi.NewWorld(8)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	var res *Result
	start := time.Now()
	err = w.Run(func(c *mpi.Comm) error {
		r, err := RunRank(c, nil, budget, Config{
			Ranks:           8,
			Scheme:          SchemeHPD,
			Seed:            42,
			Algorithm:       AlgoCurveball,
			TargetVisitRate: randBenchTargetX,
			SkipResult:      true,
			DistributedGen:  &spec,
		})
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			res = r
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.VisitRate < randBenchTargetX {
		t.Errorf("visit rate %v below target %v", res.VisitRate, randBenchTargetX)
	}
	t.Logf("pa n=%d p=8: visit rate %.4f in %d rounds (%d trades) in %v",
		spec.N, res.VisitRate, res.Steps, res.Ops, time.Since(start))
}
