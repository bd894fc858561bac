package core

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"edgeswitch/internal/gen"
	"edgeswitch/internal/gen/pergen"
	"edgeswitch/internal/graph"
	"edgeswitch/internal/mpi"
	"edgeswitch/internal/rng"
)

// The generation-bootstrap benchmark matrix behind BENCH_pergen.json:
// for each model (pa, contact) and rank count p ∈ {1, 2, 8}, measure the
// time from a generator spec to "every rank holds its loaded partition",
// three ways:
//
//   - file: the generate-and-scatter bootstrap this PR replaces, as the
//     distributed deployment actually runs it — one process materializes
//     the whole graph (pergen Full) and writes the binary edge list;
//     then every rank parses the full file, builds the whole graph in
//     its own memory, and the engine keeps only the owned partition.
//     This is exactly `graphgen` + per-process `esworker -graph` (see
//     RunRank's contract: "each process loads the graph and keeps only
//     its own partition").
//   - scatter: the charitable in-memory lower bound on the same
//     baseline — the generated graph is handed to every rank by
//     reference (`Parallel(g, ...)`), so ranks share one materialization
//     and pay no serialization, no I/O, and no per-rank parse. A real
//     scatter can only be slower than this.
//   - pergen: the communication-free path — no rank ever sees the whole
//     graph; each resolves the spec's counter streams itself and inserts
//     only owned edges (Config.DistributedGen).
//
// t=0 and SkipResult strip the run to exactly the bootstrap, so the
// matrix isolates the generate-and-distribute cost the tentpole
// replaces. Reported metric: edges/s of global generated edges.
func BenchmarkGenerate(b *testing.B) {
	n := 200_000
	if testing.Short() {
		n = 20_000 // benchsmoke: prove the harness runs, measure nothing
	}
	for _, model := range []string{"pa", "contact"} {
		spec := benchGenSpec(model, n, 10)
		for _, p := range []int{1, 2, 8} {
			for _, mode := range []string{"file", "scatter", "pergen"} {
				b.Run(fmt.Sprintf("%s/%s/p%d", mode, model, p), func(b *testing.B) {
					var m int64
					for i := 0; i < b.N; i++ {
						m = benchBootstrap(b, mode, spec, p)
					}
					b.ReportMetric(float64(m)*float64(b.N)/b.Elapsed().Seconds(), "edges/s")
				})
			}
		}
	}
}

// benchGenSpec builds the benchmark spec for one model.
func benchGenSpec(model string, n, d int) pergen.Spec {
	if model == "contact" {
		return pergen.Spec{Model: pergen.ModelContact, Seed: 42, N: n,
			Contact: gen.ContactConfig{AvgDegree: float64(d), CommunitySize: 40, WithinFrac: 0.8}}
	}
	return pergen.Spec{Model: pergen.ModelPA, Seed: 42, N: n, D: d}
}

// benchBootstrap runs one spec-to-loaded-partitions bootstrap and
// returns the global edge count it produced. The matrix partitions with
// HP-D — the paper's scheme of choice at scale, and the one that keeps
// the comparison about generation: CP would add a reduced-degree
// pre-pass to both arms (for pergen a second full enumeration per
// rank), measuring the partitioner rather than the bootstrap.
func benchBootstrap(tb testing.TB, mode string, spec pergen.Spec, p int) int64 {
	cfg := Config{Ranks: p, Scheme: SchemeHPD, Seed: spec.Seed, SkipResult: true}
	var res *Result
	var err error
	switch mode {
	case "file":
		pg, gerr := pergen.New(spec)
		if gerr != nil {
			tb.Fatal(gerr)
		}
		g, gerr := pg.Full()
		if gerr != nil {
			tb.Fatal(gerr)
		}
		path := filepath.Join(tb.TempDir(), "bench.bin")
		f, ferr := os.Create(path)
		if ferr != nil {
			tb.Fatal(ferr)
		}
		if werr := graph.WriteBinary(f, g); werr != nil {
			tb.Fatal(werr)
		}
		if cerr := f.Close(); cerr != nil {
			tb.Fatal(cerr)
		}
		g = nil
		world, werr := mpi.NewWorld(p)
		if werr != nil {
			tb.Fatal(werr)
		}
		defer world.Close()
		err = world.Run(func(c *mpi.Comm) error {
			rf, oerr := os.Open(path)
			if oerr != nil {
				return oerr
			}
			gr, rerr := graph.ReadBinary(rf, rng.New(spec.Seed))
			rf.Close()
			if rerr != nil {
				return rerr
			}
			r, runErr := RunRank(c, gr, 0, cfg)
			if runErr != nil {
				return runErr
			}
			if c.Rank() == 0 {
				res = r
			}
			return nil
		})
	case "scatter":
		pg, gerr := pergen.New(spec)
		if gerr != nil {
			tb.Fatal(gerr)
		}
		g, gerr := pg.Full()
		if gerr != nil {
			tb.Fatal(gerr)
		}
		res, err = Parallel(g, 0, cfg)
	case "pergen":
		cfg.DistributedGen = &spec
		res, err = Parallel(nil, 0, cfg)
	default:
		tb.Fatalf("unknown bootstrap mode %q", mode)
	}
	if err != nil {
		tb.Fatal(err)
	}
	var m int64
	for _, e := range res.RankInitialEdges {
		m += e
	}
	return m
}

// TestBenchsmokePergenRegression is the benchsmoke regression guard for
// the communication-free bootstrap: it replays a mid-size slice of the
// BenchmarkGenerate matrix (pa, p=8, file vs pergen) once and fails if
// (a) the generated edge count drifts from the committed
// BENCH_pergen.json baseline — the counter-based generator is
// deterministic, so any drift is a correctness regression, not noise —
// or (b) pergen is slower than the file bootstrap it replaces. The
// committed speedup (7.15x) is only logged: it was recorded on another
// machine and the ratio moves with the core count — a 2-vCPU host
// measures 2.2-2.9x on an unchanged tree — so a fraction of it is not a
// bound this test can hold everywhere; "not slower" is. Runs only under
// BENCHSMOKE=1 (`make benchsmoke`).
func TestBenchsmokePergenRegression(t *testing.T) {
	if os.Getenv("BENCHSMOKE") == "" {
		t.Skip("set BENCHSMOKE=1 to run the benchsmoke regression guard")
	}
	base := readPergenBaseline(t)

	spec := benchGenSpec("pa", 100_000, 10)
	const p = 8
	start := time.Now()
	mFile := benchBootstrap(t, "file", spec, p)
	fileDur := time.Since(start)
	start = time.Now()
	mPergen := benchBootstrap(t, "pergen", spec, p)
	pergenDur := time.Since(start)

	if mFile != mPergen {
		t.Errorf("file and pergen bootstraps disagree on edge count: %d vs %d", mFile, mPergen)
	}
	if mPergen != base.Edges {
		t.Errorf("pergen generated %d edges, baseline has %d — the deterministic generator drifted",
			mPergen, base.Edges)
	}
	speedup := fileDur.Seconds() / pergenDur.Seconds()
	if speedup < 1 {
		t.Errorf("pergen is slower than the file bootstrap: %.2fx (recorded baseline %.2fx)",
			speedup, base.Speedup)
	}
	t.Logf("pa n=%d p=%d: file %v, pergen %v (%.2fx, baseline %.2fx), m=%d",
		spec.N, p, fileDur, pergenDur, speedup, base.Speedup, mPergen)
}

// TestLargeGenSmoke is the CI large-graph leg: generate a >=10^7-edge
// preferential-attachment graph with the communication-free bootstrap at
// p=8 and verify the exact deterministic edge count. Runs only under
// ESLARGE=1 (`make largesmoke`), which time-boxes it with -timeout.
func TestLargeGenSmoke(t *testing.T) {
	if os.Getenv("ESLARGE") == "" {
		t.Skip("set ESLARGE=1 to run the large-graph generation smoke")
	}
	base := readPergenBaseline(t)
	spec := benchGenSpec("pa", 1_000_006, 10) // MaxEdges 10,000,005: the smallest n clearing the 10^7 bound at d=10
	if spec.MaxEdges() < 10_000_000 {
		t.Fatalf("smoke spec bound %d edges, want >= 10^7", spec.MaxEdges())
	}
	start := time.Now()
	m := benchBootstrap(t, "pergen", spec, 8)
	if m != base.Headline.Edges {
		t.Errorf("generated %d edges, baseline has %d — the deterministic generator drifted",
			m, base.Headline.Edges)
	}
	t.Logf("pa n=%d p=8: %d edges in %v", spec.N, m, time.Since(start))
}

// pergenBaseline mirrors the fields of BENCH_pergen.json the guards pin.
type pergenBaseline struct {
	Edges    int64   // guard config (pa n=100k p=8) exact edge count
	Speedup  float64 // guard config pergen-vs-scatter speedup
	Headline struct {
		Edges int64 // headline config (pa n=1M p=8) exact edge count
	}
}

func readPergenBaseline(t *testing.T) pergenBaseline {
	t.Helper()
	raw, err := os.ReadFile("../../BENCH_pergen.json")
	if err != nil {
		t.Fatalf("committed baseline missing: %v", err)
	}
	var bench struct {
		Guard struct {
			Edges   int64   `json:"edges"`
			Speedup float64 `json:"speedup"`
		} `json:"guard"`
		Headline struct {
			Edges int64 `json:"edges"`
		} `json:"headline"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatalf("BENCH_pergen.json: %v", err)
	}
	if bench.Guard.Edges == 0 || bench.Guard.Speedup == 0 || bench.Headline.Edges == 0 {
		t.Fatal("BENCH_pergen.json lacks the guard/headline baselines")
	}
	b := pergenBaseline{Edges: bench.Guard.Edges, Speedup: bench.Guard.Speedup}
	b.Headline.Edges = bench.Headline.Edges
	return b
}
