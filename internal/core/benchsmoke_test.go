package core

import (
	"os"
	"sync/atomic"
	"testing"
	"time"

	"edgeswitch/internal/gen"
	"edgeswitch/internal/gen/pergen"
	"edgeswitch/internal/mpi"
	"edgeswitch/internal/rng"
)

// The TestBenchsmoke* guards replay one small configuration per
// subsystem. They pin exactly what the algorithms make deterministic
// (counter-based edge counts, curveball trajectories, edge
// fingerprints) and band at 2x what scheduling moves (transport sends,
// restarts). They count; they do not time. Under -race they skip, as
// TestBootstrapAllocs does: they guard counts, not concurrency.

// TestBenchsmokeEngineRegression is the regression guard for the
// conversation protocol: it replays one 10-step run on a tiny uniform
// graph at p=8 (Erdős–Rényi n=240 m=960, ≈120 edges per rank — the
// regime where the pipelining window holds a large share of each
// partition in hand) and fails if protocol efficiency has regressed by
// more than 2x against the recorded baseline — either in transport
// sends (the batching the window feeds) or in restarts (the work wasted
// on rejected selections). A single run is noisy, so the 2x band is a
// rot detector, not a performance assertion.
func TestBenchsmokeEngineRegression(t *testing.T) {
	if raceEnabled {
		t.Skip("a counter guard; -race only slows it")
	}
	// Medians of 3×5 runs of this configuration over the mem transport
	// (2026-08-06, linux/amd64 Xeon @ 2.10GHz).
	const baseMsgs, baseRestarts = 8443.0, 385.6

	g, err := gen.ErdosRenyi(rng.Split(34, 0), 240, 960)
	if err != nil {
		t.Fatal(err)
	}
	const ops = 4000
	w, err := mpi.NewWorld(8)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	var restarts atomic.Int64
	start := w.Stats()
	err = w.Run(func(c *mpi.Comm) error {
		res, err := RunRank(c, g, ops, Config{
			Ranks:      8,
			Scheme:     SchemeHPD,
			Seed:       33,
			StepSize:   ops / 10,
			SkipResult: true,
		})
		if err != nil {
			return err
		}
		if res != nil {
			restarts.Add(res.Restarts)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	msgs := float64(w.Stats().Sends - start.Sends)
	t.Logf("msgs %.0f (baseline %.0f), restarts %d (baseline %.0f)",
		msgs, baseMsgs, restarts.Load(), baseRestarts)
	if msgs > 2*baseMsgs {
		t.Errorf("transport sends regressed >2x: %.0f vs baseline %.0f", msgs, baseMsgs)
	}
	if r := float64(restarts.Load()); r > 2*baseRestarts {
		t.Errorf("restarts regressed >2x: %.0f vs baseline %.0f", r, baseRestarts)
	}
}

// benchGenSpec builds the pergen spec the guards and smokes share.
func benchGenSpec(model string, n, d int) pergen.Spec {
	if model == "contact" {
		return pergen.Spec{Model: pergen.ModelContact, Seed: 42, N: n,
			Contact: gen.ContactConfig{AvgDegree: float64(d), CommunitySize: 40, WithinFrac: 0.8}}
	}
	return pergen.Spec{Model: pergen.ModelPA, Seed: 42, N: n, D: d}
}

// pergenBootstrap runs the communication-free bootstrap of spec at p
// ranks (t=0, SkipResult, HP-D) and returns the global edge count the
// ranks loaded.
func pergenBootstrap(tb testing.TB, spec pergen.Spec, p int) int64 {
	res, err := Parallel(nil, 0, Config{Ranks: p, Scheme: SchemeHPD, Seed: spec.Seed, SkipResult: true, DistributedGen: &spec})
	if err != nil {
		tb.Fatal(err)
	}
	var m int64
	for _, e := range res.RankInitialEdges {
		m += e
	}
	return m
}

// TestBenchsmokePergenRegression is the regression guard for the
// communication-free bootstrap: pa n=100k d=10 at p=8 must load exactly
// the edges it loaded when the generator was written. The counter-based
// generator is deterministic, so any drift is a correctness regression,
// not noise. TestDistributedGenPInvariance pins the same bootstrap to
// pergen's Full() edge for edge on smaller specs.
func TestBenchsmokePergenRegression(t *testing.T) {
	if raceEnabled {
		t.Skip("a counter guard; -race only slows it")
	}
	const baseEdges = 999_945
	spec := benchGenSpec("pa", 100_000, 10)
	start := time.Now()
	m := pergenBootstrap(t, spec, 8)
	t.Logf("pa n=%d p=8: %d edges (baseline %d) in %v", spec.N, m, baseEdges, time.Since(start))
	if m != baseEdges {
		t.Errorf("pergen generated %d edges, baseline has %d — the deterministic generator drifted", m, baseEdges)
	}
}

// TestLargeGenSmoke is the CI large-graph leg: generate a >=10^7-edge
// preferential-attachment graph with the communication-free bootstrap at
// p=8 and verify the exact deterministic edge count. Runs only under
// ESLARGE=1 (`make largesmoke`), which time-boxes it with -timeout.
func TestLargeGenSmoke(t *testing.T) {
	if os.Getenv("ESLARGE") == "" {
		t.Skip("set ESLARGE=1 to run the large-graph generation smoke")
	}
	const baseEdges = 10_000_005
	spec := benchGenSpec("pa", 1_000_006, 10) // the smallest n clearing the 10^7 bound at d=10
	if spec.MaxEdges() < 10_000_000 {
		t.Fatalf("smoke spec bound %d edges, want >= 10^7", spec.MaxEdges())
	}
	start := time.Now()
	m := pergenBootstrap(t, spec, 8)
	if m != baseEdges {
		t.Errorf("generated %d edges, baseline has %d — the deterministic generator drifted", m, baseEdges)
	}
	t.Logf("pa n=%d p=8: %d edges in %v", spec.N, m, time.Since(start))
}
