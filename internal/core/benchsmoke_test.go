package core

import (
	"os"
	"sync/atomic"
	"testing"

	"edgeswitch/internal/gen"
	"edgeswitch/internal/mpi"
	"edgeswitch/internal/rng"
)

// TestBenchsmokeEngineRegression is the benchsmoke regression guard for
// the conversation protocol: it replays one 10-step run on a tiny
// uniform graph at p=8 (Erdős–Rényi n=240 m=960, ≈120 edges per rank —
// the regime where the pipelining window holds a large share of each
// partition in hand) and fails if protocol efficiency has regressed by
// more than 2x against the recorded baseline — either in transport
// sends (the batching the window feeds) or in restarts (the work wasted
// on rejected selections). It runs only under BENCHSMOKE=1 (`make
// benchsmoke`): a single run is deliberately noisy, so the 2x band is a
// rot detector for CI, not a performance assertion.
func TestBenchsmokeEngineRegression(t *testing.T) {
	if os.Getenv("BENCHSMOKE") == "" {
		t.Skip("set BENCHSMOKE=1 to run the benchsmoke regression guard")
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
