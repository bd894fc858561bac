package core

import (
	"os"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"testing"
	"time"
)

// TestSpillInMemoryEquivalence is the out-of-core tentpole pin: wherever
// a configuration is deterministic — curveball at every rank count,
// edge-switching at p=1 — a run whose partitions live in the tiered
// mmap store must end bit-identical to the pure in-memory run, ops,
// restarts, edge flags and fingerprint included. The overlay budget is
// forced tiny so every step boundary compacts: the equivalence is
// exercised across base-segment rewrites, not just across the initial
// load.
func TestSpillInMemoryEquivalence(t *testing.T) {
	g := testGraph(t, 14, 400, 1600)
	cases := []struct {
		name     string
		algo     Algorithm
		ranks    int
		t        int64
		stepSize int64
	}{
		{"curveball-p1", AlgoCurveball, 1, 4, 0},
		{"curveball-p2", AlgoCurveball, 2, 4, 0},
		{"curveball-p8", AlgoCurveball, 8, 4, 0},
		{"edgeswitch-p1", AlgoEdgeSwitch, 1, 800, 200},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{
				Ranks:           tc.ranks,
				Algorithm:       tc.algo,
				Scheme:          SchemeHPD,
				StepSize:        tc.stepSize,
				Seed:            11,
				CheckInvariants: true,
			}
			mem, err := Parallel(g, tc.t, cfg)
			if err != nil {
				t.Fatal(err)
			}
			scfg := cfg
			scfg.SpillDir = t.TempDir()
			scfg.OverlayBudget = 64
			spill, err := Parallel(g, tc.t, scfg)
			if err != nil {
				t.Fatal(err)
			}
			sameEdgeFlags(t, tc.name, edgeFlagMap(mem.Graph), edgeFlagMap(spill.Graph))
			if mem.Ops != spill.Ops || mem.Restarts != spill.Restarts {
				t.Errorf("spill run did %d ops / %d restarts, in-memory %d / %d",
					spill.Ops, spill.Restarts, mem.Ops, mem.Restarts)
			}
			if mem.EdgeHash == 0 || mem.EdgeHash != spill.EdgeHash {
				t.Errorf("edge fingerprints diverged: in-memory %#x, spill %#x",
					mem.EdgeHash, spill.EdgeHash)
			}
			if spill.SpillBaseBytes == 0 {
				t.Error("spill run reports no base-segment bytes")
			}
			if spill.SpillCompactions == 0 {
				t.Error("tiny overlay budget never triggered a compaction")
			}
			if mem.SpillBaseBytes != 0 || mem.SpillCompactions != 0 {
				t.Errorf("in-memory run reports spill activity: %d B, %d compactions",
					mem.SpillBaseBytes, mem.SpillCompactions)
			}
		})
	}
}

// TestSpillCurveballStreamsRounds counts what a curveball round costs the
// tiered store: the partition drains out of the base segment and the
// rebuilt one streams into the next, so no entry ever enters the overlay
// and every rank rewrites its base exactly once per round.
func TestSpillCurveballStreamsRounds(t *testing.T) {
	spec := benchGenSpec("pa", 2000, 5)
	const rounds, p = 3, 2
	cfg := Config{
		Ranks:          p,
		Algorithm:      AlgoCurveball,
		Scheme:         SchemeHPD,
		Seed:           11,
		DistributedGen: &spec,
		SkipResult:     true,
	}
	mem, err := Parallel(nil, rounds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.SpillDir = t.TempDir()
	spill, err := Parallel(nil, rounds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if spill.EdgeHash != mem.EdgeHash {
		t.Errorf("edge fingerprints diverged: in-memory %#x, spill %#x", mem.EdgeHash, spill.EdgeHash)
	}
	if spill.SpillOverlayHWM != 0 {
		t.Errorf("overlay high-water mark %d: a round materialized overlay treaps", spill.SpillOverlayHWM)
	}
	if spill.SpillCompactions != rounds*p {
		t.Errorf("%d base rewrites, want one per rank per round (%d)", spill.SpillCompactions, rounds*p)
	}
}

// TestSpillParallelEdgeSwitch: at p>1 the edge-switching conversation
// interleaving is scheduling-dependent, so the spill run cannot be
// compared edge-for-edge — instead it must complete under the full
// sanitizer (simplicity, ownership, Fenwick and degree conservation are
// re-verified at every compacting step boundary) and preserve the
// degree multiset.
func TestSpillParallelEdgeSwitch(t *testing.T) {
	g := testGraph(t, 15, 400, 1600)
	res, err := Parallel(g, 800, Config{
		Ranks:           8,
		Scheme:          SchemeHPD,
		StepSize:        200,
		Seed:            7,
		CheckInvariants: true,
		SpillDir:        t.TempDir(),
		OverlayBudget:   64,
	})
	if err != nil {
		t.Fatal(err)
	}
	checkRun(t, g, res, 800)
	if !sameDegrees(degreeMultiset(g), degreeMultiset(res.Graph)) {
		t.Fatal("spill run changed the degree multiset")
	}
	if res.SpillCompactions == 0 {
		t.Error("tiny overlay budget never triggered a compaction")
	}
}

// TestSpillCheckpointRoundTrip: a spill run's checkpoints store the
// adjacency payload externally — the snapshot records only the identity
// of a hard-linked base segment. Every committed boundary must leave
// that segment file behind, and must restore to the uninterrupted
// run's exact result both into another spill world (the segment is
// adopted as-is) and into a plain in-memory world (the segment is
// decoded once and dropped) — crash recovery cannot depend on the
// survivor being configured like the victim.
func TestSpillCheckpointRoundTrip(t *testing.T) {
	g := testGraph(t, 16, 400, 1600)
	cases := []struct {
		name     string
		algo     Algorithm
		ranks    int
		t        int64
		stepSize int64
	}{
		{"curveball-p2", AlgoCurveball, 2, 3, 0},
		{"edgeswitch-p1", AlgoEdgeSwitch, 1, 600, 200},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			refDir := t.TempDir()
			cfg := Config{
				Ranks:           tc.ranks,
				Algorithm:       tc.algo,
				Scheme:          SchemeHPD,
				StepSize:        tc.stepSize,
				Seed:            11,
				CheckInvariants: true,
				SpillDir:        t.TempDir(),
				OverlayBudget:   64,
				CheckpointDir:   refDir,
				CheckpointEvery: 1,
				CheckpointKeep:  -1,
			}
			ref, err := Parallel(g, tc.t, cfg)
			if err != nil {
				t.Fatal(err)
			}
			refEdges := canonicalEdges(t, ref.Graph)

			steps := manifestStepsIn(t, refDir)
			for _, step := range steps {
				for r := 0; r < tc.ranks; r++ {
					if _, err := os.Stat(ckSegPath(refDir, step, r)); err != nil {
						t.Fatalf("step %d rank %d: no checkpoint segment: %v", step, r, err)
					}
				}
			}

			for _, step := range steps {
				for _, mode := range []string{"spill", "inmem"} {
					rcfg := cfg
					rcfg.CheckpointDir = copyCheckpointDir(t, refDir)
					rcfg.Restore, rcfg.RestoreStep = true, step
					if mode == "spill" {
						rcfg.SpillDir = t.TempDir()
					} else {
						rcfg.SpillDir, rcfg.OverlayBudget = "", 0
					}
					res, err := Parallel(g, tc.t, rcfg)
					if err != nil {
						t.Fatalf("%s restore from step %d: %v", mode, step, err)
					}
					if res.RestoredStep != step {
						t.Fatalf("%s restore resumed from step %d, demanded %d", mode, res.RestoredStep, step)
					}
					if !sameEdges(refEdges, canonicalEdges(t, res.Graph)) {
						t.Fatalf("%s restore from step %d diverged from the uninterrupted run", mode, step)
					}
					if res.Ops != ref.Ops || res.EdgeHash != ref.EdgeHash {
						t.Fatalf("%s restore from step %d: ops %d hash %#x, uninterrupted run had %d / %#x",
							mode, step, res.Ops, res.EdgeHash, ref.Ops, ref.EdgeHash)
					}
				}
			}
		})
	}
}

// TestSpillRestoreFromInlineCheckpoint covers the remaining cross-mode
// direction: a checkpoint written by a plain in-memory run (adjacency
// inline in the snapshot) restored into a spill world. The restored
// partitions stream into fresh base segments and the run must still end
// where the uninterrupted in-memory run ended.
func TestSpillRestoreFromInlineCheckpoint(t *testing.T) {
	g := testGraph(t, 17, 400, 1600)
	refDir := t.TempDir()
	cfg := Config{
		Ranks:           2,
		Algorithm:       AlgoCurveball,
		Scheme:          SchemeHPD,
		Seed:            11,
		CheckInvariants: true,
		CheckpointDir:   refDir,
		CheckpointEvery: 1,
		CheckpointKeep:  -1,
	}
	ref, err := Parallel(g, 3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	refEdges := canonicalEdges(t, ref.Graph)

	for _, step := range manifestStepsIn(t, refDir) {
		rcfg := cfg
		rcfg.CheckpointDir = copyCheckpointDir(t, refDir)
		rcfg.Restore, rcfg.RestoreStep = true, step
		rcfg.SpillDir = t.TempDir()
		rcfg.OverlayBudget = 64
		res, err := Parallel(g, 3, rcfg)
		if err != nil {
			t.Fatalf("spill restore from inline step %d: %v", step, err)
		}
		if res.RestoredStep != step {
			t.Fatalf("resumed from step %d, demanded %d", res.RestoredStep, step)
		}
		if !sameEdges(refEdges, canonicalEdges(t, res.Graph)) {
			t.Fatalf("spill restore from inline step %d diverged from the in-memory run", step)
		}
	}
}

// peakHeapDuring samples HeapAlloc while f runs and returns the largest
// observation. The 5ms ReadMemStats cadence briefly stops the world —
// acceptable in a smoke test whose phases run for seconds.
func peakHeapDuring(f func()) uint64 {
	var peak atomic.Uint64
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		var ms runtime.MemStats
		for {
			select {
			case <-stop:
				return
			case <-time.After(5 * time.Millisecond):
			}
			runtime.ReadMemStats(&ms)
			if ms.HeapAlloc > peak.Load() {
				peak.Store(ms.HeapAlloc)
			}
		}
	}()
	f()
	close(stop)
	<-done
	return peak.Load()
}

// TestSpillSmoke is the CI out-of-core leg (`make spillsmoke`, gated on
// ESSPILL=1): bootstrap a >=10^7-edge preferential-attachment graph
// communication-free at p=8, run two global curveball rounds fully
// in-memory while sampling the heap high-water mark, then repeat the
// identical run through the tiered store under a soft memory limit of
// half that peak. The capped spill run must complete and its final edge
// fingerprint must be bit-identical to the uncapped in-memory run —
// curveball is deterministic at every rank count, so any divergence is
// a store bug, not scheduling noise. Runtimes are logged, not asserted:
// the BENCH_outofcore.json guard owns the performance band.
func TestSpillSmoke(t *testing.T) {
	if os.Getenv("ESSPILL") == "" {
		t.Skip("set ESSPILL=1 to run the out-of-core smoke (generates a 10^7-edge graph)")
	}
	spec := benchGenSpec("pa", 1_000_006, 10) // MaxEdges 10,000,005, as TestLargeGenSmoke
	cfg := Config{
		Ranks:          8,
		Algorithm:      AlgoCurveball,
		Scheme:         SchemeHPD,
		Seed:           spec.Seed,
		SkipResult:     true,
		DistributedGen: &spec,
	}

	var mem *Result
	var err error
	start := time.Now()
	peak := peakHeapDuring(func() {
		mem, err = Parallel(nil, 2, cfg)
	})
	memDur := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if mem.EdgeHash == 0 {
		t.Fatal("in-memory run produced no edge fingerprint")
	}

	limit := int64(peak / 2)
	if limit < 64<<20 {
		limit = 64 << 20
	}
	prev := debug.SetMemoryLimit(limit)
	defer debug.SetMemoryLimit(prev)

	scfg := cfg
	scfg.SpillDir = t.TempDir()
	start = time.Now()
	spill, err := Parallel(nil, 2, scfg)
	spillDur := time.Since(start)
	if err != nil {
		t.Fatalf("capped spill run failed: %v", err)
	}

	if spill.EdgeHash != mem.EdgeHash {
		t.Errorf("edge fingerprints diverged under the memory cap: in-memory %#x, spill %#x",
			mem.EdgeHash, spill.EdgeHash)
	}
	if spill.SpillBaseBytes == 0 {
		t.Error("spill run reports no base-segment bytes")
	}
	t.Logf("pa n=%d p=8: in-memory %v (peak heap %d MiB), spill %v under %d MiB limit (%.2fx, %d compactions, %d B base)",
		spec.N, memDur.Round(time.Millisecond), peak>>20,
		spillDur.Round(time.Millisecond), limit>>20,
		spillDur.Seconds()/memDur.Seconds(), spill.SpillCompactions, spill.SpillBaseBytes)
}
