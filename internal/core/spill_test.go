package core

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"edgeswitch/internal/mpi"
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
			scfg.overlayBudget = 64
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
		overlayBudget:   64,
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

// withStore points cfg at a fresh store of the given kind: "spill" is the
// tiered store with a tiny overlay budget (every boundary compacts),
// anything else the in-memory store.
func withStore(t *testing.T, cfg Config, kind string) Config {
	cfg.SpillDir, cfg.overlayBudget = "", 0
	if kind == "spill" {
		cfg.SpillDir, cfg.overlayBudget = t.TempDir(), 64
	}
	return cfg
}

// requireNoSpillLeft fails if a run left a rank-NNNN directory (a tiered
// store nobody closed) under its SpillDir.
func requireNoSpillLeft(t *testing.T, spillDir string) {
	t.Helper()
	ents, err := os.ReadDir(spillDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range ents {
		t.Errorf("run left %s behind under its SpillDir", ent.Name())
	}
}

// TestCheckpointStoreMatrix: a checkpoint has one partition format (a
// segment file next to a fixed-size snapshot) and a restore one loader
// (loadSlotEdges), whichever store wrote it and whichever store resumes
// it. For every deterministic configuration, a reference run under each
// store checkpoints every boundary; each boundary is then restored under
// each store and must end bit-identical to the uninterrupted run — edge
// flags, EdgeHash, ops and restarts. Crash recovery cannot depend on the
// survivor being configured like the victim.
//
// The corruption rows damage rank 0's files of the newest checkpoint.
// Demanding that exact step must fail naming the cause — and, restoring
// into a spill world, leave no spill directory behind although every
// rank's store existed when the step was refused; restoring the newest
// restorable step must fall back to the previous boundary and still end
// where the uninterrupted run ended. Never a panic.
func TestCheckpointStoreMatrix(t *testing.T) {
	g := testGraph(t, 16, 400, 1600)
	stores := []string{"mem", "spill"}
	runs := []struct {
		name     string
		algo     Algorithm
		ranks    int
		t        int64
		stepSize int64
	}{
		{"curveball-p1", AlgoCurveball, 1, 3, 0},
		{"curveball-p2", AlgoCurveball, 2, 3, 0},
		{"curveball-p8", AlgoCurveball, 8, 3, 0},
		{"edgeswitch-p1", AlgoEdgeSwitch, 1, 600, 200},
	}
	// reference runs tc under the write store, keeping every checkpoint.
	reference := func(t *testing.T, algo Algorithm, ranks int, ops, stepSize int64, write string) (Config, *Result, []int64) {
		cfg := withStore(t, Config{
			Ranks:           ranks,
			Algorithm:       algo,
			Scheme:          SchemeHPD,
			StepSize:        stepSize,
			Seed:            11,
			CheckInvariants: true,
			CheckpointDir:   t.TempDir(),
			CheckpointEvery: 1,
			checkpointKeep:  -1,
		}, write)
		ref, err := Parallel(g, ops, cfg)
		if err != nil {
			t.Fatal(err)
		}
		steps := manifestStepsIn(t, cfg.CheckpointDir)
		for _, step := range steps {
			for r := 0; r < ranks; r++ {
				if fi, err := os.Stat(ckSnapPath(cfg.CheckpointDir, step, r)); err != nil || fi.Size() != snapLen {
					t.Fatalf("step %d rank %d: snapshot is not the fixed %d-byte record: %v", step, r, snapLen, err)
				}
				if _, err := os.Stat(ckSegPath(cfg.CheckpointDir, step, r)); err != nil {
					t.Fatalf("step %d rank %d: no checkpoint segment: %v", step, r, err)
				}
			}
		}
		return cfg, ref, steps
	}
	requireSameRun := func(t *testing.T, tag string, ref, res *Result) {
		t.Helper()
		sameEdgeFlags(t, tag, edgeFlagMap(ref.Graph), edgeFlagMap(res.Graph))
		if res.EdgeHash != ref.EdgeHash || res.Ops != ref.Ops || res.Restarts != ref.Restarts {
			t.Fatalf("%s: hash %#x ops %d restarts %d, uninterrupted run had %#x / %d / %d",
				tag, res.EdgeHash, res.Ops, res.Restarts, ref.EdgeHash, ref.Ops, ref.Restarts)
		}
	}

	for _, tc := range runs {
		for _, write := range stores {
			t.Run(tc.name+"/"+write, func(t *testing.T) {
				cfg, ref, steps := reference(t, tc.algo, tc.ranks, tc.t, tc.stepSize, write)
				for _, step := range steps {
					for _, read := range stores {
						rcfg := withStore(t, cfg, read)
						rcfg.CheckpointDir = copyCheckpointDir(t, cfg.CheckpointDir)
						rcfg.Restore, rcfg.restoreStep = true, step
						res, err := Parallel(g, tc.t, rcfg)
						if err != nil {
							t.Fatalf("%s restore from step %d: %v", read, step, err)
						}
						if res.RestoredStep != step {
							t.Fatalf("%s restore resumed from step %d, demanded %d", read, res.RestoredStep, step)
						}
						requireSameRun(t, fmt.Sprintf("%s restore from step %d", read, step), ref, res)
						if read == "spill" {
							requireNoSpillLeft(t, rcfg.SpillDir)
						}
					}
				}
			})
		}
	}

	rewrite := func(t *testing.T, path string, edit func([]byte) []byte) {
		t.Helper()
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, edit(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	flipMiddle := func(data []byte) []byte { data[len(data)/2] ^= 0x40; return data }
	corruptions := []struct {
		name   string
		damage func(t *testing.T, dir string, last int64)
		want   string // names the cause in the exact-step error
	}{
		{"ck-byte-flipped", func(t *testing.T, dir string, last int64) {
			rewrite(t, ckSnapPath(dir, last, 0), flipMiddle)
		}, "snapshot CRC mismatch"},
		{"ck-truncated", func(t *testing.T, dir string, last int64) {
			rewrite(t, ckSnapPath(dir, last, 0), func(data []byte) []byte { return data[:snapHeaderLen] })
		}, "is exactly 160"},
		{"seg-byte-flipped", func(t *testing.T, dir string, last int64) {
			rewrite(t, ckSegPath(dir, last, 0), flipMiddle)
		}, "CRC mismatch"},
		{"seg-truncated", func(t *testing.T, dir string, last int64) {
			rewrite(t, ckSegPath(dir, last, 0), func(data []byte) []byte { return data[:len(data)/2] })
		}, "store: segment"},
		{"seg-missing", func(t *testing.T, dir string, last int64) {
			if err := os.Remove(ckSegPath(dir, last, 0)); err != nil {
				t.Fatal(err)
			}
		}, "no such file"},
		{"seg-of-another-step", func(t *testing.T, dir string, last int64) {
			other, err := os.ReadFile(ckSegPath(dir, last-1, 0))
			if err != nil {
				t.Fatal(err)
			}
			rewrite(t, ckSegPath(dir, last, 0), func([]byte) []byte { return other })
		}, "snapshot recorded"},
	}
	for _, write := range stores {
		t.Run("corrupt/"+write, func(t *testing.T) {
			cfg, ref, steps := reference(t, AlgoCurveball, 2, 3, 0, write)
			last := steps[len(steps)-1]
			for _, row := range corruptions {
				for _, read := range stores {
					rcfg := withStore(t, cfg, read)
					rcfg.CheckpointDir = copyCheckpointDir(t, cfg.CheckpointDir)
					row.damage(t, rcfg.CheckpointDir, last)
					tag := row.name + " into " + read

					rcfg.Restore, rcfg.restoreStep = true, last
					_, err := Parallel(g, 3, rcfg)
					if err == nil || !strings.Contains(err.Error(), "cannot restore requested checkpoint step") || !strings.Contains(err.Error(), row.want) {
						t.Fatalf("%s, exact step: got %v, want the refusal naming %q", tag, err, row.want)
					}
					if read == "spill" {
						requireNoSpillLeft(t, rcfg.SpillDir)
					}

					rcfg.restoreStep = 0
					res, err := Parallel(g, 3, rcfg)
					if err != nil {
						t.Fatalf("%s, newest step: %v", tag, err)
					}
					if res.RestoredStep != last-1 {
						t.Fatalf("%s: fell back to step %d, want %d", tag, res.RestoredStep, last-1)
					}
					requireSameRun(t, tag, ref, res)
				}
			}
		})
	}
}

// TestBootstrapFailureClosesStore: a load that fails after the rank's
// store exists — here a source handing the same edge twice — must close
// it: a tiered store would otherwise leak its mapping and leave
// SpillDir/rank-NNNN behind for esworker's in-process retry to trip on.
func TestBootstrapFailureClosesStore(t *testing.T) {
	g := testGraph(t, 18, 60, 200)
	src := graphSource(g)
	src.edges = func(e *rankEngine) []slotEdge {
		ents := graphSource(g).edges(e)
		return append(ents, ents[0])
	}
	w, err := mpi.NewWorld(1)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	cfg := Config{Seed: 3, SpillDir: t.TempDir()}
	err = w.Run(func(c *mpi.Comm) error {
		_, err := bootstrap(c, src, 10, cfg)
		return err
	})
	if err == nil || !strings.Contains(err.Error(), "duplicate edge") {
		t.Fatalf("duplicate-edge load: got %v, want the duplicate-edge error", err)
	}
	requireNoSpillLeft(t, cfg.SpillDir)
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

// TestSpillRestoreSmoke rides `make spillsmoke` (ESSPILL=1): the same
// 10^7-edge graph through the tiered store at p=8, one curveball round
// and its checkpoint, then the rollback — restore that checkpoint into
// fresh spill directories and compare fingerprints. The restore decodes,
// sorts and streams each partition into a new base segment like a fresh
// bootstrap does; both are timed and logged (CHANGES.md PR 22 records
// the numbers), not asserted.
func TestSpillRestoreSmoke(t *testing.T) {
	if os.Getenv("ESSPILL") == "" {
		t.Skip("set ESSPILL=1 to run the out-of-core restore smoke (generates a 10^7-edge graph)")
	}
	spec := benchGenSpec("pa", 1_000_006, 10)
	cfg := Config{
		Ranks:           8,
		Algorithm:       AlgoCurveball,
		Scheme:          SchemeHPD,
		Seed:            spec.Seed,
		SkipResult:      true,
		DistributedGen:  &spec,
		SpillDir:        t.TempDir(),
		CheckpointDir:   t.TempDir(),
		CheckpointEvery: 1,
	}
	ref, err := Parallel(nil, 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		fresh := cfg
		fresh.CheckpointDir, fresh.SpillDir = "", t.TempDir()
		start := time.Now()
		if _, err := Parallel(nil, 0, fresh); err != nil {
			t.Fatal(err)
		}
		freshDur := time.Since(start)

		rcfg := cfg
		rcfg.SpillDir, rcfg.Restore = t.TempDir(), true
		start = time.Now()
		res, err := Parallel(nil, 1, rcfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.RestoredStep != 1 || res.EdgeHash != ref.EdgeHash {
			t.Fatalf("restored step %d with fingerprint %#x, checkpointed run ended step 1 at %#x", res.RestoredStep, res.EdgeHash, ref.EdgeHash)
		}
		t.Logf("pa n=%d p=8 spill: fresh bootstrap %v, restore of step 1 %v",
			spec.N, freshDur.Round(time.Millisecond), time.Since(start).Round(time.Millisecond))
	}
}
