package core

import (
	"fmt"
	"runtime/debug"
	"testing"
	"time"

	"edgeswitch/internal/gen/pergen"
)

// The out-of-core benchmark: the identical deterministic workload — two
// global curveball rounds on a pergen pa graph at p=8,
// communication-free bootstrap, SkipResult — run with every partition
// in treaps and through the tiered mmap store. Curveball is
// deterministic at every rank count, so both must produce the same edge
// fingerprint.

// outOfCoreRounds is the common trade-round count.
const outOfCoreRounds = 2

// outOfCoreCell is one measurement.
type outOfCoreCell struct {
	ops         int64  // executed trades
	edgeHash    uint64 // order-independent fingerprint (Result.EdgeHash)
	peakHeapMiB int64  // sampled HeapAlloc high-water mark
	overlayHWM  int64  // peak overlay entries across ranks
	compactions int64
	seconds     float64
}

// runOutOfCoreCell drives one cell on a fresh world. capBytes > 0
// applies a soft memory limit for the duration of the run.
func runOutOfCoreCell(tb testing.TB, spec pergen.Spec, p int, spill bool, capBytes int64) outOfCoreCell {
	tb.Helper()
	cfg := Config{
		Ranks:          p,
		Algorithm:      AlgoCurveball,
		Scheme:         SchemeHPD,
		Seed:           spec.Seed,
		SkipResult:     true,
		DistributedGen: &spec,
	}
	if spill {
		cfg.SpillDir = tb.TempDir()
	}
	if capBytes > 0 {
		prev := debug.SetMemoryLimit(capBytes)
		defer debug.SetMemoryLimit(prev)
	}
	// Start each cell from a drained heap so the sampled peak and the
	// GC pressure under a cap measure this run, not the previous cell's
	// garbage.
	debug.FreeOSMemory()

	var res *Result
	var err error
	t0 := time.Now()
	peak := peakHeapDuring(func() {
		res, err = Parallel(nil, outOfCoreRounds, cfg)
	})
	elapsed := time.Since(t0)
	if err != nil {
		tb.Fatal(err)
	}
	return outOfCoreCell{
		ops:         res.Ops,
		edgeHash:    res.EdgeHash,
		peakHeapMiB: int64(peak >> 20),
		overlayHWM:  res.SpillOverlayHWM,
		compactions: res.SpillCompactions,
		seconds:     elapsed.Seconds(),
	}
}

// BenchmarkOutOfCore times the store tiers on a mid-size graph (the
// 10^7-edge run is TestSpillSmoke's, not the default bench loop's).
func BenchmarkOutOfCore(b *testing.B) {
	n := 100_001
	if testing.Short() {
		n = 10_001
	}
	spec := benchGenSpec("pa", n, 10)
	for _, spill := range []bool{false, true} {
		store := "inmem"
		if spill {
			store = "spill"
		}
		b.Run(fmt.Sprintf("%s/pa/p8", store), func(b *testing.B) {
			var cell outOfCoreCell
			for i := 0; i < b.N; i++ {
				cell = runOutOfCoreCell(b, spec, 8, spill, 0)
			}
			b.ReportMetric(float64(cell.ops)/cell.seconds, "trades/s")
			b.ReportMetric(float64(cell.peakHeapMiB), "peakMiB")
		})
	}
}

// TestBenchsmokeOutOfCoreRegression is the regression guard for the
// tiered store: it runs pa n=100k at p=8 for two curveball rounds, in
// memory and then spilled under a soft memory limit of half the
// in-memory run's sampled heap peak, and fails if either edge
// fingerprint drifts from the recorded deterministic value, or if the
// store stops streaming: it counts, it does not time (a wall-clock
// ratio of two paths that speed up by different factors bands nothing).
// A curveball round rewrites a fully drained partition straight into
// the next base segment, so the overlay stays a small fraction of the
// edges (≤ m/10, summed over ranks) and every rank rewrites its base at
// most once per round plus once at load.
func TestBenchsmokeOutOfCoreRegression(t *testing.T) {
	if raceEnabled {
		t.Skip("a counter guard; -race only slows it")
	}
	const baseHash = 0x3cb05a60655f34e8

	const p = 8
	spec := benchGenSpec("pa", 100_001, 10)
	inmem := runOutOfCoreCell(t, spec, p, false, 0)
	capMiB := inmem.peakHeapMiB / 2
	spill := runOutOfCoreCell(t, spec, p, true, capMiB<<20)
	t.Logf("inmem %.2fs (peak %d MiB), spill@%dMiB %.2fs (peak %d MiB), overlay HWM %d, %d compactions",
		inmem.seconds, inmem.peakHeapMiB, capMiB, spill.seconds, spill.peakHeapMiB, spill.overlayHWM, spill.compactions)
	if inmem.edgeHash != baseHash {
		t.Errorf("in-memory edge fingerprint drifted from baseline: %016x vs %016x — a correctness regression, not noise",
			inmem.edgeHash, uint64(baseHash))
	}
	if spill.edgeHash != inmem.edgeHash {
		t.Errorf("spill run diverged from in-memory: %016x vs %016x", spill.edgeHash, inmem.edgeHash)
	}
	if m := spec.MaxEdges(); spill.overlayHWM > m/10 {
		t.Errorf("overlay high-water mark %d exceeds a tenth of the %d edges: rounds are materializing overlay treaps again", spill.overlayHWM, m)
	}
	if limit := int64(p * (outOfCoreRounds + 1)); spill.compactions > limit {
		t.Errorf("%d base rewrites over %d ranks and %d rounds, want at most one per rank per round plus one (%d)",
			spill.compactions, p, outOfCoreRounds, limit)
	}
}
