package core

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime/debug"
	"testing"
	"time"

	"edgeswitch/internal/gen/pergen"
)

// The out-of-core benchmark matrix behind BENCH_outofcore.json: the
// identical deterministic workload — two global curveball rounds on the
// pergen pa headline graph (n=1M, d=10, ~10^7 edges) at p=8,
// communication-free bootstrap, SkipResult — run four ways:
//
//   - inmem, uncapped: every partition in treaps; its sampled heap peak
//     defines the caps below.
//   - spill, uncapped: partitions in the tiered mmap store, no memory
//     pressure — isolates the store's structural overhead (the segment
//     decode on base reads, the compaction writes).
//   - spill at GOMEMLIMIT = 1/2 and 1/4 of the in-memory peak: the
//     tentpole claim. The mapping is file-backed and invisible to the
//     Go heap, so the run fits where the in-memory engine cannot; the
//     GC pressure the soft limit induces is the price measured here.
//
// Curveball is deterministic at every rank count, so all four cells
// must produce the same edge fingerprint — the matrix doubles as a
// correctness run. BENCH_outofcore.json commits the numbers; the
// benchsmoke guard replays a small slice and bands the slowdown.

// outOfCoreRounds is the matrix's common trade-round count.
const outOfCoreRounds = 2

// outOfCoreCell is one matrix measurement, as committed to
// BENCH_outofcore.json.
type outOfCoreCell struct {
	Store       string  `json:"store"`            // "inmem" or "spill"
	CapMiB      int64   `json:"cap_mib"`          // GOMEMLIMIT during the run; 0 = uncapped
	Model       string  `json:"model"`            // pergen model
	N           int     `json:"n"`                // vertices
	Ranks       int     `json:"ranks"`            //
	Ops         int64   `json:"ops"`              // executed trades
	EdgeHash    string  `json:"edge_hash"`        // order-independent fingerprint, hex
	PeakHeapMiB int64   `json:"peak_heap_mib"`    // sampled HeapAlloc high-water mark
	BaseBytes   int64   `json:"spill_base_bytes"` // final base-segment bytes across ranks
	OverlayHWM  int64   `json:"overlay_hwm"`      // peak overlay entries across ranks
	Compactions int64   `json:"compactions"`      //
	CompactSecs float64 `json:"compact_seconds"`  // wall clock spent compacting
	Seconds     float64 `json:"seconds"`          //
}

// runOutOfCoreCell drives one matrix cell on a fresh world. capBytes > 0
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
	store := "inmem"
	if spill {
		store = "spill"
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
		Store:       store,
		CapMiB:      capBytes >> 20,
		Model:       "pa",
		N:           spec.N,
		Ranks:       p,
		Ops:         res.Ops,
		EdgeHash:    fmt.Sprintf("%016x", res.EdgeHash),
		PeakHeapMiB: int64(peak >> 20),
		BaseBytes:   res.SpillBaseBytes,
		OverlayHWM:  res.SpillOverlayHWM,
		Compactions: res.SpillCompactions,
		CompactSecs: time.Duration(res.SpillCompactNs).Seconds(),
		Seconds:     elapsed.Seconds(),
	}
}

// BenchmarkOutOfCore times the store tiers on a mid-size graph (the
// 10^7-edge headline runs under TestBenchOutOfCoreRecord, not under the
// default bench loop).
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
			b.ReportMetric(float64(cell.Ops)/cell.Seconds, "trades/s")
			b.ReportMetric(float64(cell.PeakHeapMiB), "peakMiB")
		})
	}
}

// TestBenchOutOfCoreRecord regenerates BENCH_outofcore.json from the
// headline matrix and asserts the tentpole acceptance inline: the spill
// run capped at half the in-memory peak must finish within 2x the
// uncapped in-memory runtime, bit-identical. Run with BENCHRECORD=1
// after store changes that move the numbers, and commit the result.
func TestBenchOutOfCoreRecord(t *testing.T) {
	if os.Getenv("BENCHRECORD") == "" {
		t.Skip("set BENCHRECORD=1 to regenerate BENCH_outofcore.json")
	}
	spec := benchGenSpec("pa", 1_000_006, 10) // the >=10^7-edge headline graph
	const p = 8

	inmem := runOutOfCoreCell(t, spec, p, false, 0)
	peakBytes := inmem.PeakHeapMiB << 20
	cells := []outOfCoreCell{
		inmem,
		runOutOfCoreCell(t, spec, p, true, 0),
		runOutOfCoreCell(t, spec, p, true, peakBytes/2),
		runOutOfCoreCell(t, spec, p, true, peakBytes/4),
	}
	for _, c := range cells[1:] {
		if c.EdgeHash != inmem.EdgeHash {
			t.Fatalf("%s cap=%dMiB: edge fingerprint %s, in-memory run %s — the store diverged",
				c.Store, c.CapMiB, c.EdgeHash, inmem.EdgeHash)
		}
	}
	halfCap := cells[2]
	ratio := halfCap.Seconds / inmem.Seconds
	if ratio > 2 {
		t.Fatalf("spill at half-peak cap took %.1fs, %.2fx the uncapped in-memory %.1fs (acceptance bound 2x)",
			halfCap.Seconds, ratio, inmem.Seconds)
	}

	// The benchsmoke guard replays a small slice; record its baseline
	// from the same code path so the band tracks the committed numbers.
	gspec := benchGenSpec("pa", 100_001, 10)
	ginmem := runOutOfCoreCell(t, gspec, p, false, 0)
	gspill := runOutOfCoreCell(t, gspec, p, true, (ginmem.PeakHeapMiB<<20)/2)
	if gspill.EdgeHash != ginmem.EdgeHash {
		t.Fatalf("guard slice diverged: %s vs %s", gspill.EdgeHash, ginmem.EdgeHash)
	}

	doc := map[string]any{
		"benchmark": "BenchmarkOutOfCore / TestBenchOutOfCoreRecord (internal/core/bench_outofcore_test.go)",
		"description": "Two global curveball rounds on the pergen pa headline graph (n=1M d=10, ~10^7 edges), " +
			"p=8, communication-free bootstrap, SkipResult, seed 42: in-memory treaps vs the tiered mmap " +
			"store, uncapped and under GOMEMLIMIT at 1/2 and 1/4 of the sampled in-memory heap peak. " +
			"Curveball is deterministic, so every cell's edge_hash must match — the matrix doubles as a " +
			"correctness run. guard holds the small slice (pa n=100k) the benchsmoke regression test replays.",
		"date":    time.Now().Format("2006-01-02"),
		"command": "BENCHRECORD=1 go test -run '^TestBenchOutOfCoreRecord$' -v -timeout 60m ./internal/core/",
		"headline": map[string]any{
			"inmem_seconds":         inmem.Seconds,
			"spill_halfcap_seconds": halfCap.Seconds,
			"slowdown":              ratio,
			"cap_mib":               halfCap.CapMiB,
			"peak_heap_mib":         inmem.PeakHeapMiB,
		},
		"matrix": cells,
		"guard": map[string]any{
			"n":         gspec.N,
			"edge_hash": ginmem.EdgeHash,
			"cap_mib":   gspill.CapMiB,
			"slowdown":  gspill.Seconds / ginmem.Seconds,
		},
	}
	raw, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("../../BENCH_outofcore.json", append(raw, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote BENCH_outofcore.json: inmem %.1fs (peak %d MiB), spill@half-cap %.1fs (%.2fx)",
		inmem.Seconds, inmem.PeakHeapMiB, halfCap.Seconds, ratio)
}

// TestBenchsmokeOutOfCoreRegression is the benchsmoke guard for the
// tiered store: it replays the committed guard slice (pa n=100k, p=8,
// two curveball rounds, in-memory vs spill at the committed cap) once
// and fails if the spill run's edge fingerprint drifts from the
// committed deterministic value or from this run's in-memory result, or
// if the store stops streaming: it counts, it does not time (a
// wall-clock ratio of two paths that speed up by different factors bands
// nothing). A curveball round rewrites a fully drained partition
// straight into the next base segment, so the overlay stays a small
// fraction of the edges (≤ m/10, summed over ranks) and every rank
// rewrites its base at most once per round plus once at load. Runs only
// under BENCHSMOKE=1 (`make benchsmoke`).
func TestBenchsmokeOutOfCoreRegression(t *testing.T) {
	if os.Getenv("BENCHSMOKE") == "" {
		t.Skip("set BENCHSMOKE=1 to run the benchsmoke regression guard")
	}
	raw, err := os.ReadFile("../../BENCH_outofcore.json")
	if err != nil {
		t.Fatalf("committed baseline missing: %v", err)
	}
	var bench struct {
		Guard struct {
			N        int    `json:"n"`
			EdgeHash string `json:"edge_hash"`
			CapMiB   int64  `json:"cap_mib"`
		} `json:"guard"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatalf("BENCH_outofcore.json: %v", err)
	}
	if bench.Guard.EdgeHash == "" || bench.Guard.CapMiB == 0 {
		t.Fatal("BENCH_outofcore.json lacks the guard baseline")
	}

	const p = 8
	spec := benchGenSpec("pa", bench.Guard.N, 10)
	inmem := runOutOfCoreCell(t, spec, p, false, 0)
	spill := runOutOfCoreCell(t, spec, p, true, bench.Guard.CapMiB<<20)
	t.Logf("inmem %.2fs (peak %d MiB), spill@%dMiB %.2fs, overlay HWM %d, %d compactions",
		inmem.Seconds, inmem.PeakHeapMiB, bench.Guard.CapMiB, spill.Seconds, spill.OverlayHWM, spill.Compactions)
	if inmem.EdgeHash != bench.Guard.EdgeHash {
		t.Errorf("in-memory edge fingerprint drifted from baseline: %s vs %s — a correctness regression, not noise",
			inmem.EdgeHash, bench.Guard.EdgeHash)
	}
	if spill.EdgeHash != inmem.EdgeHash {
		t.Errorf("spill run diverged from in-memory: %s vs %s", spill.EdgeHash, inmem.EdgeHash)
	}
	if m := spec.MaxEdges(); spill.OverlayHWM > m/10 {
		t.Errorf("overlay high-water mark %d exceeds a tenth of the %d edges: rounds are materializing overlay treaps again", spill.OverlayHWM, m)
	}
	if limit := int64(p * (outOfCoreRounds + 1)); spill.Compactions > limit {
		t.Errorf("%d base rewrites over %d ranks and %d rounds, want at most one per rank per round plus one (%d)",
			spill.Compactions, p, outOfCoreRounds, limit)
	}
}
