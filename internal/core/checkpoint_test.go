package core

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"edgeswitch/internal/graph"
	"edgeswitch/internal/mpi"
)

// canonicalEdges returns a run's edge set in a comparable order.
func canonicalEdges(t *testing.T, g *graph.Graph) []graph.Edge {
	t.Helper()
	es := g.Edges()
	sort.Slice(es, func(i, j int) bool {
		if es[i].U != es[j].U {
			return es[i].U < es[j].U
		}
		return es[i].V < es[j].V
	})
	return es
}

func sameEdges(a, b []graph.Edge) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// copyCheckpointDir clones a checkpoint directory so restore runs (which
// write their own checkpoints as they continue) cannot disturb the
// reference set.
func copyCheckpointDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// manifestStepsIn lists the committed checkpoint steps in a directory.
func manifestStepsIn(t *testing.T, dir string) []int64 {
	t.Helper()
	ck := &checkpointer{dir: dir}
	steps := ck.manifestSteps()
	if len(steps) == 0 {
		t.Fatalf("no checkpoint manifests in %s", dir)
	}
	return steps
}

// TestCheckpointRestoreEquivalence is the tentpole pin: a run killed and
// restored at ANY step boundary must end exactly where an uninterrupted
// run ends. For every case a reference run checkpoints every boundary
// (keeping all of them), then each boundary is restored in a fresh world
// and driven to completion. Where the protocol is deterministic —
// curveball at every rank count, edge-switching at p=1 (at p>1 the
// conversation interleaving is scheduling-dependent) — the final edge
// set must be bit-identical; elsewhere the restored run completes under
// the full sanitizer and must preserve the degree multiset.
func TestCheckpointRestoreEquivalence(t *testing.T) {
	g := testGraph(t, 7, 400, 1600)
	cases := []struct {
		name          string
		algo          Algorithm
		ranks         int
		t             int64
		stepSize      int64
		deterministic bool
	}{
		{"curveball-p1", AlgoCurveball, 1, 4, 0, true},
		{"curveball-p2", AlgoCurveball, 2, 4, 0, true},
		{"curveball-p8", AlgoCurveball, 8, 4, 0, true},
		{"edgeswitch-p1", AlgoEdgeSwitch, 1, 800, 200, true},
		{"edgeswitch-p2", AlgoEdgeSwitch, 2, 800, 200, false},
		{"edgeswitch-p8", AlgoEdgeSwitch, 8, 800, 200, false},
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
				CheckpointDir:   refDir,
				CheckpointEvery: 1,
				checkpointKeep:  -1,
			}
			ref, err := Parallel(g, tc.t, cfg)
			if err != nil {
				t.Fatal(err)
			}
			refEdges := canonicalEdges(t, ref.Graph)
			refDegrees := degreeMultiset(ref.Graph)

			for _, step := range manifestStepsIn(t, refDir) {
				rcfg := cfg
				rcfg.CheckpointDir = copyCheckpointDir(t, refDir)
				rcfg.Restore = true
				rcfg.restoreStep = step
				res, err := Parallel(g, tc.t, rcfg)
				if err != nil {
					t.Fatalf("restore from step %d: %v", step, err)
				}
				if res.RestoredStep != step {
					t.Fatalf("resumed from step %d, demanded %d", res.RestoredStep, step)
				}
				if tc.deterministic {
					if !sameEdges(refEdges, canonicalEdges(t, res.Graph)) {
						t.Fatalf("restore from step %d diverged from the uninterrupted run", step)
					}
					if res.Ops != ref.Ops || res.Restarts != ref.Restarts {
						t.Fatalf("restore from step %d: ops %d restarts %d, uninterrupted run had %d/%d",
							step, res.Ops, res.Restarts, ref.Ops, ref.Restarts)
					}
				} else {
					// Scheduling-dependent interleaving: pin the
					// structural invariants instead of the exact edges.
					checkRun(t, g, res, tc.t)
					if !sameDegrees(refDegrees, degreeMultiset(res.Graph)) {
						t.Fatalf("restore from step %d changed the degree multiset", step)
					}
				}
			}
		})
	}
}

// TestCheckpointRestoreFreshWhenEmpty: Restore against an empty
// directory (no committed manifest) bootstraps a fresh run rather than
// failing — the edgeswitch rollback loop relies on this when a world
// faults before its first checkpoint commits.
func TestCheckpointRestoreFreshWhenEmpty(t *testing.T) {
	g := testGraph(t, 8, 200, 600)
	res, err := Parallel(g, 300, Config{
		Ranks:         2,
		Seed:          5,
		CheckpointDir: t.TempDir(),
		Restore:       true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.RestoredStep != 0 {
		t.Fatalf("fresh bootstrap reported RestoredStep %d", res.RestoredStep)
	}
	checkRun(t, g, res, 300)
}

// TestCheckpointRestoreStepMissing: demanding a step that was never
// committed must fail with the reason, not silently start fresh.
func TestCheckpointRestoreStepMissing(t *testing.T) {
	g := testGraph(t, 8, 200, 600)
	_, err := Parallel(g, 300, Config{
		Ranks:         2,
		Seed:          5,
		CheckpointDir: t.TempDir(),
		Restore:       true,
		restoreStep:   3,
	})
	if err == nil {
		t.Fatal("restore from a nonexistent step succeeded")
	}
	if !strings.Contains(err.Error(), "cannot restore requested checkpoint step 3") {
		t.Fatalf("unhelpful error: %v", err)
	}
}

// writeEquivalenceCheckpoints runs a short 2-rank curveball run that
// leaves every boundary's checkpoint behind, for the corruption tests.
func writeEquivalenceCheckpoints(t *testing.T, g *graph.Graph) (string, Config, int64) {
	t.Helper()
	dir := t.TempDir()
	cfg := Config{
		Ranks:           2,
		Algorithm:       AlgoCurveball,
		Seed:            11,
		CheckpointDir:   dir,
		CheckpointEvery: 1,
		checkpointKeep:  -1,
	}
	if _, err := Parallel(g, 3, cfg); err != nil {
		t.Fatal(err)
	}
	steps := manifestStepsIn(t, dir)
	return dir, cfg, steps[len(steps)-1]
}

// flipRankRecord flips the last digit of rank r's first RNG state word
// in a manifest file: the JSON still parses, so only the seal can tell.
func flipRankRecord(t *testing.T, path string, r int) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	pos := 0
	for i := 0; i <= r; i++ {
		at := bytes.Index(data[pos:], []byte(`"rng":[`))
		if at < 0 {
			t.Fatalf("%s holds no RNG state for rank %d", path, r)
		}
		pos += at + len(`"rng":[`)
	}
	pos += bytes.IndexByte(data[pos:], ',') - 1
	data[pos] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointCorruptSnapshotRejected: a flipped byte in one rank's
// record in the manifest must fail the restore with an actionable CRC
// error instead of resuming from corrupted state.
func TestCheckpointCorruptSnapshotRejected(t *testing.T) {
	g := testGraph(t, 9, 200, 600)
	dir, cfg, step := writeEquivalenceCheckpoints(t, g)
	flipRankRecord(t, ckManifestPath(dir, step), 1)

	cfg.Restore, cfg.restoreStep = true, step
	_, err := Parallel(g, 3, cfg)
	if err == nil {
		t.Fatal("corrupted manifest restored")
	}
	if !strings.Contains(err.Error(), "cannot restore requested checkpoint step") || !strings.Contains(err.Error(), "manifest CRC mismatch") {
		t.Fatalf("unhelpful error: %v", err)
	}

	// Without the exact-step demand, the agreement collective must skip
	// past the damaged step to the newest one every rank can restore.
	cfg.restoreStep = 0
	res, err := Parallel(g, 3, cfg)
	if err != nil {
		t.Fatalf("restore could not fall back past the damaged step: %v", err)
	}
	if res.RestoredStep == 0 || res.RestoredStep >= step {
		t.Fatalf("fell back to step %d, want an earlier intact checkpoint", res.RestoredStep)
	}
}

// TestCheckpointCorruptDegreeBaselineRejected: the manifest's degree
// CRC doubles as the restore integrity check — a restored world whose
// re-derived global degree sequence does not hash to the recorded value
// must refuse to resume, naming the failing step.
func TestCheckpointCorruptDegreeBaselineRejected(t *testing.T) {
	g := testGraph(t, 10, 200, 600)
	dir, cfg, step := writeEquivalenceCheckpoints(t, g)

	path := ckManifestPath(dir, step)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	man, err := decodeManifest(data)
	if err != nil {
		t.Fatal(err)
	}
	man.DegreeCRC++
	if data, err = encodeManifest(man); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	cfg.Restore, cfg.restoreStep = true, step
	_, err = Parallel(g, 3, cfg)
	if err == nil {
		t.Fatal("restore passed a wrong degree baseline")
	}
	if !strings.Contains(err.Error(), "degree sequence") {
		t.Fatalf("unhelpful error: %v", err)
	}
}

// TestCheckpointSegmentWriteFailure: one rank's segment write fails — a
// non-empty directory squats on the name its segment is renamed to. The
// refusal rides the record gather, so the world aborts that checkpoint
// with the rank's named error and commits no manifest for the step; once
// the squatter is gone, a restore resumes from the previous checkpoint.
func TestCheckpointSegmentWriteFailure(t *testing.T) {
	g := testGraph(t, 7, 400, 1600)
	for _, tc := range []struct {
		algo        Algorithm
		t, stepSize int64
	}{
		{AlgoCurveball, 4, 0},
		{AlgoEdgeSwitch, 800, 200},
	} {
		t.Run(string(tc.algo), func(t *testing.T) {
			cfg := Config{
				Ranks:          2,
				Algorithm:      tc.algo,
				Scheme:         SchemeHPD,
				StepSize:       tc.stepSize,
				Seed:           11,
				CheckpointDir:  t.TempDir(),
				checkpointKeep: -1,
			}
			squat := ckSegPath(cfg.CheckpointDir, 2, 1)
			if err := os.MkdirAll(filepath.Join(squat, "occupied"), 0o777); err != nil {
				t.Fatal(err)
			}
			_, err := Parallel(g, tc.t, cfg)
			if err == nil || !strings.Contains(err.Error(), "core: rank 1, step 2 (checkpoint): core: writing checkpoint segment") {
				t.Fatalf("run ended with %v, want rank 1's named segment write error at step 2", err)
			}
			if steps := manifestStepsIn(t, cfg.CheckpointDir); !slices.Equal(steps, []int64{1}) {
				t.Fatalf("committed manifests for steps %v, want step 1 alone", steps)
			}
			if err := os.RemoveAll(squat); err != nil {
				t.Fatal(err)
			}
			rcfg := cfg
			rcfg.Restore = true
			res, err := Parallel(g, tc.t, rcfg)
			if err != nil {
				t.Fatalf("restore after the failed checkpoint: %v", err)
			}
			if res.RestoredStep != 1 {
				t.Fatalf("resumed from step %d, want 1", res.RestoredStep)
			}
			if tc.algo != AlgoCurveball {
				return // edge switching at p > 1 is not replayable
			}
			ucfg := cfg
			ucfg.CheckpointDir = ""
			ref, err := Parallel(g, tc.t, ucfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.EdgeHash != ref.EdgeHash {
				t.Fatalf("restored run ends on edge hash %#x, the uninterrupted run on %#x", res.EdgeHash, ref.EdgeHash)
			}
		})
	}
}

// TestWriteSegmentWherePartitionSits: a checkpoint's image does not
// depend on where the partition sits. Two curveball rounds leave it
// carried and unordered; the segment written from the sorted list must
// equal, byte for byte, the one written after storeCarried moved the
// list into an in-memory store or into a tiered store's streamed base.
func TestWriteSegmentWherePartitionSits(t *testing.T) {
	g := testGraph(t, 16, 400, 1600)
	dir := t.TempDir()
	image := func(name, spillDir string, stored bool) []byte {
		t.Helper()
		w, err := mpi.NewWorld(1)
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		path := filepath.Join(dir, name)
		err = w.Run(func(c *mpi.Comm) error {
			e, err := bootstrap(c, graphSource(g), 0, Config{Seed: 11, Algorithm: AlgoCurveball, SpillDir: spillDir})
			if err != nil {
				return err
			}
			defer e.adj.Close()
			for range 2 {
				counts, _, err := e.stepExchange()
				if err == nil {
					err = e.beginStep(1, counts)
				}
				if err == nil {
					err = e.stepLoop()
				}
				if err == nil {
					err = e.checkStepInvariants()
				}
				if err != nil {
					return err
				}
			}
			if slices.IsSortedFunc(e.carried, func(a, b slotEdge) int { return cmp.Or(cmp.Compare(a.slot, b.slot), cmp.Compare(a.v, b.v)) }) {
				return errors.New("the rounds left the carried list sorted")
			}
			if e.carried, err = e.sortSlotEdges(e.carried, e.spare, false); err != nil {
				return err
			}
			if stored {
				if err := e.storeCarried(); err != nil {
					return err
				}
				if len(e.carried) != 0 || e.deg.Total() == 0 {
					return fmt.Errorf("storeCarried left %d entries carried, %d stored", len(e.carried), e.deg.Total())
				}
			}
			_, _, err = e.writeSegment(path)
			return err
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	carried := image("carried.seg", "", false)
	mem := image("mem.seg", "", true)
	tiered := image("tiered.seg", t.TempDir(), true)
	if !bytes.Equal(carried, mem) || !bytes.Equal(carried, tiered) {
		t.Fatalf("segment images differ: carried %d B, in-memory store %d B, tiered store %d B", len(carried), len(mem), len(tiered))
	}
}

// testManifest is a 3-rank manifest whose RNG state words lie above
// 2^53, where a float64 JSON decoder would round them.
func testManifest() *ckManifest {
	man := &ckManifest{
		Step: 7, Size: 3, N: 80, M: 320, Seed: 1<<63 + 5,
		Algorithm: string(AlgoCurveball), Scheme: string(SchemeHPD),
		StepSize: 1, DegreeCRC: 0xfeedc0de,
	}
	for r := range man.Size {
		man.Ranks = append(man.Ranks, ckRankRecord{
			SegSize: 4711 + int64(r), SegCRC: 0xc0ffee00 + uint32(r),
			RNG:    [4]uint64{1<<53 + 1, 1<<63 | uint64(r), math.MaxUint64, 0x9e3779b97f4a7c15},
			Cursor: 1<<60 + 3, InitialEdges: 100, Originals: 90,
			Ops: 17, Restarts: 2, Forfeited: 1, Messages: 40, Flushes: 9,
		})
	}
	return man
}

// TestManifestRoundTrip pins the manifest codec: every field, RNG state
// words above 2^53 included, survives encode/decode exactly; a flipped
// byte inside a rank's record fails the CRC32C seal and a truncated file
// fails to parse, each by name; a manifest with the wrong number of rank
// records is refused; and an intact version-1 manifest is refused by
// version.
func TestManifestRoundTrip(t *testing.T) {
	man := testManifest()
	data, err := encodeManifest(man)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeManifest(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, man) {
		t.Fatalf("manifest did not round-trip:\n got %+v\nwant %+v", got, man)
	}

	path := filepath.Join(t.TempDir(), "m.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	flipRankRecord(t, path, 2)
	flipped, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		data []byte
		want string
	}{
		{"flipped", flipped, "checkpoint manifest CRC mismatch"},
		{"truncated", data[:len(data)/2], "checkpoint manifest does not parse"},
		{"empty", nil, "checkpoint manifest does not parse"},
		{"version 1", []byte(`{"version":1,"step":7,"size":1,"rank_crcs":[1],"degree_crc":2}`), "checkpoint manifest version 1, this binary reads 2"},
	} {
		if _, err := decodeManifest(tc.data); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s manifest: got %v, want %q", tc.name, err, tc.want)
		}
	}

	short := testManifest()
	short.Ranks = short.Ranks[:2]
	if data, err = encodeManifest(short); err != nil {
		t.Fatal(err)
	}
	if _, err := decodeManifest(data); err == nil || !strings.Contains(err.Error(), "2 rank records for a world of 3") {
		t.Fatalf("short manifest: got %v", err)
	}
}

// FuzzDecodeSnapshot fuzzes the manifest decoder, a checkpoint's one
// record: any bytes decode to a manifest or a named error. Each input
// also fills every numeric field of a manifest, which resealed (encoded
// with a valid CRC) must decode to itself.
func FuzzDecodeSnapshot(f *testing.F) {
	valid, err := encodeManifest(testManifest())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte(`{"version":1,"step":7,"size":1,"rank_crcs":[1],"degree_crc":2}`))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if man, err := decodeManifest(data); err != nil && !strings.HasPrefix(err.Error(), "core: checkpoint manifest ") {
			t.Fatalf("unnamed refusal: %v", err)
		} else if err == nil && (man.Size < 1 || len(man.Ranks) != man.Size) {
			t.Fatalf("decoded %d rank records for a world of %d", len(man.Ranks), man.Size)
		}

		off := 0
		word := func() uint64 {
			var b [8]byte
			for i := range b {
				if off < len(data) {
					b[i] = data[off]
				}
				off++
			}
			return binary.LittleEndian.Uint64(b[:])
		}
		man := testManifest()
		man.Step, man.N, man.M, man.Seed = int64(word()), int(word()), int64(word()), word()
		man.StepSize, man.DegreeCRC = int64(word()), uint32(word())
		for r := range man.Ranks {
			rec := &man.Ranks[r]
			rec.SegSize, rec.SegCRC = int64(word()), uint32(word())
			rec.RNG = [4]uint64{word(), word(), word(), word()}
			rec.Cursor, rec.InitialEdges, rec.Originals = word(), int64(word()), int64(word())
			rec.Ops, rec.Restarts, rec.Forfeited = int64(word()), int64(word()), int64(word())
			rec.Messages, rec.Flushes = int64(word()), int64(word())
		}
		sealed, err := encodeManifest(man)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := decodeManifest(sealed); err != nil || !reflect.DeepEqual(got, man) {
			t.Fatalf("resealed manifest: got %+v, %v; want %+v", got, err, man)
		}
	})
}

// TestCheckpointGCCutoff drives gc directly: snapshot deletion must key
// on the retention cutoff, not on still seeing the step's manifest —
// rank 0 unlinks expired manifests concurrently with the peers' own
// directory listings, so a manifest-keyed GC orphans the losing peer's
// segment forever. A segment below the cutoff goes even when its
// manifest is already gone.
func TestCheckpointGCCutoff(t *testing.T) {
	w, err := mpi.NewWorld(1)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	dir := t.TempDir()
	for _, step := range []int64{3, 4, 5} {
		if err := os.WriteFile(ckManifestPath(dir, step), []byte("{}"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// Segments for steps 1..5; steps 1 and 2 have no manifest (step 1
	// mimics the orphan a lost race leaves, step 2 a crashed commit).
	for _, step := range []int64{1, 2, 3, 4, 5} {
		if err := os.WriteFile(ckSegPath(dir, step, 0), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// A peer's segment is never this rank's to collect.
	if err := os.WriteFile(ckSegPath(dir, 1, 1), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(c *mpi.Comm) error {
		ck := &checkpointer{c: c, dir: dir, keep: 2}
		ck.gc(5)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	want := []string{
		filepath.Base(ckManifestPath(dir, 4)),
		filepath.Base(ckManifestPath(dir, 5)),
		filepath.Base(ckSegPath(dir, 1, 1)),
		filepath.Base(ckSegPath(dir, 4, 0)),
		filepath.Base(ckSegPath(dir, 5, 0)),
	}
	sort.Strings(names)
	sort.Strings(want)
	if len(names) != len(want) {
		t.Fatalf("after gc: %v, want %v", names, want)
	}
	for i := range names {
		if names[i] != want[i] {
			t.Fatalf("after gc: %v, want %v", names, want)
		}
	}
}

// TestCheckpointGCBoundsDirectory: after a multi-rank run with the
// default retention, the directory holds exactly the last two
// checkpoints — keep×1 manifests and keep×ranks segments, nothing else —
// with no stragglers from earlier boundaries.
func TestCheckpointGCBoundsDirectory(t *testing.T) {
	g := testGraph(t, 13, 200, 600)
	dir := t.TempDir()
	_, err := Parallel(g, 6, Config{
		Ranks:         2,
		Algorithm:     AlgoCurveball,
		Seed:          3,
		CheckpointDir: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	count := map[string]int{}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
		count[filepath.Ext(e.Name())]++
	}
	if len(names) != 6 || count[".json"] != 2 || count[".seg"] != 4 {
		t.Fatalf("retention window violated: %v: %v", count, names)
	}
}
