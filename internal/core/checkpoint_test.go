package core

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
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

// TestCheckpointCorruptSnapshotRejected: a flipped byte in one rank's
// snapshot must fail the restore with an actionable CRC error instead of
// resuming from corrupted state.
func TestCheckpointCorruptSnapshotRejected(t *testing.T) {
	g := testGraph(t, 9, 200, 600)
	dir, cfg, step := writeEquivalenceCheckpoints(t, g)

	snap := ckSnapPath(dir, step, 1)
	data, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(snap, data, 0o644); err != nil {
		t.Fatal(err)
	}

	cfg.Restore, cfg.restoreStep = true, step
	_, err = Parallel(g, 3, cfg)
	if err == nil {
		t.Fatal("corrupted snapshot restored")
	}
	if !strings.Contains(err.Error(), "cannot restore requested checkpoint step") {
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
	var man ckManifest
	if err := json.Unmarshal(data, &man); err != nil {
		t.Fatal(err)
	}
	man.DegreeCRC++
	if data, err = json.Marshal(&man); err != nil {
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

// TestSnapshotHeaderRoundTrip pins the binary snapshot codec at the
// engine level: every resumable field and the segment identity survive
// encode/decode, the file is exactly snapLen bytes and any other length
// is refused first, the CRC32C trailer rejects any bit flip, and a
// snapshot of an earlier format — version 1 (the 208-byte header with the
// window controller's words) or version 2 (which could embed the
// adjacency lists) — is refused by version, not misdecoded.
func TestSnapshotHeaderRoundTrip(t *testing.T) {
	g := testGraph(t, 12, 80, 320)
	eng, w := newTestEngine(t, g)
	defer w.Close()
	sw := es(t, eng)
	for i := 0; i < 5; i++ {
		if err := sw.reinsert(sw.takeRandomEdge()); err != nil {
			t.Fatal(err)
		}
	}
	eng.stepsRun = 3
	eng.opsInitiated = 17
	eng.restarts = 2
	eng.flushes = 9

	snap := eng.encodeSnapshot(segIdentity{size: 4711, crc: 0xfeedc0de})
	if len(snap) != snapLen {
		t.Fatalf("snapshot is %d bytes, want exactly %d", len(snap), snapLen)
	}
	st, err := decodeSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	if st.step != 3 || st.opsInitiated != 17 || st.restarts != 2 || st.flushes != 9 {
		t.Fatalf("counters did not round-trip: %+v", st)
	}
	if st.n != g.N() || st.m != g.M() || st.seed != eng.seed || st.nv != len(eng.verts) {
		t.Fatalf("identity did not round-trip: %+v", st)
	}
	if st.initialEdges != eng.initialEdges || st.origLocal != eng.origLocal {
		t.Fatalf("edge counters did not round-trip: %+v", st)
	}
	if st.rnd != eng.rnd.State() {
		t.Fatal("RNG state did not round-trip")
	}
	if st.cursor != eng.rand.cursor() {
		t.Fatal("randomizer cursor did not round-trip")
	}
	if st.seg != (segIdentity{size: 4711, crc: 0xfeedc0de}) {
		t.Fatalf("segment identity did not round-trip: %+v", st.seg)
	}
	if err := eng.validateSnapshot(st, AlgoEdgeSwitch); err != nil {
		t.Fatal(err)
	}
	if err := eng.validateSnapshot(st, AlgoCurveball); err == nil {
		t.Fatal("algorithm mismatch accepted")
	}

	for _, pos := range []int{6, 50, snapHeaderLen + 3, len(snap) - 2} {
		bad := append([]byte(nil), snap...)
		bad[pos] ^= 0x08
		if _, err := decodeSnapshot(bad); err == nil {
			t.Fatalf("bit flip at byte %d accepted", pos)
		}
	}
	for _, bad := range [][]byte{nil, snap[:snapLen-1], append(append([]byte(nil), snap...), 0)} {
		if _, err := decodeSnapshot(bad); err == nil || !strings.Contains(err.Error(), "is exactly 160") {
			t.Fatalf("%d-byte snapshot: got %v, want the length error", len(bad), err)
		}
	}

	// Intact files from the previous formats: old version word, CRC valid.
	for _, v := range []uint16{1, 2} {
		old := append([]byte(nil), snap[:len(snap)-4]...)
		binary.LittleEndian.PutUint16(old[4:], v)
		old = binary.LittleEndian.AppendUint32(old, crc32.Checksum(old, castagnoli))
		want := fmt.Sprintf("snapshot version %d, this binary reads 3", v)
		if _, err := decodeSnapshot(old); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("version-%d snapshot: got %v, want %q", v, err, want)
		}
	}
}

// FuzzDecodeSnapshot: any bytes decode to a snapshot or a named error.
// Each input also runs resealed (right length, magic, version and CRC
// forced valid) so the field decoding behind the checks is reached.
func FuzzDecodeSnapshot(f *testing.F) {
	g := testGraph(f, 12, 80, 320)
	eng, w := newTestEngine(f, g)
	defer w.Close()
	valid := eng.encodeSnapshot(segIdentity{size: 99, crc: 7})
	f.Add(valid)
	f.Add(valid[:snapHeaderLen])
	f.Add([]byte(snapMagic))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		resealed := make([]byte, snapLen)
		copy(resealed, data)
		copy(resealed, snapMagic)
		binary.LittleEndian.PutUint16(resealed[4:], snapVersion)
		binary.LittleEndian.PutUint32(resealed[snapLen-4:], crc32.Checksum(resealed[:snapLen-4], castagnoli))
		if _, err := decodeSnapshot(resealed); err != nil {
			t.Fatalf("resealed snapshot refused: %v", err)
		}
		if st, err := decodeSnapshot(data); err == nil && len(data) != snapLen {
			t.Fatalf("decoded a %d-byte snapshot: %+v", len(data), st)
		}
	})
}

// TestCheckpointGCCutoff drives gc directly: snapshot deletion must key
// on the retention cutoff, not on still seeing the step's manifest —
// rank 0 unlinks expired manifests concurrently with the peers' own
// directory listings, so a manifest-keyed GC orphans the losing peer's
// snapshot forever. A snapshot below the cutoff goes even when its
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
	// Snapshots for steps 1..5; steps 1 and 2 have no manifest (step 1
	// mimics the orphan a lost race leaves, step 2 a crashed commit).
	for _, step := range []int64{1, 2, 3, 4, 5} {
		if err := os.WriteFile(ckSnapPath(dir, step, 0), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// A peer's snapshot is never this rank's to collect.
	if err := os.WriteFile(ckSnapPath(dir, 1, 1), []byte("x"), 0o644); err != nil {
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
		filepath.Base(ckSnapPath(dir, 1, 1)),
		filepath.Base(ckSnapPath(dir, 4, 0)),
		filepath.Base(ckSnapPath(dir, 5, 0)),
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
// checkpoints — keep×1 manifests, keep×ranks snapshots and as many
// segments — with no stragglers from earlier boundaries.
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
	if len(names) != 10 || count[".json"] != 2 || count[".ck"] != 4 || count[".seg"] != 4 {
		t.Fatalf("retention window violated: %v: %v", count, names)
	}
}
