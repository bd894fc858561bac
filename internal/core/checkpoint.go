package core

import (
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"edgeswitch/internal/graph"
	"edgeswitch/internal/mpi"
	"edgeswitch/internal/store"
)

// The checkpoint protocol (DESIGN.md §6). At a step boundary the engine
// is a closed system — the message plane is empty, the randomizer is
// quiesced (asserted by checkStepInvariants) and the sanitizer's degree
// deltas are folded into the exchange — so a rank's resumable state is
// its partition, its RNG position, the randomizer's cursor and a handful
// of counters. Every rank writes its partition as a segment file
// (writeSegment: the store's lists or the carried list's groups, in slot
// order), all ranks allreduce the global degree
// vector and checksum it (the sanitizer's baseline doubling as the
// restore integrity check), and each rank sends rank 0 its record — the
// segment's size and CRC32C, RNG state, cursor and counters — or a
// refusal when its write failed. Only when every rank sent a record does
// rank 0 write the manifest (tmp + fsync + rename), the one commit
// record. A verdict broadcast follows before garbage collection, so a
// crash at any point leaves the previous manifest and its segments
// untouched and restorable. Treap priorities are not captured: uniform
// selection is by key order (Fenwick prefix + Kth), so priorities shape
// only a treap's internal form; a restore hands the segment's entries to
// the randomizer like any bootstrap (finishLoad), then overwrites the run
// RNG with the captured position.
//
// Restore runs the protocol backwards: each rank scans the directory for
// manifests matching the run's identity, opens the segment its record
// names with a full content hash, and contributes the newest step it can
// restore to an OpMin allreduce — the rollback collective. The agreed
// step is restored everywhere (0 means no common checkpoint: bootstrap
// fresh), and the restored world re-derives the degree-vector checksum
// and compares it to the manifest before switching resumes.

// ckManifestVersion versions the manifest file; another version is
// refused before anything else in the file is read.
const ckManifestVersion = 2

// ckManifest is the commit record of one checkpoint, written by rank 0:
// the run identity a restore must match, the CRC32C of the global degree
// vector, and one record per rank.
type ckManifest struct {
	Step      int64          `json:"step"`
	Size      int            `json:"size"`
	N         int            `json:"n"`
	M         int64          `json:"m"`
	Seed      uint64         `json:"seed"`
	Algorithm string         `json:"algorithm"`
	Scheme    string         `json:"scheme"`
	StepSize  int64          `json:"step_size"`
	DegreeCRC uint32         `json:"degree_crc"`
	Ranks     []ckRankRecord `json:"ranks"`
}

// ckRankRecord is one rank's resumable state: the segment file holding
// its partition, named by content, its run-RNG state and randomizer
// cursor, its initial-edge and originals counts, and its run counters.
type ckRankRecord struct {
	SegSize      int64     `json:"seg_size"`
	SegCRC       uint32    `json:"seg_crc"`
	RNG          [4]uint64 `json:"rng"`
	Cursor       uint64    `json:"cursor"`
	InitialEdges int64     `json:"initial_edges"`
	Originals    int64     `json:"originals"`
	Ops          int64     `json:"ops"`
	Restarts     int64     `json:"restarts"`
	Forfeited    int64     `json:"forfeited"`
	Messages     int64     `json:"messages"`
	Flushes      int64     `json:"flushes"`
}

// ckEnvelope is the manifest file: the version, then the manifest sealed
// by the CRC32C of its exact bytes.
type ckEnvelope struct {
	Version  int             `json:"version"`
	CRC32C   uint32          `json:"crc32c"`
	Manifest json.RawMessage `json:"manifest"`
}

// castagnoli is the CRC32C table of the manifest seal and the degree
// checksum.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// encodeManifest seals man into a manifest file.
func encodeManifest(man *ckManifest) ([]byte, error) {
	body, err := json.Marshal(man)
	if err != nil {
		return nil, err
	}
	return json.Marshal(ckEnvelope{Version: ckManifestVersion, CRC32C: crc32.Checksum(body, castagnoli), Manifest: body})
}

// decodeManifest checks a manifest file's version and CRC32C before it
// decodes the manifest, which must hold one record per rank.
func decodeManifest(data []byte) (*ckManifest, error) {
	var env ckEnvelope
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, fmt.Errorf("core: checkpoint manifest does not parse: %w", err)
	}
	if env.Version != ckManifestVersion {
		return nil, fmt.Errorf("core: checkpoint manifest version %d, this binary reads %d", env.Version, ckManifestVersion)
	}
	if got := crc32.Checksum(env.Manifest, castagnoli); got != env.CRC32C {
		return nil, fmt.Errorf("core: checkpoint manifest CRC mismatch: file carries %08x, contents hash to %08x", env.CRC32C, got)
	}
	var man ckManifest
	if err := json.Unmarshal(env.Manifest, &man); err != nil {
		return nil, fmt.Errorf("core: checkpoint manifest does not parse: %w", err)
	}
	if man.Size < 1 || len(man.Ranks) != man.Size {
		return nil, fmt.Errorf("core: checkpoint manifest holds %d rank records for a world of %d", len(man.Ranks), man.Size)
	}
	return &man, nil
}

// checkpointer drives the per-boundary checkpoint protocol for one rank.
type checkpointer struct {
	c     *mpi.Comm
	dir   string
	every int64
	keep  int
	cfg   Config

	// restoredStepSize echoes the manifest's step size after a restore,
	// so runEngine can reject a resume under a different step size.
	restoredStepSize int64
}

// newCheckpointer validates the checkpoint configuration; nil (with no
// error) when checkpointing is off.
func newCheckpointer(c *mpi.Comm, cfg Config) (*checkpointer, error) {
	if cfg.CheckpointDir == "" {
		if cfg.Restore {
			return nil, fmt.Errorf("core: Restore needs Config.CheckpointDir")
		}
		return nil, nil
	}
	if cfg.CheckpointEvery < 0 {
		return nil, fmt.Errorf("core: negative CheckpointEvery %d", cfg.CheckpointEvery)
	}
	if err := os.MkdirAll(cfg.CheckpointDir, 0o777); err != nil {
		return nil, fmt.Errorf("core: creating checkpoint dir: %w", err)
	}
	ck := &checkpointer{c: c, dir: cfg.CheckpointDir, every: cfg.CheckpointEvery, keep: cfg.checkpointKeep, cfg: cfg}
	if ck.every == 0 {
		ck.every = 1
	}
	if ck.keep == 0 {
		ck.keep = 2
	}
	return ck, nil
}

func ckManifestPath(dir string, step int64) string {
	return filepath.Join(dir, fmt.Sprintf("manifest-%08d.json", step))
}

// ckSegPath names the segment file holding rank's partition at step.
func ckSegPath(dir string, step int64, rank int) string {
	return filepath.Join(dir, fmt.Sprintf("snap-%08d-rank-%04d.seg", step, rank))
}

// writeAtomic writes data next to path, fsyncs it and renames it into
// place (SegmentWriter.Finalize's rule), so neither a crash mid-write nor
// a power loss after the rename leaves a half-written or empty file under
// the final name — the manifest's presence is what "committed" means.
func writeAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o666)
	if err != nil {
		return err
	}
	if _, err = f.Write(data); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		_ = os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// degreeCRC allreduces the global degree vector (the sanitizer baseline
// computation) and checksums it — identical on every rank, recorded in
// the manifest and recomputed on restore.
func (ck *checkpointer) degreeCRC(e *rankEngine) (uint32, error) {
	glob, err := ck.c.AllreduceInt64s(e.localDegrees(), mpi.OpSum)
	if err != nil {
		return 0, err
	}
	return crc32.Checksum(mpi.Int64sToBytes(glob), castagnoli), nil
}

// save runs one checkpoint at the boundary after e.stepsRun completed
// steps: segment write, degree checksum, the record gather (the ack),
// rank-0 manifest commit, verdict broadcast, then GC of checkpoints
// older than the retention window.
func (ck *checkpointer) save(e *rankEngine, stepSize int64) error {
	step := e.stepsRun
	// A local write failure must not desert the collectives below — the
	// peers would deadlock waiting in the gather — so it rides in the
	// gather as a refusal (an empty record) and every rank aborts this
	// checkpoint together after the verdict broadcast.
	size, crc, localErr := e.writeSegment(ckSegPath(ck.dir, step, ck.c.Rank()))
	var own []byte
	if localErr != nil {
		localErr = fmt.Errorf("core: writing checkpoint segment: %w", localErr)
	} else {
		// A struct of numbers always encodes.
		own, _ = json.Marshal(ckRankRecord{
			SegSize: size, SegCRC: crc,
			RNG: e.rnd.State(), Cursor: e.rand.cursor(),
			InitialEdges: e.initialEdges, Originals: e.origLocal,
			Ops: e.opsInitiated, Restarts: e.restarts, Forfeited: e.forfeited,
			Messages: e.msgsSent, Flushes: e.flushes,
		})
	}
	degCRC, err := ck.degreeCRC(e)
	if err != nil {
		return err
	}
	records, err := ck.c.Gather(0, own)
	if err != nil {
		return err
	}
	committed := byte(1)
	if ck.c.Rank() == 0 {
		man := ckManifest{
			Step:      step,
			Size:      ck.c.Size(),
			N:         e.n,
			M:         e.m,
			Seed:      e.seed,
			Algorithm: string(ck.algo()),
			Scheme:    string(ck.scheme()),
			StepSize:  stepSize,
			DegreeCRC: degCRC,
			Ranks:     make([]ckRankRecord, len(records)),
		}
		for r, rec := range records {
			if len(rec) == 0 || json.Unmarshal(rec, &man.Ranks[r]) != nil {
				committed = 0
			}
		}
		if committed == 1 {
			data, merr := encodeManifest(&man)
			if merr == nil {
				merr = writeAtomic(ckManifestPath(ck.dir, step), data)
			}
			if merr != nil {
				committed = 0
				localErr = fmt.Errorf("core: writing checkpoint manifest: %w", merr)
			}
		}
	}
	// The verdict broadcast: every rank learns the manifest is durable
	// before anyone deletes an older checkpoint it might still need, and
	// a refusal or a manifest-write failure aborts everywhere.
	verdict, err := ck.c.Bcast(0, []byte{committed})
	if err != nil {
		return err
	}
	if len(verdict) != 1 || verdict[0] == 0 {
		if localErr != nil {
			return localErr
		}
		return fmt.Errorf("core: checkpoint at step %d aborted: %w to write its segment or the manifest", step, mpi.ErrPeerFailed)
	}
	ck.gc(step)
	return nil
}

// algo and scheme normalize the config identity recorded in manifests.
func (ck *checkpointer) algo() Algorithm {
	a, _ := ck.cfg.algorithm()
	return a
}

func (ck *checkpointer) scheme() Scheme {
	if ck.cfg.Scheme == "" {
		return SchemeCP
	}
	return ck.cfg.Scheme
}

// gc removes this rank's segment files (and, on rank 0, manifests) for
// checkpoints older than the retention window. keep < 0 retains
// everything (the restore-equivalence tests restore every boundary).
//
// Segment deletion is keyed on a step cutoff, not on manifest presence:
// rank 0 deletes expired manifests concurrently with the peers'
// directory listings, so a peer that keyed its GC on still seeing the
// manifest would orphan the segment forever whenever it lost that race.
// Anything of this rank below the oldest retained step goes, manifest or
// not — which also collects orphans left by earlier crashed runs: the
// segment pattern matches the ".seg.tmp" of an unfinished segment write,
// and rank 0 removes the ".json.tmp" manifests that writeAtomic leaves
// when it crashes between create and rename.
func (ck *checkpointer) gc(latest int64) {
	if ck.keep < 0 {
		return
	}
	steps := ck.manifestSteps()
	cutoff := int64(-1)
	kept := 0
	for i := len(steps) - 1; i >= 0; i-- {
		s := steps[i]
		if s > latest {
			continue
		}
		kept++
		if kept <= ck.keep {
			cutoff = s
			continue
		}
		if ck.c.Rank() == 0 {
			// Best effort: a GC failure must never fail the run.
			_ = os.Remove(ckManifestPath(ck.dir, s))
		}
	}
	if cutoff < 0 {
		return
	}
	ents, err := os.ReadDir(ck.dir)
	if err != nil {
		return
	}
	for _, ent := range ents {
		var step int64
		var rank int
		if n, serr := fmt.Sscanf(ent.Name(), "snap-%d-rank-%d.seg", &step, &rank); n == 2 && serr == nil && rank == ck.c.Rank() && step < cutoff {
			_ = os.Remove(filepath.Join(ck.dir, ent.Name()))
		} else if step, tmp, ok := manifestStep(ent.Name()); ok && tmp && step < cutoff && ck.c.Rank() == 0 {
			_ = os.Remove(filepath.Join(ck.dir, ent.Name()))
		}
	}
}

// manifestStep parses a manifest file name exactly (ckManifestPath's
// form), reporting whether it is a writeAtomic leftover (".tmp") rather
// than a committed manifest. Sscanf alone ignores trailing text, which
// would count "manifest-00000003.json.tmp" as committed step 3.
func manifestStep(name string) (step int64, tmp, ok bool) {
	base, tmp := strings.CutSuffix(name, ".tmp")
	if _, err := fmt.Sscanf(base, "manifest-%d.json", &step); err != nil || base != filepath.Base(ckManifestPath("", step)) {
		return 0, false, false
	}
	return step, tmp, true
}

// manifestSteps lists the steps of all committed manifests, ascending.
func (ck *checkpointer) manifestSteps() []int64 {
	ents, err := os.ReadDir(ck.dir)
	if err != nil {
		return nil
	}
	var steps []int64
	for _, ent := range ents {
		if step, tmp, ok := manifestStep(ent.Name()); ok && !tmp {
			steps = append(steps, step)
		}
	}
	sort.Slice(steps, func(i, j int) bool { return steps[i] < steps[j] })
	return steps
}

// loadManifest reads and decodes one committed manifest and checks it
// against the run identity (world size, algorithm, scheme, seed). An
// identity mismatch is not an error — the directory may hold another
// run's checkpoints — it just makes the step non-restorable.
func (ck *checkpointer) loadManifest(step int64) (*ckManifest, error) {
	data, err := os.ReadFile(ckManifestPath(ck.dir, step))
	if err != nil {
		return nil, err
	}
	man, err := decodeManifest(data)
	if err != nil {
		return nil, err
	}
	if man.Step != step || man.Size != ck.c.Size() || man.Seed != ck.cfg.Seed ||
		Algorithm(man.Algorithm) != ck.algo() || Scheme(man.Scheme) != ck.scheme() {
		return nil, fmt.Errorf("core: checkpoint manifest for step %d belongs to a different run (step %d, size %d, seed %d, %s/%s)",
			step, man.Step, man.Size, man.Seed, man.Algorithm, man.Scheme)
	}
	return man, nil
}

// openStep loads the manifest of step and opens this rank's segment file
// with a full content hash (store.OpenSegment), checking it is the file
// the manifest's record names (size + CRC32C) with one list per owned
// vertex (nv). A damaged file thus makes the step non-restorable (or, for
// an exact restoreStep request, an actionable error) rather than failing
// mid-restore. The caller closes the segment.
func (ck *checkpointer) openStep(step int64, nv int) (*ckManifest, *store.Segment, error) {
	man, err := ck.loadManifest(step)
	if err != nil {
		return nil, nil, err
	}
	rec := &man.Ranks[ck.c.Rank()]
	path := ckSegPath(ck.dir, step, ck.c.Rank())
	seg, err := store.OpenSegment(path)
	if err != nil {
		return nil, nil, err
	}
	if seg.CRC() != rec.SegCRC || seg.Size() != rec.SegSize || seg.NV() != nv {
		_ = seg.Close()
		return nil, nil, fmt.Errorf("core: checkpoint segment %s is (crc %08x, %d bytes, %d slots), the manifest's snapshot recorded (crc %08x, %d bytes) for %d owned vertices",
			path, seg.CRC(), seg.Size(), seg.NV(), rec.SegCRC, rec.SegSize, nv)
	}
	return man, seg, nil
}

// agreeRestoreStep is the rollback collective: each rank offers the
// newest step it can restore (or the exact cfg.restoreStep) and the
// world agrees on the minimum, so every rank restores the same boundary.
// It returns the agreed manifest with this rank's segment, verified and
// open: the one offered when the world agreed on it, else the agreed
// older step's, opened once. Step 0 means at least one rank has no usable
// checkpoint: the world bootstraps fresh (nil manifest). nv is the rank's
// owned vertex count.
func (ck *checkpointer) agreeRestoreStep(nv int) (*ckManifest, *store.Segment, error) {
	var local int64
	var man *ckManifest
	var seg *store.Segment
	var firstErr error
	steps := []int64{ck.cfg.restoreStep}
	if ck.cfg.restoreStep <= 0 {
		steps = ck.manifestSteps()
	}
	for i := len(steps) - 1; i >= 0 && seg == nil; i-- {
		var err error
		if man, seg, err = ck.openStep(steps[i], nv); err == nil {
			local = steps[i]
		} else if firstErr == nil {
			firstErr = err
		}
	}
	agreed, err := ck.c.AllreduceInt64s([]int64{local}, mpi.OpMin)
	if seg != nil && (err != nil || agreed[0] != local) {
		_ = seg.Close()
		seg = nil
	}
	if err != nil {
		return nil, nil, err
	}
	step := agreed[0]
	if step == 0 {
		if ck.cfg.restoreStep > 0 {
			// An exact-step restore that cannot be honored is an error, not
			// a silent fresh start; report why this rank (or a peer)
			// rejected it.
			if firstErr == nil {
				firstErr = fmt.Errorf("%w to restore it", mpi.ErrPeerFailed)
			}
			return nil, nil, fmt.Errorf("core: rank %d cannot restore requested checkpoint step %d: %w", ck.c.Rank(), ck.cfg.restoreStep, firstErr)
		}
		return nil, nil, nil
	}
	if seg == nil {
		if man, seg, err = ck.openStep(step, nv); err != nil {
			return nil, nil, fmt.Errorf("core: rank %d lost checkpoint step %d after agreeing on it: %w", ck.c.Rank(), step, err)
		}
	}
	return man, seg, nil
}

// restore loads the agreed checkpoint into the empty engine e. It reports
// false when the world agreed there is nothing to restore — the caller
// bootstraps fresh. m is the source's edge count, or -1 to trust the
// manifest's. The partition is sorted and handed to the randomizer like
// any bootstrap's (finishLoad); the edge switcher's store build draws
// from e.rnd, which is then set to the captured position. The restored
// world re-derives the global degree checksum, carried entries included,
// and compares it to the manifest: the sanitizer's degree baseline
// doubling as the restore integrity check.
func (ck *checkpointer) restore(e *rankEngine, m int64, cfg Config) (bool, error) {
	man, seg, err := ck.agreeRestoreStep(len(e.verts))
	if err != nil || man == nil {
		return false, err
	}
	ents, err := ck.readSegment(e, man.Step, seg)
	if err != nil {
		return false, err
	}
	step := man.Step
	if man.N != e.n {
		return false, fmt.Errorf("core: checkpoint step %d is for %d vertices, this run has %d", step, man.N, e.n)
	}
	if m >= 0 && man.M != m {
		return false, fmt.Errorf("core: checkpoint step %d is for %d edges, this run has %d", step, man.M, m)
	}
	if ents, err = e.sortSlotEdges(ents, nil, false); err != nil {
		return false, err
	}
	if err := e.finishLoad(man.M, ents, cfg); err != nil {
		return false, err
	}
	// finishLoad derived load-time values from the restored partition;
	// reinstate the captured run state on top of it.
	rec := &man.Ranks[ck.c.Rank()]
	if e.origLocal != rec.Originals {
		return false, fmt.Errorf("core: restored partition holds %d originals, the manifest's snapshot recorded %d", e.origLocal, rec.Originals)
	}
	e.initialEdges = rec.InitialEdges
	e.stepsRun, e.restoredStep = step, step
	e.opsInitiated, e.restarts, e.forfeited, e.msgsSent = rec.Ops, rec.Restarts, rec.Forfeited, rec.Messages
	e.flushes = rec.Flushes
	if err := e.rnd.SetState(rec.RNG); err != nil {
		return false, err
	}
	e.rand.restoreCursor(rec.Cursor)
	// Every rank verified its manifest and segment in openStep() before
	// the step was agreed, so the per-rank load and decode error paths
	// above fire only on a corruption race, where the whole restore is
	// abandoned anyway.
	degCRC, err := ck.degreeCRC(e)
	if err != nil {
		return false, err
	}
	if degCRC != man.DegreeCRC {
		return false, fmt.Errorf("core: rank %d restore of step %d: restored global degree sequence hashes to %08x, manifest recorded %08x — the checkpoint set is inconsistent (mixed steps or corrupted segments); delete step %d under %s and restore an earlier step",
			ck.c.Rank(), step, degCRC, man.DegreeCRC, step, ck.dir)
	}
	ck.restoredStepSize = man.StepSize
	return true, nil
}

// readSegment decodes this rank's open segment of step into the bulk
// loader's entries for e's slots, and closes it.
func (ck *checkpointer) readSegment(e *rankEngine, step int64, seg *store.Segment) ([]slotEdge, error) {
	defer seg.Close()
	var ents []slotEdge
	for li, u := range e.verts {
		slot := int32(li)
		if _, err := graph.WalkAdjSetBytes(seg.List(li), u, func(v graph.Vertex, orig bool) bool {
			ents = append(ents, slotEdge{slot: slot, v: v, orig: orig})
			return true
		}); err != nil {
			return nil, fmt.Errorf("core: checkpoint segment of step %d, slot %d: %w", step, li, err)
		}
	}
	return ents, nil
}
