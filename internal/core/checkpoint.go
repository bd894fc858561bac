package core

import (
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"

	"edgeswitch/internal/graph"
	"edgeswitch/internal/mpi"
	"edgeswitch/internal/store"
)

// The checkpoint protocol (DESIGN.md §6): at a step boundary every rank
// saves its partition as a segment file and writes a fixed-size snapshot
// naming it (both tmp + fsync + rename, CRC32C trailers), all ranks
// allreduce the global degree vector and checksum it (the
// sanitizer's degree baseline doing double duty as the restore integrity
// check), every rank's snapshot CRC is allgathered — the "all ranks ack" —
// and only then does rank 0 write the manifest (tmp + rename). A commit
// broadcast follows before garbage collection, so a crash at any point
// leaves the previous manifest and its files untouched and restorable.
//
// Restore runs the protocol backwards: each rank scans the directory for
// manifests matching the run's identity, verifies its own file against
// the manifest's recorded CRC, and contributes the newest step it can
// restore to an OpMin allreduce — the rollback collective. The agreed
// step is restored everywhere (0 means no common checkpoint: bootstrap
// fresh), and the restored world re-derives the degree-vector checksum
// and compares it to the manifest before switching resumes.

// ckManifestVersion versions the manifest schema.
const ckManifestVersion = 1

// ckManifest is the rank-0-written commit record of one checkpoint: the
// run identity a restore must match, the per-rank snapshot CRCs acked by
// the allgather, and the CRC32C of the global degree vector.
type ckManifest struct {
	Version   int      `json:"version"`
	Step      int64    `json:"step"`
	Size      int      `json:"size"`
	N         int      `json:"n"`
	M         int64    `json:"m"`
	Seed      uint64   `json:"seed"`
	Algorithm string   `json:"algorithm"`
	Scheme    string   `json:"scheme"`
	StepSize  int64    `json:"step_size"`
	RankCRCs  []uint32 `json:"rank_crcs"`
	DegreeCRC uint32   `json:"degree_crc"`
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

func ckSnapPath(dir string, step int64, rank int) string {
	return filepath.Join(dir, fmt.Sprintf("snap-%08d-rank-%04d.ck", step, rank))
}

// ckSegPath names the segment file holding the partition a snapshot
// describes. The .seg suffix keeps it clear of the Sscanf patterns
// matching .ck snapshots and manifests.
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
// steps: segment + snapshot write, degree checksum, CRC allgather (the ack),
// rank-0 manifest commit, commit broadcast, then GC of checkpoints
// older than the retention window.
func (ck *checkpointer) save(e *rankEngine, stepSize int64) error {
	step := e.stepsRun
	// A local write failure must not desert the collectives below — the
	// peers would deadlock waiting in the allgather — so it rides in the
	// ack (a status byte ahead of the CRC) and every rank aborts this
	// checkpoint together after the commit broadcast.
	size, crc, localErr := e.adj.SaveSegment(ckSegPath(ck.dir, step, ck.c.Rank()))
	if localErr != nil {
		localErr = fmt.Errorf("core: writing checkpoint segment: %w", localErr)
	}
	snap := e.encodeSnapshot(segIdentity{size: size, crc: crc})
	var own [5]byte
	own[0] = 1
	putU32(own[1:], getU32(snap[snapLen-4:]))
	if localErr == nil {
		if werr := writeAtomic(ckSnapPath(ck.dir, step, ck.c.Rank()), snap); werr != nil {
			localErr = fmt.Errorf("core: writing checkpoint snapshot: %w", werr)
		}
	}
	if localErr != nil {
		own[0] = 0
	}
	degCRC, err := ck.degreeCRC(e)
	if err != nil {
		return err
	}
	acks, err := ck.c.Allgather(own[:])
	if err != nil {
		return err
	}
	committed := byte(1)
	for _, ack := range acks {
		if len(ack) != 5 || ack[0] == 0 {
			committed = 0
		}
	}
	if committed == 1 && ck.c.Rank() == 0 {
		man := ckManifest{
			Version:   ckManifestVersion,
			Step:      step,
			Size:      ck.c.Size(),
			N:         e.n,
			M:         e.m,
			Seed:      e.seed,
			Algorithm: string(ck.algo()),
			Scheme:    string(ck.scheme()),
			StepSize:  stepSize,
			RankCRCs:  make([]uint32, len(acks)),
			DegreeCRC: degCRC,
		}
		for r, ack := range acks {
			man.RankCRCs[r] = getU32(ack[1:])
		}
		data, merr := json.MarshalIndent(&man, "", "  ")
		if merr == nil {
			merr = writeAtomic(ckManifestPath(ck.dir, step), data)
		}
		if merr != nil {
			committed = 0
			localErr = fmt.Errorf("core: writing checkpoint manifest: %w", merr)
		}
	}
	// The commit broadcast carries rank 0's verdict: every rank learns the
	// manifest is durable before anyone deletes an older checkpoint it
	// might still need, and a manifest-write failure aborts everywhere.
	verdict, err := ck.c.Bcast(0, []byte{committed})
	if err != nil {
		return err
	}
	if len(verdict) != 1 || verdict[0] == 0 {
		if localErr != nil {
			return localErr
		}
		return fmt.Errorf("core: checkpoint at step %d aborted: a peer rank failed to write its snapshot or the manifest", step)
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

// gc removes this rank's snapshot files (and, on rank 0, manifests) for
// checkpoints older than the retention window. keep < 0 retains
// everything (the restore-equivalence tests restore every boundary).
//
// Snapshot deletion is keyed on a step cutoff, not on manifest
// presence: rank 0 deletes expired manifests concurrently with the
// peers' directory listings, so a peer that keyed its snapshot GC on
// still seeing the manifest would orphan the snapshot forever whenever
// it lost that race. Anything of this rank below the oldest retained
// step goes, manifest or not — which also collects orphans left by
// earlier crashed runs.
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
		// Two passes over the name: the literal suffix makes each Sscanf
		// reject the other kind (n == 2 but serr != nil on a suffix
		// mismatch), so .ck snapshots and .seg segments GC separately.
		if n, serr := fmt.Sscanf(ent.Name(), "snap-%d-rank-%d.ck", &step, &rank); n == 2 && serr == nil && rank == ck.c.Rank() && step < cutoff {
			_ = os.Remove(filepath.Join(ck.dir, ent.Name()))
			continue
		}
		if n, serr := fmt.Sscanf(ent.Name(), "snap-%d-rank-%d.seg", &step, &rank); n == 2 && serr == nil && rank == ck.c.Rank() && step < cutoff {
			_ = os.Remove(filepath.Join(ck.dir, ent.Name()))
		}
	}
}

// manifestSteps lists the steps of all committed manifests, ascending.
func (ck *checkpointer) manifestSteps() []int64 {
	ents, err := os.ReadDir(ck.dir)
	if err != nil {
		return nil
	}
	var steps []int64
	for _, ent := range ents {
		var step int64
		if n, err := fmt.Sscanf(ent.Name(), "manifest-%d.json", &step); n == 1 && err == nil {
			steps = append(steps, step)
		}
	}
	sort.Slice(steps, func(i, j int) bool { return steps[i] < steps[j] })
	return steps
}

// loadManifest reads and validates one committed manifest against the
// run identity (world size, algorithm, scheme, seed). An identity
// mismatch is not an error — the directory may hold another run's
// checkpoints — it just makes the step non-restorable.
func (ck *checkpointer) loadManifest(step int64) (*ckManifest, error) {
	data, err := os.ReadFile(ckManifestPath(ck.dir, step))
	if err != nil {
		return nil, err
	}
	var man ckManifest
	if err := json.Unmarshal(data, &man); err != nil {
		return nil, fmt.Errorf("core: parsing checkpoint manifest for step %d: %w", step, err)
	}
	if man.Version != ckManifestVersion {
		return nil, fmt.Errorf("core: checkpoint manifest version %d, this binary reads %d", man.Version, ckManifestVersion)
	}
	if man.Size != ck.c.Size() || man.Seed != ck.cfg.Seed ||
		Algorithm(man.Algorithm) != ck.algo() || Scheme(man.Scheme) != ck.scheme() ||
		len(man.RankCRCs) != man.Size {
		return nil, fmt.Errorf("core: checkpoint manifest for step %d belongs to a different run (size %d, seed %d, %s/%s)",
			step, man.Size, man.Seed, man.Algorithm, man.Scheme)
	}
	return &man, nil
}

// restorable reports whether this rank can restore the given manifest:
// its own snapshot file exists, decodes (length, magic, CRC32C trailer,
// version), matches the CRC the manifest recorded at commit time, and
// names a segment file that opens — every byte hashed — as the one
// recorded. A damaged file thus makes the step non-restorable (or, for an
// exact restoreStep request, an actionable error) rather than failing
// mid-restore.
func (ck *checkpointer) restorable(man *ckManifest) (*snapState, error) {
	data, err := os.ReadFile(ckSnapPath(ck.dir, man.Step, ck.c.Rank()))
	if err != nil {
		return nil, err
	}
	st, err := decodeSnapshot(data)
	if err != nil {
		return nil, err
	}
	if crc := getU32(data[snapLen-4:]); crc != man.RankCRCs[ck.c.Rank()] {
		return nil, fmt.Errorf("core: rank %d snapshot for step %d carries CRC %08x, manifest recorded %08x — the file does not belong to this checkpoint; delete it and restore an earlier step",
			ck.c.Rank(), man.Step, crc, man.RankCRCs[ck.c.Rank()])
	}
	seg, err := ck.openSegment(st)
	if err != nil {
		return nil, err
	}
	return st, seg.Close()
}

// openSegment opens the segment file of a decoded snapshot with a full
// content hash (store.OpenSegment) and checks it is the file the snapshot
// names (size + CRC32C) with one list per owned vertex.
func (ck *checkpointer) openSegment(st *snapState) (*store.Segment, error) {
	path := ckSegPath(ck.dir, st.step, ck.c.Rank())
	seg, err := store.OpenSegment(path)
	if err != nil {
		return nil, err
	}
	if seg.CRC() != st.seg.crc || seg.Size() != st.seg.size || seg.NV() != st.nv {
		_ = seg.Close()
		return nil, fmt.Errorf("core: checkpoint segment %s is (crc %08x, %d bytes, %d slots), snapshot recorded (crc %08x, %d bytes, %d slots)",
			path, seg.CRC(), seg.Size(), seg.NV(), st.seg.crc, st.seg.size, st.nv)
	}
	return seg, nil
}

// agreeRestoreStep is the rollback collective: each rank offers the
// newest step it can restore (or the exact cfg.restoreStep) and the
// world agrees on the minimum, so every rank restores the same boundary.
// Step 0 means at least one rank has no usable checkpoint: the world
// bootstraps fresh. The agreed step's manifest and this rank's decoded
// snapshot are returned.
func (ck *checkpointer) agreeRestoreStep() (*ckManifest, *snapState, error) {
	var local int64
	var firstErr error
	steps := []int64{ck.cfg.restoreStep}
	if ck.cfg.restoreStep <= 0 {
		steps = ck.manifestSteps()
	}
	for i := len(steps) - 1; i >= 0 && local == 0; i-- {
		man, err := ck.loadManifest(steps[i])
		if err == nil {
			_, err = ck.restorable(man)
		}
		if err == nil {
			local = steps[i]
		} else if firstErr == nil {
			firstErr = err
		}
	}
	agreed, err := ck.c.AllreduceInt64s([]int64{local}, mpi.OpMin)
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
				firstErr = fmt.Errorf("a peer rank could not restore it")
			}
			return nil, nil, fmt.Errorf("core: rank %d cannot restore requested checkpoint step %d: %w", ck.c.Rank(), ck.cfg.restoreStep, firstErr)
		}
		return nil, nil, nil
	}
	man, err := ck.loadManifest(step)
	if err != nil {
		return nil, nil, fmt.Errorf("core: rank %d lost checkpoint manifest for agreed step %d: %w", ck.c.Rank(), step, err)
	}
	st, err := ck.restorable(man)
	if err != nil {
		return nil, nil, fmt.Errorf("core: rank %d lost checkpoint snapshot for agreed step %d: %w", ck.c.Rank(), step, err)
	}
	return man, st, nil
}

// restore loads the agreed checkpoint into the empty engine e. It reports
// false when the world agreed there is nothing to restore — the caller
// bootstraps fresh. m is the source's edge count, or -1 to trust the
// manifest's. The partition goes through loadSlotEdges like any bootstrap
// (a tiered store streams it into its first base, so its overlay budget
// resolves from the true entry count); the loader's priority draws move
// e.rnd, which is then set to the captured position. The restored world
// re-derives the global degree checksum and compares it to the manifest:
// the sanitizer's degree baseline doubling as the restore integrity check.
func (ck *checkpointer) restore(e *rankEngine, m int64, cfg Config) (bool, error) {
	man, st, err := ck.agreeRestoreStep()
	if err != nil || man == nil {
		return false, err
	}
	step := man.Step
	if man.N != e.n {
		return false, fmt.Errorf("core: checkpoint step %d is for %d vertices, this run has %d", step, man.N, e.n)
	}
	if m >= 0 && man.M != m {
		return false, fmt.Errorf("core: checkpoint step %d is for %d edges, this run has %d", step, man.M, m)
	}
	if err := e.validateSnapshot(st, ck.algo()); err != nil {
		return false, err
	}
	if st.m != man.M || st.step != step {
		return false, fmt.Errorf("core: snapshot for step %d disagrees with its manifest (m %d vs %d, step %d)", step, st.m, man.M, st.step)
	}
	ents, err := ck.readSegment(e, st)
	if err != nil {
		return false, err
	}
	if err := e.loadSlotEdges(ents, false); err != nil {
		return false, err
	}
	if err := e.finishLoad(man.M, cfg); err != nil {
		return false, err
	}
	// finishLoad derived load-time values from the restored partition;
	// reinstate the captured run state on top of it.
	if e.origLocal != st.origLocal {
		return false, fmt.Errorf("core: restored partition holds %d originals, snapshot recorded %d", e.origLocal, st.origLocal)
	}
	e.initialEdges = st.initialEdges
	e.stepsRun = st.step
	e.restoredStep = st.step
	e.opsInitiated, e.restarts, e.forfeited, e.msgsSent = st.opsInitiated, st.restarts, st.forfeited, st.msgsSent
	e.flushes = st.flushes
	if err := e.rnd.SetState(st.rnd); err != nil {
		return false, err
	}
	e.rand.restoreCursor(st.cursor)
	// Every rank verified its snapshot and segment in restorable() before
	// the step was agreed, so the per-rank load and decode error paths
	// above fire only on a corruption race, where the whole restore is
	// abandoned anyway.
	// collsync: post-agreement ranks cannot routinely diverge (see above)
	degCRC, err := ck.degreeCRC(e)
	if err != nil {
		return false, err
	}
	if degCRC != man.DegreeCRC {
		return false, fmt.Errorf("core: rank %d restore of step %d: restored global degree sequence hashes to %08x, manifest recorded %08x — the checkpoint set is inconsistent (mixed steps or corrupted snapshot); delete step %d under %s and restore an earlier step",
			ck.c.Rank(), step, degCRC, man.DegreeCRC, step, ck.dir)
	}
	ck.restoredStepSize = man.StepSize
	return true, nil
}

// readSegment decodes the snapshot's segment file into the bulk loader's
// entries for e's slots.
func (ck *checkpointer) readSegment(e *rankEngine, st *snapState) ([]slotEdge, error) {
	seg, err := ck.openSegment(st)
	if err != nil {
		return nil, err
	}
	defer seg.Close()
	var ents []slotEdge
	for li, u := range e.verts {
		slot := int32(li)
		if _, err := graph.WalkAdjSetBytes(seg.List(li), u, func(v graph.Vertex, orig bool) bool {
			ents = append(ents, slotEdge{slot: slot, v: v, orig: orig})
			return true
		}); err != nil {
			return nil, fmt.Errorf("core: checkpoint segment of step %d, slot %d: %w", st.step, li, err)
		}
	}
	return ents, nil
}
