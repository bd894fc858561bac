package core

import (
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"

	"edgeswitch/internal/mpi"
	"edgeswitch/internal/partition"
	"edgeswitch/internal/store"
)

// The checkpoint protocol (DESIGN.md §6): at a step boundary every rank
// writes its snapshot to a per-rank file (tmp + rename, CRC32C trailer),
// all ranks allreduce the global degree vector and checksum it (the
// sanitizer's degree baseline doing double duty as the restore integrity
// check), every rank's file CRC is allgathered — the "all ranks ack" —
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
		if cfg.Restore || cfg.RestoreStep > 0 {
			return nil, fmt.Errorf("core: Restore/RestoreStep need Config.CheckpointDir")
		}
		return nil, nil
	}
	if cfg.CheckpointEvery < 0 {
		return nil, fmt.Errorf("core: negative CheckpointEvery %d", cfg.CheckpointEvery)
	}
	if err := os.MkdirAll(cfg.CheckpointDir, 0o777); err != nil {
		return nil, fmt.Errorf("core: creating checkpoint dir: %w", err)
	}
	ck := &checkpointer{c: c, dir: cfg.CheckpointDir, every: cfg.CheckpointEvery, keep: cfg.CheckpointKeep, cfg: cfg}
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

// ckSegPath names the hard-linked base segment of an external-mode
// snapshot (tiered storage, Config.SpillDir). The .seg suffix keeps it
// clear of the Sscanf patterns matching .ck snapshots and manifests.
func ckSegPath(dir string, step int64, rank int) string {
	return filepath.Join(dir, fmt.Sprintf("snap-%08d-rank-%04d.seg", step, rank))
}

// writeAtomic writes data next to path and renames it into place, so a
// crash mid-write never leaves a half-written file under the final name.
func writeAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o666); err != nil {
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
// steps: snapshot write, degree checksum, CRC allgather (the ack),
// rank-0 manifest commit, commit broadcast, then GC of checkpoints
// older than the retention window.
func (ck *checkpointer) save(e *rankEngine, stepSize int64) error {
	step := e.stepsRun
	// Tiered storage checkpoints externally: force the base segment
	// current (a no-op when the boundary's compaction already ran or the
	// overlay is clean) and hard-link it next to the snapshot — the
	// segment is immutable, so publishing it costs one directory entry,
	// not an O(|E_local|) re-encode. Failures must not desert the
	// collectives below, so they ride the ack like a snapshot-write
	// failure.
	var ext *segIdentity
	var localErr error
	if ts, ok := e.adj.(*store.Tiered); ok {
		segPath := ckSegPath(ck.dir, step, ck.c.Rank())
		if err := ts.Compact(); err != nil {
			localErr = fmt.Errorf("core: compacting for checkpoint: %w", err)
		} else if err := os.Remove(segPath); err != nil && !os.IsNotExist(err) {
			localErr = fmt.Errorf("core: clearing stale checkpoint segment: %w", err)
		} else if err := store.LinkOrCopy(ts.BasePath(), segPath); err != nil {
			localErr = fmt.Errorf("core: linking checkpoint segment: %w", err)
		} else {
			ext = &segIdentity{size: ts.BaseSize(), crc: ts.BaseCRC()}
		}
	}
	snap := e.encodeSnapshot(ext)
	crc, err := snapshotCRC(snap)
	if err != nil {
		return err
	}
	// A local write failure must not desert the collectives below — the
	// peers would deadlock waiting in the allgather — so it rides in the
	// ack (a status byte ahead of the CRC) and every rank aborts this
	// checkpoint together after the commit broadcast.
	var own [5]byte
	own[0] = 1
	putU32(own[1:], crc)
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
		// mismatch), so .ck snapshots and .seg hard links GC separately.
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
// its own snapshot file exists, passes the CRC32C trailer, and matches
// the CRC the manifest recorded at commit time.
func (ck *checkpointer) restorable(man *ckManifest) ([]byte, error) {
	data, err := os.ReadFile(ckSnapPath(ck.dir, man.Step, ck.c.Rank()))
	if err != nil {
		return nil, err
	}
	crc, err := snapshotCRC(data)
	if err != nil {
		return nil, err
	}
	if crc != man.RankCRCs[ck.c.Rank()] {
		return nil, fmt.Errorf("core: rank %d snapshot for step %d carries CRC %08x, manifest recorded %08x — the file does not belong to this checkpoint; delete it and restore an earlier step",
			ck.c.Rank(), man.Step, crc, man.RankCRCs[ck.c.Rank()])
	}
	// Full trailer + header verification up front, so a corrupted file
	// surfaces here (making the step non-restorable or, for an exact
	// RestoreStep request, an actionable error) rather than mid-restore.
	st, _, err := decodeSnapshotHeader(data)
	if err != nil {
		return nil, err
	}
	if st.storage == snapStorageExternal {
		// Cheap identity check of the hard-linked segment: size plus the
		// stored trailer CRC value. The full content verification runs at
		// restore (store.OpenSegment / AdoptSegment hash every byte).
		if err := checkSegIdentity(ckSegPath(ck.dir, man.Step, ck.c.Rank()), st.seg); err != nil {
			return nil, err
		}
	}
	return data, nil
}

// checkSegIdentity verifies that the file at path has the expected size
// and carries the expected CRC32C trailer value, without hashing it.
func checkSegIdentity(path string, id segIdentity) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return err
	}
	if fi.Size() != id.size {
		return fmt.Errorf("core: checkpoint segment %s is %d bytes, snapshot recorded %d", path, fi.Size(), id.size)
	}
	var trailer [4]byte
	if _, err := f.ReadAt(trailer[:], id.size-4); err != nil {
		return err
	}
	if got := getU32(trailer[:]); got != id.crc {
		return fmt.Errorf("core: checkpoint segment %s carries CRC %08x, snapshot recorded %08x", path, got, id.crc)
	}
	return nil
}

// agreeRestoreStep is the rollback collective: each rank offers the
// newest step it can restore (or the exact cfg.RestoreStep) and the
// world agrees on the minimum, so every rank restores the same boundary.
// Step 0 means at least one rank has no usable checkpoint: the world
// bootstraps fresh. The snapshot bytes for the agreed step are returned
// along with its manifest.
func (ck *checkpointer) agreeRestoreStep() (int64, *ckManifest, []byte, error) {
	var local int64
	var firstErr error
	if ck.cfg.RestoreStep > 0 {
		man, err := ck.loadManifest(ck.cfg.RestoreStep)
		if err == nil {
			if _, err = ck.restorable(man); err == nil {
				local = ck.cfg.RestoreStep
			}
		}
		firstErr = err
	} else {
		steps := ck.manifestSteps()
		for i := len(steps) - 1; i >= 0 && local == 0; i-- {
			man, err := ck.loadManifest(steps[i])
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
				continue
			}
			if _, err := ck.restorable(man); err != nil {
				if firstErr == nil {
					firstErr = err
				}
				continue
			}
			local = steps[i]
		}
	}
	agreed, err := ck.c.AllreduceInt64s([]int64{local}, mpi.OpMin)
	if err != nil {
		return 0, nil, nil, err
	}
	step := agreed[0]
	if step == 0 {
		if ck.cfg.RestoreStep > 0 {
			// An exact-step restore that cannot be honored is an error, not
			// a silent fresh start; report why this rank (or a peer)
			// rejected it.
			if firstErr == nil {
				firstErr = fmt.Errorf("a peer rank could not restore it")
			}
			return 0, nil, nil, fmt.Errorf("core: rank %d cannot restore requested checkpoint step %d: %w", ck.c.Rank(), ck.cfg.RestoreStep, firstErr)
		}
		return 0, nil, nil, nil
	}
	man, err := ck.loadManifest(step)
	if err != nil {
		return 0, nil, nil, fmt.Errorf("core: rank %d lost checkpoint manifest for agreed step %d: %w", ck.c.Rank(), step, err)
	}
	snap, err := ck.restorable(man)
	if err != nil {
		return 0, nil, nil, fmt.Errorf("core: rank %d lost checkpoint snapshot for agreed step %d: %w", ck.c.Rank(), step, err)
	}
	return step, man, snap, nil
}

// restoreEngine rebuilds a rank engine from the agreed checkpoint. It
// returns (nil, 0, nil) when the world agreed there is nothing to
// restore — the caller bootstraps fresh. The restored world re-derives
// the global degree checksum and compares it to the manifest: the
// sanitizer's degree baseline doubling as the restore integrity check.
func (ck *checkpointer) restoreEngine(pt partition.Partitioner, n int, m int64, cfg Config) (*rankEngine, int64, error) {
	step, man, snap, err := ck.agreeRestoreStep()
	if err != nil || step == 0 {
		return nil, 0, err
	}
	if man.N != n {
		return nil, 0, fmt.Errorf("core: checkpoint step %d is for %d vertices, this run has %d", step, man.N, n)
	}
	if m >= 0 && man.M != m {
		return nil, 0, fmt.Errorf("core: checkpoint step %d is for %d edges, this run has %d", step, man.M, m)
	}
	e, err := newEmptyRankEngine(ck.c, pt, n, cfg)
	if err != nil {
		return nil, 0, err
	}
	st, adjData, err := decodeSnapshotHeader(snap)
	if err != nil {
		return nil, 0, err
	}
	if err := e.validateSnapshot(st, ck.algo()); err != nil {
		return nil, 0, err
	}
	if st.m != man.M || st.step != step {
		return nil, 0, fmt.Errorf("core: snapshot for step %d disagrees with its manifest (m %d vs %d, step %d)", step, st.m, man.M, st.step)
	}
	if st.storage == snapStorageExternal {
		err = e.loadSnapshotSegment(ckSegPath(ck.dir, step, ck.c.Rank()), st.seg)
	} else {
		err = e.loadSnapshotAdjacency(adjData)
	}
	if err != nil {
		return nil, 0, err
	}
	if err := e.finishLoad(man.M, cfg); err != nil {
		return nil, 0, err
	}
	// finishLoad derived load-time values from the restored partition;
	// reinstate the captured run state on top of it.
	if e.origLocal != st.origLocal {
		return nil, 0, fmt.Errorf("core: restored partition holds %d originals, snapshot recorded %d", e.origLocal, st.origLocal)
	}
	e.initialEdges = st.initialEdges
	e.stepsRun = st.step
	e.restoredStep = st.step
	e.opsInitiated, e.restarts, e.forfeited, e.msgsSent = st.opsInitiated, st.restarts, st.forfeited, st.msgsSent
	e.flushes = st.flushes
	if err := e.rnd.SetState(st.rnd); err != nil {
		return nil, 0, err
	}
	e.rand.restoreCursor(st.cursor)
	// Every rank verified its snapshot (and segment identity) in
	// restorable() before the step was agreed, so the per-rank load and
	// decode error paths above fire only on a corruption race, where the
	// whole restore is abandoned anyway.
	// collsync: post-agreement ranks cannot routinely diverge (see above)
	degCRC, err := ck.degreeCRC(e)
	if err != nil {
		return nil, 0, err
	}
	if degCRC != man.DegreeCRC {
		return nil, 0, fmt.Errorf("core: rank %d restore of step %d: restored global degree sequence hashes to %08x, manifest recorded %08x — the checkpoint set is inconsistent (mixed steps or corrupted snapshot); delete step %d under %s and restore an earlier step",
			ck.c.Rank(), step, degCRC, man.DegreeCRC, step, ck.dir)
	}
	ck.restoredStepSize = man.StepSize
	return e, step, nil
}
