package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"syscall"
	"testing"
	"time"

	"edgeswitch"
)

// TestMain doubles as the worker entry point for the multi-process tests:
// when ESWORKER_TEST_RANK is set, the test binary behaves as one esworker
// rank instead of running the test suite. This drives the real ProcWorld
// path across genuine OS processes (the -spawn code path uses
// os.Executable, which inside `go test` is the test binary itself, so the
// helper-process pattern is the faithful way to multi-process coverage).
func TestMain(m *testing.M) {
	if r := os.Getenv("ESWORKER_TEST_RANK"); r != "" {
		rank, err := strconv.Atoi(r)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		size, err := strconv.Atoi(os.Getenv("ESWORKER_TEST_SIZE"))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		o := workerOpts{
			graphPath:    os.Getenv("ESWORKER_TEST_GRAPH"),
			genMod:       os.Getenv("ESWORKER_TEST_GEN"),
			genN:         600,
			genD:         4,
			size:         size,
			rank:         rank,
			coord:        os.Getenv("ESWORKER_TEST_COORD"),
			tOps:         30,
			x:            1,
			scheme:       "HP-D",
			algo:         os.Getenv("ESWORKER_TEST_ALGO"),
			steps:        3,
			seed:         9,
			timeout:      10 * time.Second,
			writeTO:      10 * time.Second,
			ckDir:        os.Getenv("ESWORKER_TEST_CKDIR"),
			ckEvery:      1,
			restore:      os.Getenv("ESWORKER_TEST_RESTORE") == "1",
			maxRollbacks: 3,
		}
		if o.algo == "curveball" {
			o.steps = 1
		}
		if tv := os.Getenv("ESWORKER_TEST_T"); tv != "" {
			if o.tOps, err = strconv.ParseInt(tv, 10, 64); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
		if xv := os.Getenv("ESWORKER_TEST_X"); xv != "" {
			if o.x, err = strconv.ParseFloat(xv, 64); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
		if sv := os.Getenv("ESWORKER_TEST_STEPS"); sv != "" {
			if o.steps, err = strconv.ParseInt(sv, 10, 64); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
		if err := run(o); err != nil {
			fmt.Fprintf(os.Stderr, "esworker[%d]: %v\n", rank, err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// testOpts returns the baseline options the in-process tests start from;
// callers override individual fields.
func testOpts() workerOpts {
	return workerOpts{
		genN:         600,
		genD:         4,
		size:         1,
		x:            1,
		scheme:       "CP",
		steps:        1,
		seed:         3,
		timeout:      10 * time.Second,
		writeTO:      10 * time.Second,
		ckEvery:      1,
		maxRollbacks: 3,
	}
}

func freePort(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

func writeTestGraph(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "g.txt")
	content := "# 12 12\n0 1\n1 2\n2 3\n3 4\n4 5\n5 6\n6 7\n7 8\n8 9\n9 10\n10 11\n0 11\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunSingleRank(t *testing.T) {
	out := filepath.Join(t.TempDir(), "out.txt")
	o := testOpts()
	o.graphPath = writeTestGraph(t)
	o.coord = freePort(t)
	o.tOps = 20
	o.outPath = out
	o.timeout, o.writeTO = 5*time.Second, 5*time.Second
	if err := run(o); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(out); err != nil {
		t.Fatalf("output missing: %v", err)
	}
}

// TestProfiledPerRank: -cpuprofile and -memprofile leave one non-empty
// file per process, named after its rank, so spawned ranks sharing the
// flag values never overwrite each other.
func TestProfiledPerRank(t *testing.T) {
	dir := t.TempDir()
	o := testOpts()
	o.graphPath = writeTestGraph(t)
	o.coord = freePort(t)
	o.tOps = 20
	cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	if err := profiled(cpu, mem, 3, func() error { return run(o) }); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{cpu + ".rank3", mem + ".rank3"} {
		if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
			t.Fatalf("%s: %v (empty or missing)", path, err)
		}
	}
}

// TestRunMultiRankInProcess drives the worker's run() once per "process"
// concurrently — the same path cmd-line invocations exercise across OS
// processes.
func TestRunMultiRankInProcess(t *testing.T) {
	g := writeTestGraph(t)
	addr := freePort(t)
	const size = 3
	var wg sync.WaitGroup
	errs := make([]error, size)
	for rank := 0; rank < size; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			o := testOpts()
			o.graphPath, o.coord = g, addr
			o.size, o.rank = size, rank
			o.tOps, o.scheme, o.steps, o.seed = 30, "HP-D", 3, 9
			errs[rank] = run(o)
		}(rank)
	}
	wg.Wait()
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
	}
}

// TestRunMultiProcess runs a full world across real OS processes: ranks
// 1..2 are re-executions of the test binary (see TestMain), rank 0 runs
// in-process. This is the CI leg for the multi-process ProcWorld path,
// which the in-process race gate cannot cover.
func TestRunMultiProcess(t *testing.T) {
	g := writeTestGraph(t)
	addr := freePort(t)
	const size = 3
	children := map[int]*exec.Cmd{}
	for rank := 1; rank < size; rank++ {
		cmd := exec.Command(os.Args[0], "-test.run=^$")
		cmd.Env = append(os.Environ(),
			"ESWORKER_TEST_RANK="+strconv.Itoa(rank),
			"ESWORKER_TEST_SIZE="+strconv.Itoa(size),
			"ESWORKER_TEST_GRAPH="+g,
			"ESWORKER_TEST_COORD="+addr,
		)
		cmd.Stdout = os.Stdout
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		children[rank] = cmd
	}
	o := testOpts()
	o.graphPath, o.coord = g, addr
	o.size, o.rank = size, 0
	o.tOps, o.scheme, o.steps, o.seed = 30, "HP-D", 3, 9
	o.timeout = 20 * time.Second
	runErr := run(o)
	reapErr := reapChildren(children, runErr != nil)
	if runErr != nil {
		t.Fatalf("rank 0: %v", runErr)
	}
	if reapErr != nil {
		t.Fatalf("child: %v", reapErr)
	}
}

// TestRunGenMultiRank runs a distributed world where no rank ever loads
// a graph file: the partitions are generated communication-free from the
// shared spec.
func TestRunGenMultiRank(t *testing.T) {
	addr := freePort(t)
	out := filepath.Join(t.TempDir(), "gen-out.txt")
	const size = 3
	var wg sync.WaitGroup
	errs := make([]error, size)
	for rank := 0; rank < size; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			o := testOpts()
			o.genMod, o.coord = "pa", addr
			o.size, o.rank = size, rank
			o.tOps, o.seed = 50, 9
			if rank == 0 {
				o.outPath = out
			}
			errs[rank] = run(o)
		}(rank)
	}
	wg.Wait()
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
	}
	if fi, err := os.Stat(out); err != nil || fi.Size() == 0 {
		t.Fatalf("rank 0 wrote no output: %v", err)
	}
}

func TestRunValidation(t *testing.T) {
	base := testOpts()
	base.coord = "127.0.0.1:1"
	base.tOps = 10
	base.timeout, base.writeTO = time.Second, time.Second

	o := base
	if err := run(o); err == nil {
		t.Fatal("missing graph accepted")
	}
	o = base
	o.graphPath = "/nonexistent/file.txt"
	if err := run(o); err == nil {
		t.Fatal("missing file accepted")
	}
	o = base
	o.graphPath, o.genMod = "g.txt", "pa"
	if err := run(o); err == nil {
		t.Fatal("both -graph and -gen accepted")
	}
	o = base
	o.genMod = "bogus"
	if err := run(o); err == nil {
		t.Fatal("bogus -gen model accepted")
	}
	o = base
	o.genMod, o.restore = "pa", true
	if err := run(o); err == nil {
		t.Fatal("-restore without -checkpoint-dir accepted")
	}
}

// TestReapChildrenKill covers the rank-0 failure path: children must be
// terminated and waited on (no orphans), and their forced exits must not
// produce an error that could mask the root cause.
func TestReapChildrenKill(t *testing.T) {
	children := map[int]*exec.Cmd{}
	for i := 1; i <= 2; i++ {
		cmd := exec.Command("sleep", "300")
		if err := cmd.Start(); err != nil {
			t.Skipf("cannot start sleep: %v", err)
		}
		children[i] = cmd
	}
	done := make(chan error, 1)
	go func() { done <- reapChildren(children, true) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("kill-mode reap reported error: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("reapChildren(kill) did not reap 300s sleepers promptly: children leaked")
	}
	for _, cmd := range children {
		if cmd.ProcessState == nil {
			t.Fatal("child not waited on")
		}
	}
}

// TestReapChildrenReportsFailure covers the success path: rank 0 finished
// cleanly but a child failed — the first child failure must surface.
func TestReapChildrenReportsFailure(t *testing.T) {
	ok := exec.Command("true")
	bad := exec.Command("false")
	for _, cmd := range []*exec.Cmd{ok, bad} {
		if err := cmd.Start(); err != nil {
			t.Skipf("cannot start %v: %v", cmd.Args, err)
		}
	}
	err := reapChildren(map[int]*exec.Cmd{1: ok, 2: bad}, false)
	if err == nil {
		t.Fatal("child failure not reported")
	}
	var exitErr *exec.ExitError
	if !errors.As(err, &exitErr) {
		t.Fatalf("want ExitError in chain, got %v", err)
	}
}

// TestRunCurveballMultiRankInProcess is the in-process multi-rank leg of
// the curveball protocol over the real distributed transport (part of
// the race gate: `make racedist` runs this package under -race).
func TestRunCurveballMultiRankInProcess(t *testing.T) {
	g := writeTestGraph(t)
	addr := freePort(t)
	const size = 3
	var wg sync.WaitGroup
	errs := make([]error, size)
	for rank := 0; rank < size; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			o := testOpts()
			o.graphPath, o.coord = g, addr
			o.size, o.rank = size, rank
			o.tOps, o.scheme, o.algo, o.seed = 5, "HP-D", "curveball", 9
			errs[rank] = run(o)
		}(rank)
	}
	wg.Wait()
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
	}
}

// TestRunCurveballMultiProcess runs curveball trades across real OS
// processes (see TestMain): the multi-process CI leg for the second
// randomizer.
func TestRunCurveballMultiProcess(t *testing.T) {
	g := writeTestGraph(t)
	addr := freePort(t)
	const size = 3
	children := map[int]*exec.Cmd{}
	for rank := 1; rank < size; rank++ {
		cmd := exec.Command(os.Args[0], "-test.run=^$")
		cmd.Env = append(os.Environ(),
			"ESWORKER_TEST_RANK="+strconv.Itoa(rank),
			"ESWORKER_TEST_SIZE="+strconv.Itoa(size),
			"ESWORKER_TEST_GRAPH="+g,
			"ESWORKER_TEST_COORD="+addr,
			"ESWORKER_TEST_ALGO=curveball",
		)
		cmd.Stdout = os.Stdout
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		children[rank] = cmd
	}
	o := testOpts()
	o.graphPath, o.coord = g, addr
	o.size, o.rank = size, 0
	o.tOps, o.scheme, o.algo, o.seed = 30, "HP-D", "curveball", 9
	o.timeout = 20 * time.Second
	runErr := run(o)
	reapErr := reapChildren(children, runErr != nil)
	if runErr != nil {
		t.Fatalf("rank 0: %v", runErr)
	}
	if reapErr != nil {
		t.Fatalf("child: %v", reapErr)
	}
}

// TestRunCurveballVisitRateMultiProcess is the regression pin for the
// visit-rate early stop across real OS processes: every rank gets the
// raw t=0/-x flags, derives the same round budget, arms the same
// targetX, and must agree on the stop boundary — any divergence (like
// forwarding a derived t to some ranks, which disarms their early stop)
// deadlocks the world instead of finishing.
func TestRunCurveballVisitRateMultiProcess(t *testing.T) {
	addr := freePort(t)
	const size = 3
	children := map[int]*exec.Cmd{}
	for rank := 1; rank < size; rank++ {
		cmd := exec.Command(os.Args[0], "-test.run=^$")
		cmd.Env = append(os.Environ(),
			"ESWORKER_TEST_RANK="+strconv.Itoa(rank),
			"ESWORKER_TEST_SIZE="+strconv.Itoa(size),
			"ESWORKER_TEST_GEN=pa",
			"ESWORKER_TEST_COORD="+addr,
			"ESWORKER_TEST_ALGO=curveball",
			"ESWORKER_TEST_T=0",
			"ESWORKER_TEST_X=0.9",
		)
		cmd.Stdout = os.Stdout
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		children[rank] = cmd
	}
	o := testOpts()
	o.genMod, o.coord = "pa", addr
	o.size, o.rank = size, 0
	o.tOps, o.x, o.scheme, o.algo, o.seed = 0, 0.9, "HP-D", "curveball", 9
	o.timeout = 20 * time.Second
	runErr := run(o)
	reapErr := reapChildren(children, runErr != nil)
	if runErr != nil {
		t.Fatalf("rank 0: %v", runErr)
	}
	if reapErr != nil {
		t.Fatalf("child: %v", reapErr)
	}
}

// TestRunKillRestoreMultiProcess is the fault-injection leg of the
// checkpoint/restore tentpole, run under -race by `make racedist`: a
// 3-rank world checkpoints every step boundary; once the first manifest
// commits, one worker is SIGKILLed mid-run. The survivors must observe
// the lost peer, roll back to the last committed checkpoint, and rejoin
// a restarted world on the same coordinator address; a replacement
// process joins with the lost rank's id and -restore. The recovered run
// must complete and produce a graph with the input's exact degree
// sequence (the restore integrity check, asserted end to end).
func TestRunKillRestoreMultiProcess(t *testing.T) {
	// A graph big enough that the run outlives the kill by a wide margin:
	// a circulant graph, every vertex of degree 6.
	const n, deg = 2000, 6
	path := filepath.Join(t.TempDir(), "ring.txt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	m := 0
	for i := 0; i < n; i++ {
		for _, off := range []int{1, 2, 7} {
			fmt.Fprintf(f, "%d %d\n", i, (i+off)%n)
			m++
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	addr := freePort(t)
	ckDir := filepath.Join(t.TempDir(), "ck")
	const size, tOps, steps = 3, 60000, 40
	children := map[int]*exec.Cmd{}
	worker := func(rank int, restore bool) *exec.Cmd {
		cmd := exec.Command(os.Args[0], "-test.run=^$")
		cmd.Env = append(os.Environ(),
			"ESWORKER_TEST_RANK="+strconv.Itoa(rank),
			"ESWORKER_TEST_SIZE="+strconv.Itoa(size),
			"ESWORKER_TEST_GRAPH="+path,
			"ESWORKER_TEST_COORD="+addr,
			"ESWORKER_TEST_T="+strconv.Itoa(tOps),
			"ESWORKER_TEST_STEPS="+strconv.Itoa(steps),
			"ESWORKER_TEST_CKDIR="+ckDir,
		)
		if restore {
			cmd.Env = append(cmd.Env, "ESWORKER_TEST_RESTORE=1")
		}
		cmd.Stdout = os.Stdout
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		return cmd
	}
	for rank := 1; rank < size; rank++ {
		children[rank] = worker(rank, false)
	}

	out := filepath.Join(t.TempDir(), "restored-out.txt")
	rank0Done := make(chan error, 1)
	go func() {
		o := testOpts()
		o.graphPath, o.coord = path, addr
		o.size, o.rank = size, 0
		o.tOps, o.scheme, o.steps, o.seed = tOps, "HP-D", steps, 9
		o.outPath = out
		o.ckDir = ckDir
		o.timeout = 30 * time.Second
		rank0Done <- run(o)
	}()

	// Wait for the first committed checkpoint, then kill rank 2 hard.
	deadline := time.Now().Add(60 * time.Second)
	for {
		if ents, err := os.ReadDir(ckDir); err == nil {
			committed := false
			for _, e := range ents {
				if filepath.Ext(e.Name()) == ".json" {
					committed = true
				}
			}
			if committed {
				break
			}
		}
		select {
		case err := <-rank0Done:
			t.Fatalf("run finished before any checkpoint committed (err=%v): the kill window never opened, raise -t", err)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("no checkpoint manifest appeared")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := children[2].Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatalf("killing rank 2: %v", err)
	}
	_ = children[2].Wait()

	// The replacement joins with the lost rank's id in restore mode; the
	// survivors roll back on their own.
	children[2] = worker(2, true)

	if err := <-rank0Done; err != nil {
		t.Fatalf("rank 0 did not recover: %v", err)
	}
	if err := reapChildren(children, false); err != nil {
		t.Fatalf("child after recovery: %v", err)
	}

	// End-to-end integrity: the switched graph preserves the exact degree
	// sequence of the input (every vertex had degree 6) and the edge count.
	got, err := edgeswitch.LoadGraphFile(out, 1)
	if err != nil {
		t.Fatalf("loading recovered output: %v", err)
	}
	if got.M() != int64(m) {
		t.Fatalf("recovered graph has %d edges, want %d", got.M(), m)
	}
	for v, d := range got.Degrees() {
		if d != deg {
			t.Fatalf("vertex %d has degree %d after recovery, want %d", v, d, deg)
		}
	}
}

// TestChildArgsForwardRawFlags pins the spawn contract childArgs
// documents: the raw -t/-x flag values reach children verbatim. A
// derived t here once suppressed the children's early stop and hung
// -spawn -x curveball runs. The transport write deadline and the spill
// directory reach them too; a child left on the default write deadline
// surfaced a dead peer only after 30 s.
func TestChildArgsForwardRawFlags(t *testing.T) {
	o := testOpts()
	o.genMod, o.genN, o.genD = "pa", 5000, 6
	o.size, o.rank = 3, 0
	o.coord = "127.0.0.1:9"
	o.tOps, o.x = 0, 0.9
	o.scheme, o.algo = "HP-D", "curveball"
	o.seed = 42
	o.writeTO = 7 * time.Second
	o.spillDir = "spill"
	o.cpuProf, o.memProf = "cpu.prof", "mem.prof"
	args := childArgs(o, 2, false)
	get := func(flag string) string {
		for i := 0; i+1 < len(args); i++ {
			if args[i] == flag {
				return args[i+1]
			}
		}
		t.Fatalf("flag %s missing from %v", flag, args)
		return ""
	}
	if v := get("-t"); v != "0" {
		t.Fatalf("-t forwarded as %q, want the raw flag value 0", v)
	}
	if v := get("-x"); v != "0.9" {
		t.Fatalf("-x forwarded as %q, want 0.9", v)
	}
	if v := get("-rank"); v != "2" {
		t.Fatalf("-rank %q", v)
	}
	if v := get("-gen"); v != "pa" {
		t.Fatalf("-gen %q", v)
	}
	if v := get("-write-timeout"); v != "7s" {
		t.Fatalf("-write-timeout forwarded as %q, want 7s", v)
	}
	if v := get("-spill-dir"); v != "spill" {
		t.Fatalf("-spill-dir %q", v)
	}
	if v := get("-cpuprofile"); v != "cpu.prof" {
		t.Fatalf("-cpuprofile forwarded as %q, want the raw path (the child appends its rank)", v)
	}
	if v := get("-memprofile"); v != "mem.prof" {
		t.Fatalf("-memprofile forwarded as %q, want the raw path", v)
	}
	for _, a := range args {
		if a == "-checkpoint-dir" || a == "-restore" {
			t.Fatalf("checkpoint flag %s forwarded without -checkpoint-dir set", a)
		}
		if a == "-overlay-budget" {
			t.Fatalf("children got %s, a flag esworker no longer has", a)
		}
	}
}

// TestChildArgsForwardCheckpointFlags pins the recovery half of the
// spawn contract: the checkpoint directory, cadence and rollback budget
// reach every child (they must all checkpoint the same boundaries), and
// -restore is appended exactly when the child joins as a replacement or
// during a world-wide restart.
func TestChildArgsForwardCheckpointFlags(t *testing.T) {
	o := testOpts()
	o.graphPath = "g.txt"
	o.size = 4
	o.coord = "127.0.0.1:9"
	o.ckDir, o.ckEvery, o.maxRollbacks = "/tmp/ck", 5, 7
	args := childArgs(o, 1, false)
	get := func(flag string) string {
		for i := 0; i+1 < len(args); i++ {
			if args[i] == flag {
				return args[i+1]
			}
		}
		t.Fatalf("flag %s missing from %v", flag, args)
		return ""
	}
	if v := get("-checkpoint-dir"); v != "/tmp/ck" {
		t.Fatalf("-checkpoint-dir %q", v)
	}
	if v := get("-checkpoint-every"); v != "5" {
		t.Fatalf("-checkpoint-every %q", v)
	}
	if v := get("-max-rollbacks"); v != "7" {
		t.Fatalf("-max-rollbacks %q", v)
	}
	for _, a := range args {
		if a == "-restore" {
			t.Fatal("-restore appended to a non-restore child")
		}
	}
	restoreArgs := childArgs(o, 1, true)
	found := false
	for _, a := range restoreArgs {
		if a == "-restore" {
			found = true
		}
	}
	if !found {
		t.Fatalf("-restore missing from replacement child args %v", restoreArgs)
	}
}
