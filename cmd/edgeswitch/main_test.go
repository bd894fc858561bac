package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"edgeswitch"
)

// asCommand, when set in the environment, makes the test binary run as
// the edgeswitch command on its own command line instead of running the
// suite. The multi-process tests start their ranks this way with the
// command lines childArgs builds, and -spawn reaches it because
// os.Executable is the test binary.
const asCommand = "EDGESWITCH_TEST_AS_COMMAND"

func TestMain(m *testing.M) {
	if os.Getenv(asCommand) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// mustParse parses a command line with the production flag binding.
func mustParse(t *testing.T, args ...string) options {
	t.Helper()
	o, err := parse(args)
	if err != nil {
		t.Fatalf("parse %q: %v", args, err)
	}
	return o
}

// runArgs parses and runs one command line, returning what it reported.
func runArgs(args ...string) (string, error) {
	o, err := parse(args)
	if err != nil {
		return "", err
	}
	var out bytes.Buffer
	err = run(o, &out)
	return out.String(), err
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

// writeGraph writes a circulant graph on n vertices, vertex v adjacent to
// v±off for each offset, and returns its path.
func writeGraph(t *testing.T, n int, offs ...int) string {
	t.Helper()
	var b strings.Builder
	for v := 0; v < n; v++ {
		for _, off := range offs {
			fmt.Fprintf(&b, "%d %d\n", v, (v+off)%n)
		}
	}
	path := filepath.Join(t.TempDir(), "g.txt")
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// lineWith returns the first line of out starting with prefix, or "".
func lineWith(out, prefix string) string {
	for _, l := range strings.Split(out, "\n") {
		if strings.HasPrefix(l, prefix) {
			return l
		}
	}
	return ""
}

func TestRunDataset(t *testing.T) {
	out := filepath.Join(t.TempDir(), "out.txt")
	if _, err := runArgs("-dataset", "erdosrenyi", "-scale", "0.02", "-out", out,
		"-t", "500", "-p", "2", "-scheme", "HP-U", "-steps", "2", "-seed", "7"); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(out); err != nil {
		t.Fatalf("output not written: %v", err)
	}
}

func TestRunFromFile(t *testing.T) {
	in := filepath.Join(t.TempDir(), "in.txt")
	if err := os.WriteFile(in, []byte("# 6 5\n0 1\n1 2\n2 3\n3 4\n4 5\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := runArgs("-in", in, "-t", "20", "-seed", "3"); err != nil {
		t.Fatal(err)
	}
}

// TestBudgetMatchesEsworker: the t the budget line announces is the
// number of switches then performed, sequentially, in-process and in the
// worker mode (-coordinator, which replaced the esworker binary) as a
// one-process TCP world, and -t 0 -x 0 is refused by every mode alike.
func TestBudgetMatchesEsworker(t *testing.T) {
	in := writeGraph(t, 200, 1, 2, 5)
	for _, c := range []struct {
		t, x  string
		algo  string
		steps string
	}{
		{"0", "0", "edge-switch", "1"},
		{"0", "0.5", "edge-switch", "3"},
		{"40", "0", "edge-switch", "4"},
		{"0", "0.9", "curveball", "1"},
	} {
		for _, mode := range [][]string{nil, {"-p", "2"}, {"-coordinator", freePort(t), "-timeout", "5s"}} {
			args := append([]string{"-in", in, "-t", c.t, "-x", c.x, "-algo", c.algo, "-steps", c.steps, "-seed", "9", "-q"}, mode...)
			name := strings.Join(args[2:], " ")
			out, err := runArgs(args...)
			if c.t == "0" && c.x == "0" {
				if err == nil {
					t.Errorf("%s: accepted", name)
				}
				continue
			}
			if err != nil {
				t.Errorf("%s: %v", name, err)
				continue
			}
			var tAnnounced, ran int64
			var algo string
			if _, err := fmt.Sscanf(lineWith(out, "budget: "), "budget: algo=%s t=%d", &algo, &tAnnounced); err != nil {
				t.Errorf("%s: budget line: %v\n%s", name, err, out)
			}
			if _, err := fmt.Sscanf(lineWith(out, "completed "), "completed %d ops", &ran); err != nil {
				t.Errorf("%s: %v\n%s", name, err, out)
			}
			if c.algo == "edge-switch" && ran != tAnnounced {
				t.Errorf("%s: announced t=%d, performed %d switches", name, tAnnounced, ran)
			}
		}
	}
}

// TestRunDistributedGen exercises the -gen path sequentially and with
// the parallel generation bootstrap, writing both results to
// confirm the full pipeline (generate → switch → reassemble → save).
func TestRunDistributedGen(t *testing.T) {
	out := filepath.Join(t.TempDir(), "gen.txt")
	for _, p := range []string{"1", "4"} {
		if _, err := runArgs("-gen", "pa", "-n", "600", "-d", "4", "-out", out, "-t", "100", "-p", p, "-seed", "11"); err != nil {
			t.Fatalf("p=%s: %v", p, err)
		}
		if fi, err := os.Stat(out); err != nil || fi.Size() == 0 {
			t.Fatalf("p=%s: output not written (%v)", p, err)
		}
	}
	if _, err := runArgs("-gen", "contact", "-n", "600", "-d", "6", "-t", "50", "-p", "2", "-scheme", "HP-D", "-seed", "11"); err != nil {
		t.Fatalf("contact: %v", err)
	}
}

// refusal is a command line run must refuse.
type refusal struct {
	name string
	args []string
}

// refuseAll fails the test for every command line in rs that runs.
func refuseAll(t *testing.T, rs []refusal) {
	t.Helper()
	for _, r := range rs {
		_, err := runArgs(r.args...)
		if err == nil {
			t.Errorf("%s accepted", r.name)
		}
		t.Logf("%s: %v", r.name, err)
	}
}

// with returns base followed by args, never sharing base's backing array.
func with(base []string, args ...string) []string {
	return append(append([]string{}, base...), args...)
}

// TestRunValidation: every command line here is refused.
func TestRunValidation(t *testing.T) {
	er := []string{"-dataset", "erdosrenyi", "-scale", "0.02", "-t", "10"}
	c4 := filepath.Join(t.TempDir(), "c4.txt")
	if err := os.WriteFile(c4, []byte("0 1\n1 2\n2 3\n0 3\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	refuseAll(t, []refusal{
		{"missing input", []string{"-t", "10"}},
		{"both -in and -dataset", []string{"-in", "x.txt", "-dataset", "miami"}},
		{"unknown dataset", []string{"-dataset", "nonexistent"}},
		{"both -in and -gen", []string{"-in", "x.txt", "-gen", "pa", "-n", "100", "-d", "4"}},
		{"bogus -gen model", []string{"-gen", "bogus", "-n", "100", "-d", "4"}},
		{"missing file", []string{"-in", "/nonexistent/file.txt"}},
		{"-t 0 -x 0", []string{"-dataset", "erdosrenyi", "-scale", "0.02", "-t", "0", "-x", "0"}},
		{"-p 0", with(er, "-p", "0")},
		{"-p -3", with(er, "-p", "-3")},
		{"-steps 0", with(er, "-p", "2", "-steps", "0")},
		{"sequential -spill-dir", with(er, "-spill-dir", t.TempDir())},
		{"sequential -tcp", with(er, "-tcp")},
		{"sequential -checkpoint-dir", with(er, "-checkpoint-dir", t.TempDir())},
		{"-rank without -coordinator", with(er, "-p", "2", "-rank", "1")},
		{"-spawn without -coordinator", with(er, "-p", "2", "-spawn")},
		{"-restore without -coordinator", with(er, "-p", "2", "-checkpoint-dir", t.TempDir(), "-restore")},
		{"-timeout without -coordinator", with(er, "-p", "2", "-timeout", "30s")},
		{"-write-timeout without -coordinator", with(er, "-p", "2", "-write-timeout", "5s")},
		{"-max-rollbacks without -coordinator", with(er, "-p", "2", "-max-rollbacks", "1")},
		{"-tcp with -coordinator", with(er, "-tcp", "-coordinator", "127.0.0.1:1")},
		{"-checkpoint-every without -checkpoint-dir", with(er, "-p", "2", "-checkpoint-every", "2")},
		{"-checkpoint-every 0", with(er, "-p", "2", "-checkpoint-dir", t.TempDir(), "-checkpoint-every", "0")},
		{"-checkpoint-every -1", with(er, "-p", "2", "-checkpoint-dir", t.TempDir(), "-checkpoint-every", "-1")},
		{"stray argument", with(er, "extra")},
		{"-n and -d without -gen", with(er, "-n", "5", "-d", "3")},
		{"-scale without -dataset", []string{"-in", c4, "-scale", "7", "-t", "2"}},
		{"-scale with -gen", []string{"-gen", "pa", "-n", "300", "-d", "3", "-scale", "9", "-t", "5"}},
	})
}

// TestRunValidationCoordinator: the worker mode refuses what the local
// one does, and a -restore with nothing to restore from, before it gets
// as far as dialing the coordinator.
func TestRunValidationCoordinator(t *testing.T) {
	coord := []string{"-coordinator", "127.0.0.1:1", "-timeout", "1s", "-t", "10"}
	refuseAll(t, []refusal{
		{"missing input", coord},
		{"missing file", with(coord, "-in", "/nonexistent/file.txt")},
		{"both -in and -gen", with(coord, "-in", "g.txt", "-gen", "pa")},
		{"bogus -gen model", with(coord, "-gen", "bogus")},
		{"-restore without -checkpoint-dir", with(coord, "-gen", "pa", "-restore")},
		{"-t 0 -x 0", with(coord, "-gen", "pa", "-t", "0", "-x", "0")},
		{"-p 2 on port 0 without -spawn", []string{"-coordinator", "127.0.0.1:0", "-p", "2", "-gen", "pa"}},
		{"-n without -gen", with(coord, "-dataset", "erdosrenyi", "-n", "5")},
		{"-d without -gen", with(coord, "-in", "g.txt", "-d", "3")},
		{"-scale without -dataset", with(coord, "-gen", "pa", "-scale", "9")},
	})
}

func TestRunCurveball(t *testing.T) {
	// Parallel, sequential, and visit-rate-derived (t=0) curveball runs.
	base := []string{"-dataset", "erdosrenyi", "-scale", "0.02", "-algo", "curveball", "-seed", "7"}
	out := filepath.Join(t.TempDir(), "out.txt")
	for _, args := range [][]string{
		{"-out", out, "-t", "4", "-p", "2", "-scheme", "HP-D"},
		{"-t", "3"},
		{"-t", "0", "-x", "0.5", "-p", "2"},
	} {
		if _, err := runArgs(append(base, args...)...); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
	}
	if _, err := os.Stat(out); err != nil {
		t.Fatalf("output not written: %v", err)
	}
	// Unknown algorithms are rejected at t derivation.
	if _, err := runArgs("-dataset", "erdosrenyi", "-scale", "0.02", "-algo", "bogus"); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

// checkProfiles fails unless every path names a non-empty file.
func checkProfiles(t *testing.T, paths ...string) {
	t.Helper()
	for _, path := range paths {
		if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
			t.Errorf("profile %s missing or empty (%v)", filepath.Base(path), err)
		}
	}
}

// TestProfiled: -cpuprofile and -memprofile each leave a non-empty file
// behind a run, and the run's own error still comes through.
func TestProfiled(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	o := mustParse(t, "-gen", "pa", "-n", "2000", "-d", "5", "-x", "0.5", "-p", "2", "-scheme", "HP-D",
		"-steps", "2", "-seed", "3", "-cpuprofile", cpu, "-memprofile", mem)
	if err := profiled(o, func() error { return run(o, io.Discard) }); err != nil {
		t.Fatal(err)
	}
	checkProfiles(t, cpu, mem)
	o = options{cpuProf: filepath.Join(dir, "cpu2.prof")}
	if err := profiled(o, func() error { return os.ErrInvalid }); !errors.Is(err, os.ErrInvalid) {
		t.Errorf("the run's error came back as %v", err)
	}
	o.cpuProf = filepath.Join(dir, "missing", "cpu.prof")
	if err := profiled(o, func() error { return nil }); err == nil {
		t.Error("an unwritable -cpuprofile path was accepted")
	}
}

// TestProfiledPerRank: with -coordinator the profiles are named after the
// rank, so spawned ranks given the same flag values never overwrite each
// other.
func TestProfiledPerRank(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	o := mustParse(t, "-in", writeGraph(t, 12, 1), "-t", "20", "-coordinator", freePort(t), "-timeout", "5s",
		"-cpuprofile", cpu, "-memprofile", mem)
	if err := profiled(o, func() error { return run(o, io.Discard) }); err != nil {
		t.Fatal(err)
	}
	checkProfiles(t, cpu+".rank0", mem+".rank0")
}

// checkChildArgs: parsing the command line childArgs builds for spawned
// rank 2 gives back o with only -rank, -spawn and -restore changed, so a
// flag left out of what children get fails here.
func checkChildArgs(t *testing.T, o options, restore bool) {
	t.Helper()
	got := mustParse(t, childArgs(o, 2, restore)...)
	want := o
	want.rank, want.spawn, want.restore = 2, false, restore
	if got != want {
		t.Errorf("restore=%v: childArgs %q parse to\n%+v, want\n%+v", restore, childArgs(o, 2, restore), got, want)
	}
}

// TestChildArgsForwardRawFlags: a parent with every flag at a non-default
// value round-trips through childArgs. A derived -t in place of the raw
// one once disarmed the children's early stop and hung -spawn curveball
// runs, and a dropped -write-timeout left them on the 30 s default.
func TestChildArgsForwardRawFlags(t *testing.T) {
	args := []string{
		"-in", "g.txt", "-dataset", "miami", "-scale", "0.5", "-gen", "pa", "-n", "5000", "-d", "6",
		"-out", "out.txt", "-t", "0", "-x", "0.9", "-p", "3", "-scheme", "HP-D", "-algo", "curveball",
		"-steps", "7", "-seed", "42", "-q", "-spill-dir", "spill", "-checkpoint-dir", "ck",
		"-checkpoint-every", "5", "-cpuprofile", "cpu.prof", "-memprofile", "mem.prof",
		"-coordinator", "127.0.0.1:9", "-rank", "1", "-spawn", "-restore", "-timeout", "9s",
		"-write-timeout", "7s", "-max-rollbacks", "4",
	}
	// -t stays at its default 0: the raw value a derived t must not
	// replace. -tcp stays off: -coordinator refuses it.
	fs := bind(new(options))
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	fs.VisitAll(func(f *flag.Flag) {
		if f.Name != "t" && f.Name != "tcp" && f.Value.String() == f.DefValue {
			t.Errorf("-%s is at its default here: give it another value", f.Name)
		}
	})
	checkChildArgs(t, mustParse(t, args...), false)
}

// TestChildArgsForwardCheckpointFlags: a checkpointing world's children
// get its checkpoint flags, and -restore only when they replace a lost
// rank.
func TestChildArgsForwardCheckpointFlags(t *testing.T) {
	o := mustParse(t, "-in", "g.txt", "-p", "4", "-coordinator", "127.0.0.1:9",
		"-checkpoint-dir", "ck", "-checkpoint-every", "5", "-max-rollbacks", "7")
	for _, restore := range []bool{false, true} {
		checkChildArgs(t, o, restore)
	}
}

// runInProcess runs every rank of a -p world over real TCP as goroutines
// calling run, each with its own -rank, and returns rank 0's report.
func runInProcess(t *testing.T, p int, args ...string) string {
	t.Helper()
	args = append(args, "-p", fmt.Sprint(p), "-coordinator", freePort(t), "-timeout", "10s", "-write-timeout", "10s")
	args = args[:len(args):len(args)] // each rank's append below copies
	var wg sync.WaitGroup
	outs, errs := make([]string, p), make([]error, p)
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			outs[r], errs[r] = runArgs(append(args, "-rank", fmt.Sprint(r))...)
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	return outs[0]
}

// startRank starts rank r of the world o describes as a child process:
// this test binary run as edgeswitch on the command line childArgs builds.
func startRank(t *testing.T, o options, r int, restore bool) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(os.Args[0], childArgs(o, r, restore)...)
	cmd.Env = append(os.Environ(), asCommand+"=1")
	cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	return cmd
}

// runMultiProcess runs a 3-process world: ranks 1 and 2 are child
// processes (startRank), rank 0 runs in this one. This is the CI leg for
// the multi-process ProcWorld path, which the in-process race gate cannot
// cover.
func runMultiProcess(t *testing.T, args ...string) {
	t.Helper()
	o := mustParse(t, append(args, "-p", "3", "-coordinator", freePort(t), "-timeout", "20s", "-write-timeout", "10s")...)
	children := map[int]*exec.Cmd{}
	for r := 1; r < o.ranks; r++ {
		children[r] = startRank(t, o, r, false)
	}
	runErr := run(o, io.Discard)
	reapErr := reapChildren(children, runErr != nil)
	if runErr != nil {
		t.Fatalf("rank 0: %v", runErr)
	}
	if reapErr != nil {
		t.Fatalf("child: %v", reapErr)
	}
}

// TestRunSingleRank: a one-process world, on a named port and on port 0.
func TestRunSingleRank(t *testing.T) {
	for _, coord := range []string{freePort(t), "127.0.0.1:0"} {
		out := filepath.Join(t.TempDir(), "out.txt")
		if _, err := runArgs("-in", writeGraph(t, 12, 1), "-coordinator", coord, "-t", "20",
			"-timeout", "5s", "-write-timeout", "5s", "-out", out); err != nil {
			t.Fatalf("-coordinator %s: %v", coord, err)
		}
		if _, err := os.Stat(out); err != nil {
			t.Fatalf("-coordinator %s: output missing: %v", coord, err)
		}
	}
}

func TestRunMultiRankInProcess(t *testing.T) {
	runInProcess(t, 3, "-in", writeGraph(t, 12, 1), "-t", "30", "-scheme", "HP-D", "-steps", "3", "-seed", "9")
}

func TestRunMultiProcess(t *testing.T) {
	runMultiProcess(t, "-in", writeGraph(t, 12, 1), "-t", "30", "-scheme", "HP-D", "-steps", "3", "-seed", "9")
}

// TestRunSpawn: rank 0 alone, with -spawn, starts the rest of the world
// itself and writes the result — on a named port, and on port 0, which
// rank 0 resolves before it spawns.
func TestRunSpawn(t *testing.T) {
	t.Setenv(asCommand, "1") // the spawned ranks run this binary as edgeswitch
	for _, coord := range []string{freePort(t), "127.0.0.1:0"} {
		out := filepath.Join(t.TempDir(), "out.txt")
		rep, err := runArgs("-in", writeGraph(t, 12, 1), "-p", "3", "-coordinator", coord, "-spawn",
			"-t", "30", "-scheme", "HP-D", "-steps", "3", "-seed", "9", "-timeout", "20s", "-out", out)
		if err != nil {
			t.Fatalf("-coordinator %s: %v", coord, err)
		}
		if fi, err := os.Stat(out); err != nil || fi.Size() == 0 {
			t.Fatalf("-coordinator %s: output not written (%v):\n%s", coord, err, rep)
		}
	}
}

// TestRunGenMultiRank runs a distributed world where no rank ever loads
// a graph file: the ranks generate the partitions from the shared spec,
// one share each, and route the edges to their owners.
func TestRunGenMultiRank(t *testing.T) {
	out := filepath.Join(t.TempDir(), "gen-out.txt")
	runInProcess(t, 3, "-gen", "pa", "-n", "600", "-d", "4", "-t", "50", "-seed", "9", "-out", out)
	if fi, err := os.Stat(out); err != nil || fi.Size() == 0 {
		t.Fatalf("rank 0 wrote no output: %v", err)
	}
}

// TestRunCurveballMultiRankInProcess is the in-process multi-rank leg of
// the curveball protocol over the real distributed transport (part of
// the race gate: `make racedist` runs this package under -race).
func TestRunCurveballMultiRankInProcess(t *testing.T) {
	runInProcess(t, 3, "-in", writeGraph(t, 12, 1), "-t", "5", "-scheme", "HP-D", "-algo", "curveball", "-seed", "9")
}

// TestRunCurveballMultiProcess runs curveball trades across real OS
// processes: the multi-process CI leg for the second randomizer.
func TestRunCurveballMultiProcess(t *testing.T) {
	runMultiProcess(t, "-in", writeGraph(t, 12, 1), "-t", "30", "-scheme", "HP-D", "-algo", "curveball", "-seed", "9")
}

// TestRunCurveballVisitRateMultiProcess is the regression pin for the
// visit-rate early stop across real OS processes: every rank gets the
// raw t=0/-x flags, derives the same round budget, arms the same
// targetX, and must agree on the stop boundary — any divergence (like
// forwarding a derived t to some ranks, which disarms their early stop)
// deadlocks the world instead of finishing.
func TestRunCurveballVisitRateMultiProcess(t *testing.T) {
	runMultiProcess(t, "-gen", "pa", "-n", "600", "-d", "4", "-t", "0", "-x", "0.9", "-scheme", "HP-D",
		"-algo", "curveball", "-seed", "9")
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

// killRestoreArgs is a 3-rank world that checkpoints every step
// boundary, on a graph big enough that the run outlives a kill by a wide
// margin: a circulant graph, every one of its 2000 vertices of degree 6.
func killRestoreArgs(t *testing.T, ckDir, out string) []string {
	return []string{"-in", writeGraph(t, 2000, 1, 2, 7), "-p", "3", "-coordinator", freePort(t),
		"-t", "60000", "-scheme", "HP-D", "-steps", "40", "-seed", "9", "-checkpoint-dir", ckDir,
		"-timeout", "30s", "-write-timeout", "10s", "-out", out}
}

// awaitCheckpoint returns once the first checkpoint manifest in ckDir has
// committed, failing if the run (done) finishes or a minute passes first.
func awaitCheckpoint(t *testing.T, ckDir string, done <-chan error) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		ents, _ := os.ReadDir(ckDir)
		for _, e := range ents {
			if filepath.Ext(e.Name()) == ".json" {
				return
			}
		}
		select {
		case err := <-done:
			t.Fatalf("run finished before any checkpoint committed (err=%v): the kill window never opened, raise -t", err)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("no checkpoint manifest appeared")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// checkRecovered is the end-to-end restore integrity check: the switched
// graph at out keeps the input's edge count and exact degree sequence.
func checkRecovered(t *testing.T, out string) {
	t.Helper()
	got, err := edgeswitch.LoadGraphFile(out, 1)
	if err != nil {
		t.Fatalf("loading recovered output: %v", err)
	}
	if got.M() != 6000 {
		t.Fatalf("recovered graph has %d edges, want 6000", got.M())
	}
	for v, d := range got.Degrees() {
		if d != 6 {
			t.Fatalf("vertex %d has degree %d after recovery, want 6", v, d)
		}
	}
}

// TestRunKillRestoreMultiProcess is the fault-injection leg of
// checkpoint/restore, run under -race by `make racedist`: once the first
// manifest commits, one child is SIGKILLed mid-run. The survivors must
// observe the lost peer, roll back to the last committed checkpoint, and
// rejoin a restarted world on the same coordinator address; a
// replacement process joins with the lost rank's id and -restore. The
// recovered run must complete with the input's exact degree sequence.
func TestRunKillRestoreMultiProcess(t *testing.T) {
	ckDir := filepath.Join(t.TempDir(), "ck")
	out := filepath.Join(t.TempDir(), "restored-out.txt")
	o := mustParse(t, killRestoreArgs(t, ckDir, out)...)
	children := map[int]*exec.Cmd{1: startRank(t, o, 1, false), 2: startRank(t, o, 2, false)}
	rank0Done := make(chan error, 1)
	go func() { rank0Done <- run(o, io.Discard) }()

	awaitCheckpoint(t, ckDir, rank0Done)
	if err := children[2].Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatalf("killing rank 2: %v", err)
	}
	_ = children[2].Wait()

	// The replacement joins with the lost rank's id in restore mode; the
	// survivors roll back on their own.
	children[2] = startRank(t, o, 2, true)

	if err := <-rank0Done; err != nil {
		t.Fatalf("rank 0 did not recover: %v", err)
	}
	if err := reapChildren(children, false); err != nil {
		t.Fatalf("child after recovery: %v", err)
	}
	checkRecovered(t, out)
}

// TestRunSpawnRespawnsLostRank is the -spawn half of recovery: rank 0
// started its peers itself, so when one of them is SIGKILLed it must
// respawn the lost rank with -restore, and the world must finish from
// the checkpoint with the input's exact degree sequence.
func TestRunSpawnRespawnsLostRank(t *testing.T) {
	if _, err := os.Stat("/proc/self/stat"); err != nil {
		t.Skip("finding the spawned rank needs /proc")
	}
	t.Setenv(asCommand, "1") // the spawned ranks run this binary as edgeswitch
	ckDir := filepath.Join(t.TempDir(), "ck")
	out := filepath.Join(t.TempDir(), "respawned-out.txt")
	args := append(killRestoreArgs(t, ckDir, out), "-spawn")
	rank0Done := make(chan error, 1)
	var rep string
	go func() {
		var err error
		rep, err = runArgs(args...)
		rank0Done <- err
	}()

	awaitCheckpoint(t, ckDir, rank0Done)
	pid := spawnedRank(t, 2)
	if err := syscall.Kill(pid, syscall.SIGKILL); err != nil {
		t.Fatalf("killing spawned rank 2 (pid %d): %v", pid, err)
	}
	if err := <-rank0Done; err != nil {
		t.Fatalf("rank 0 did not recover: %v", err)
	}
	if !strings.Contains(rep, "resumed from checkpoint at step") {
		t.Errorf("no resume reported:\n%s", rep)
	}
	checkRecovered(t, out)
}

// spawnedRank returns the pid of this process's child running as rank r.
func spawnedRank(t *testing.T, r int) int {
	t.Helper()
	paths, _ := filepath.Glob("/proc/[0-9]*/cmdline")
	for _, path := range paths {
		cmdline, err := os.ReadFile(path)
		if err != nil || !bytes.Contains(cmdline, []byte(fmt.Sprintf("\x00-rank=%d\x00", r))) {
			continue
		}
		stat, err := os.ReadFile(filepath.Join(filepath.Dir(path), "stat"))
		if err != nil {
			continue
		}
		// pid (comm) state ppid ...
		var pid, ppid int
		var state string
		fields := string(stat[bytes.LastIndexByte(stat, ')')+1:])
		if _, err := fmt.Sscan(fields, &state, &ppid); err == nil && ppid == os.Getpid() {
			fmt.Sscan(filepath.Base(filepath.Dir(path)), &pid)
			return pid
		}
	}
	t.Fatalf("no child of this process runs as rank %d", r)
	return 0
}
