package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// testOpts returns the baseline options the tests start from; callers
// override individual fields.
func testOpts() options {
	return options{scale: 1, tOps: 10, x: 1, ranks: 1, scheme: "CP", steps: 1, seed: 1, quiet: true}
}

func TestRunDataset(t *testing.T) {
	o := testOpts()
	o.dataset, o.scale = "erdosrenyi", 0.02
	o.outPath = filepath.Join(t.TempDir(), "out.txt")
	o.tOps, o.ranks, o.scheme, o.steps, o.seed = 500, 2, "HP-U", 2, 7
	if err := run(o, io.Discard); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(o.outPath); err != nil {
		t.Fatalf("output not written: %v", err)
	}
}

func TestRunFromFile(t *testing.T) {
	o := testOpts()
	o.inPath = filepath.Join(t.TempDir(), "in.txt")
	if err := os.WriteFile(o.inPath, []byte("# 6 5\n0 1\n1 2\n2 3\n3 4\n4 5\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	o.tOps, o.seed = 20, 3
	if err := run(o, io.Discard); err != nil {
		t.Fatal(err)
	}
}

// TestRunDistributedGen exercises the -gen path sequentially and with
// the communication-free parallel bootstrap, writing both results to
// confirm the full pipeline (generate → switch → reassemble → save).
func TestRunDistributedGen(t *testing.T) {
	dir := t.TempDir()
	for _, ranks := range []int{1, 4} {
		o := testOpts()
		o.genMod, o.genN, o.genD = "pa", 600, 4
		o.outPath = filepath.Join(dir, "gen.txt")
		o.tOps, o.ranks, o.seed = 100, ranks, 11
		if err := run(o, io.Discard); err != nil {
			t.Fatalf("p=%d: %v", ranks, err)
		}
		fi, err := os.Stat(o.outPath)
		if err != nil || fi.Size() == 0 {
			t.Fatalf("p=%d: output not written (%v)", ranks, err)
		}
	}
	o := testOpts()
	o.genMod, o.genN, o.genD = "contact", 600, 6
	o.tOps, o.ranks, o.scheme, o.seed = 50, 2, "HP-D", 11
	if err := run(o, io.Discard); err != nil {
		t.Fatalf("contact: %v", err)
	}
}

func TestRunValidation(t *testing.T) {
	for _, c := range []struct {
		name string
		set  func(*options)
	}{
		{"missing input", func(o *options) {}},
		{"both -in and -dataset", func(o *options) { o.inPath, o.dataset = "x.txt", "miami" }},
		{"unknown dataset", func(o *options) { o.dataset = "nonexistent" }},
		{"both -in and -gen", func(o *options) { o.inPath, o.genMod, o.genN, o.genD = "x.txt", "pa", 100, 4 }},
		{"bogus -gen model", func(o *options) { o.genMod, o.genN, o.genD = "bogus", 100, 4 }},
		{"-t 0 -x 0", func(o *options) { o.dataset, o.scale, o.tOps, o.x = "erdosrenyi", 0.02, 0, 0 }},
	} {
		o := testOpts()
		c.set(&o)
		if err := run(o, io.Discard); err == nil {
			t.Errorf("%s accepted", c.name)
		}
	}
}

func TestRunCurveball(t *testing.T) {
	// Parallel, sequential, and visit-rate-derived (t=0) curveball runs.
	o := testOpts()
	o.dataset, o.scale, o.algo, o.seed = "erdosrenyi", 0.02, "curveball", 7
	par := o
	par.outPath = filepath.Join(t.TempDir(), "out.txt")
	par.tOps, par.ranks, par.scheme = 4, 2, "HP-D"
	if err := run(par, io.Discard); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(par.outPath); err != nil {
		t.Fatalf("output not written: %v", err)
	}
	seq := o
	seq.tOps = 3
	if err := run(seq, io.Discard); err != nil {
		t.Fatal(err)
	}
	byRate := o
	byRate.tOps, byRate.x, byRate.ranks = 0, 0.5, 2
	if err := run(byRate, io.Discard); err != nil {
		t.Fatal(err)
	}
	// Unknown algorithms are rejected at t derivation.
	bogus := o
	bogus.tOps, bogus.algo = 0, "bogus"
	if err := run(bogus, io.Discard); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

// TestBudgetMatchesEsworker: given the same flags, edgeswitch and a
// one-rank esworker announce the same budget line (t, step size and
// early-stop target) and refuse -t 0 -x 0 with the same error, and the t
// edgeswitch announces is the number of switches it then performs.
func TestBudgetMatchesEsworker(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go tool on PATH to build esworker with")
	}
	dir := t.TempDir()
	worker := filepath.Join(dir, "esworker")
	if out, err := exec.Command(goTool, "build", "-o", worker, "edgeswitch/cmd/esworker").CombinedOutput(); err != nil {
		t.Fatalf("building esworker: %v\n%s", err, out)
	}
	// A circulant graph: 200 vertices of degree 6.
	var g strings.Builder
	for v := 0; v < 200; v++ {
		for _, off := range []int{1, 2, 5} {
			fmt.Fprintf(&g, "%d %d\n", v, (v+off)%200)
		}
	}
	in := filepath.Join(dir, "g.txt")
	if err := os.WriteFile(in, []byte(g.String()), 0o644); err != nil {
		t.Fatal(err)
	}

	for _, c := range []struct {
		tOps  int64
		x     float64
		algo  string
		steps int64
	}{
		{0, 0, "edge-switch", 1},
		{0, 0.5, "edge-switch", 3},
		{40, 0, "edge-switch", 4},
		{0, 0.9, "curveball", 1},
	} {
		name := fmt.Sprintf("-t %d -x %g -algo %s -steps %d", c.tOps, c.x, c.algo, c.steps)
		o := testOpts()
		o.inPath, o.tOps, o.x, o.algo, o.steps, o.seed = in, c.tOps, c.x, c.algo, c.steps, 9
		var esOut bytes.Buffer
		esErr := run(o, &esOut)

		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		coord := ln.Addr().String()
		ln.Close()
		cmd := exec.Command(worker, "-graph", in, "-size", "1", "-rank", "0", "-coordinator", coord,
			"-t", strconv.FormatInt(c.tOps, 10), "-x", strconv.FormatFloat(c.x, 'g', -1, 64),
			"-algo", c.algo, "-steps", strconv.FormatInt(c.steps, 10), "-seed", "9")
		var wOut, wErr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &wOut, &wErr
		workerErr := cmd.Run()

		if esErr != nil || workerErr != nil {
			if esErr == nil || workerErr == nil || !strings.Contains(wErr.String(), esErr.Error()) {
				t.Errorf("%s: edgeswitch error %v, esworker error %v (%s)", name, esErr, workerErr, strings.TrimSpace(wErr.String()))
			}
			if c.tOps != 0 || c.x != 0 {
				t.Errorf("%s: refused: %v", name, esErr)
			}
			continue
		}
		if c.tOps == 0 && c.x == 0 {
			t.Errorf("%s: accepted by both", name)
			continue
		}
		esLine, wLine := lineWith(esOut.String(), "budget: "), lineWith(wOut.String(), "budget: ")
		if esLine == "" || esLine != wLine {
			t.Errorf("%s: edgeswitch announces %q, esworker %q", name, esLine, wLine)
		}
		var tAnnounced, ran int64
		var algo string
		if _, err := fmt.Sscanf(esLine, "budget: algo=%s t=%d", &algo, &tAnnounced); err != nil {
			t.Errorf("%s: budget line %q: %v", name, esLine, err)
		}
		if _, err := fmt.Sscanf(lineWith(esOut.String(), "completed "), "completed %d ops", &ran); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if c.algo == "edge-switch" && ran != tAnnounced {
			t.Errorf("%s: announced t=%d, performed %d switches", name, tAnnounced, ran)
		}
	}
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

// TestProfiled: -cpuprofile and -memprofile each leave a non-empty file
// behind a run, and the run's own error still comes through.
func TestProfiled(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	o := testOpts()
	o.genMod, o.genN, o.genD = "pa", 2000, 5
	o.tOps, o.x, o.ranks, o.scheme, o.steps, o.seed = 0, 0.5, 2, "HP-D", 2, 3
	if err := profiled(cpu, mem, func() error { return run(o, io.Discard) }); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{cpu, mem} {
		if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
			t.Errorf("profile %s missing or empty (%v)", filepath.Base(path), err)
		}
	}
	if err := profiled(filepath.Join(dir, "cpu2.prof"), "", func() error { return os.ErrInvalid }); err != os.ErrInvalid {
		t.Errorf("the run's error came back as %v", err)
	}
	if err := profiled(filepath.Join(dir, "missing", "cpu.prof"), "", func() error { return nil }); err == nil {
		t.Error("an unwritable -cpuprofile path was accepted")
	}
}
