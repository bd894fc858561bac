package main

import (
	"os"
	"path/filepath"
	"testing"
)

func TestRunDataset(t *testing.T) {
	out := filepath.Join(t.TempDir(), "out.txt")
	err := run("", "erdosrenyi", 0.02, "", 0, 0, out, 500, 1, 2, "HP-U", "", 2, 7, false, true, false, "plain", 0, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(out); err != nil {
		t.Fatalf("output not written: %v", err)
	}
}

func TestRunFromFile(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "in.txt")
	if err := os.WriteFile(in, []byte("# 6 5\n0 1\n1 2\n2 3\n3 4\n4 5\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(in, "", 1, "", 0, 0, "", 20, 1, 1, "CP", "", 1, 3, false, true, false, "plain", 0, ""); err != nil {
		t.Fatal(err)
	}
}

func TestRunModes(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "ring.txt")
	// A ring plus chords: connected, bipartite-violating; fine for
	// plain/connected/jdd.
	content := "# 8 10\n0 1\n1 2\n2 3\n3 4\n4 5\n5 6\n6 7\n0 7\n0 4\n2 6\n"
	if err := os.WriteFile(in, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, mode := range []string{"plain", "connected", "jdd"} {
		if err := run(in, "", 1, "", 0, 0, "", 10, 1, 1, "CP", "", 1, 5, false, true, false, mode, 0, ""); err != nil {
			t.Fatalf("mode %s: %v", mode, err)
		}
	}
	// Bipartite mode on a bipartite file.
	bip := filepath.Join(dir, "bip.txt")
	if err := os.WriteFile(bip, []byte("# 6 5\n0 3\n0 4\n1 4\n1 5\n2 5\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(bip, "", 1, "", 0, 0, "", 10, 1, 1, "CP", "", 1, 5, false, true, false, "bipartite", 3, ""); err != nil {
		t.Fatal(err)
	}
}

// TestRunDistributedGen exercises the -gen path sequentially and with
// the communication-free parallel bootstrap, writing both results to
// confirm the full pipeline (generate → switch → reassemble → save).
func TestRunDistributedGen(t *testing.T) {
	dir := t.TempDir()
	for _, ranks := range []int{1, 4} {
		out := filepath.Join(dir, "gen.txt")
		if err := run("", "", 1, "pa", 600, 4, out, 100, 1, ranks, "CP", "", 1, 11, false, true, false, "plain", 0, ""); err != nil {
			t.Fatalf("p=%d: %v", ranks, err)
		}
		fi, err := os.Stat(out)
		if err != nil || fi.Size() == 0 {
			t.Fatalf("p=%d: output not written (%v)", ranks, err)
		}
	}
	if err := run("", "", 1, "contact", 600, 6, "", 50, 1, 2, "HP-D", "", 1, 11, false, true, false, "plain", 0, ""); err != nil {
		t.Fatalf("contact: %v", err)
	}
}

func TestRunValidation(t *testing.T) {
	if err := run("", "", 1, "", 0, 0, "", 10, 1, 1, "CP", "", 1, 1, false, true, false, "plain", 0, ""); err == nil {
		t.Fatal("missing input accepted")
	}
	if err := run("x.txt", "miami", 1, "", 0, 0, "", 10, 1, 1, "CP", "", 1, 1, false, true, false, "plain", 0, ""); err == nil {
		t.Fatal("both -in and -dataset accepted")
	}
	if err := run("", "erdosrenyi", 0.02, "", 0, 0, "", 10, 1, 1, "CP", "", 1, 1, false, true, false, "bogus", 0, ""); err == nil {
		t.Fatal("bogus mode accepted")
	}
	if err := run("", "nonexistent", 1, "", 0, 0, "", 10, 1, 1, "CP", "", 1, 1, false, true, false, "plain", 0, ""); err == nil {
		t.Fatal("unknown dataset accepted")
	}
	if err := run("x.txt", "", 1, "pa", 100, 4, "", 10, 1, 1, "CP", "", 1, 1, false, true, false, "plain", 0, ""); err == nil {
		t.Fatal("both -in and -gen accepted")
	}
	if err := run("", "", 1, "bogus", 100, 4, "", 10, 1, 1, "CP", "", 1, 1, false, true, false, "plain", 0, ""); err == nil {
		t.Fatal("bogus -gen model accepted")
	}
	if err := run("", "", 1, "pa", 100, 4, "", 10, 1, 2, "CP", "", 1, 1, false, true, false, "connected", 0, ""); err == nil {
		t.Fatal("-gen with constrained mode accepted")
	}
}

func TestRunCurveball(t *testing.T) {
	out := filepath.Join(t.TempDir(), "out.txt")
	// Parallel, sequential, and visit-rate-derived (t=0) curveball runs.
	if err := run("", "erdosrenyi", 0.02, "", 0, 0, out, 4, 1, 2, "HP-D", "curveball", 1, 7, false, true, false, "plain", 0, ""); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(out); err != nil {
		t.Fatalf("output not written: %v", err)
	}
	if err := run("", "erdosrenyi", 0.02, "", 0, 0, "", 3, 1, 1, "CP", "curveball", 1, 7, false, true, false, "plain", 0, ""); err != nil {
		t.Fatal(err)
	}
	if err := run("", "erdosrenyi", 0.02, "", 0, 0, "", 0, 0.5, 2, "CP", "curveball", 1, 7, false, true, false, "plain", 0, ""); err != nil {
		t.Fatal(err)
	}
	// Constrained sequential modes are edge-switch-only.
	if err := run("", "erdosrenyi", 0.02, "", 0, 0, "", 10, 1, 1, "CP", "curveball", 1, 7, false, true, false, "jdd", 0, ""); err == nil {
		t.Fatal("curveball accepted for a constrained mode")
	}
	// Unknown algorithms are rejected at t derivation.
	if err := run("", "erdosrenyi", 0.02, "", 0, 0, "", 0, 1, 1, "CP", "bogus", 1, 7, false, true, false, "plain", 0, ""); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

// TestProfiled: -cpuprofile and -memprofile each leave a non-empty file
// behind a run, and the run's own error still comes through.
func TestProfiled(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	err := profiled(cpu, mem, func() error {
		return run("", "", 1, "pa", 2000, 5, "", 0, 0.5, 2, "HP-D", "", 2, 3, false, true, false, "plain", 0, "")
	})
	if err != nil {
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
