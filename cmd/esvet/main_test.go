package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"edgeswitch/internal/analysis"
)

// writeModule materialises a throwaway module for the CLI to analyze.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, src := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

const fixtureGoMod = "module fixturemod\n\ngo 1.21\n"

// badCore violates norand (line 5) and noprint (line 9) at once.
const badCore = `package core

import (
	"fmt"
	"math/rand"
)

func Shuffle() {
	fmt.Println(rand.Int())
}
`

const cleanCore = `package core

func Ops() int { return 1 }
`

func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestRunCleanModule(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod":               fixtureGoMod,
		"internal/core/ok.go":  cleanCore,
		"internal/rng/rand.go": "package rng\n\nimport \"math/rand\"\n\nvar _ = rand.Int\n",
	})
	code, stdout, stderr := runCLI(t, "-root", dir)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	if stdout != "" {
		t.Fatalf("clean run printed: %q", stdout)
	}
}

func TestRunReportsFindings(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod":               fixtureGoMod,
		"internal/core/bad.go": badCore,
	})
	code, stdout, stderr := runCLI(t, "-root", dir)
	if code != 1 {
		t.Fatalf("exit %d, want 1 (stderr: %s)", code, stderr)
	}
	for _, want := range []string{"internal/core/bad.go:5:", "[norand]", "internal/core/bad.go:9:", "[noprint]"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("stdout missing %q:\n%s", want, stdout)
		}
	}
	if !strings.Contains(stderr, "2 finding(s)") {
		t.Errorf("stderr missing summary: %q", stderr)
	}
}

func TestRunCheckFilter(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod":               fixtureGoMod,
		"internal/core/bad.go": badCore,
	})
	code, stdout, _ := runCLI(t, "-check", "noprint", "-root", dir)
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if strings.Contains(stdout, "[norand]") {
		t.Fatalf("filtered-out check still reported:\n%s", stdout)
	}
	if !strings.Contains(stdout, "[noprint]") {
		t.Fatalf("selected check missing:\n%s", stdout)
	}
}

func TestRunUnknownCheck(t *testing.T) {
	code, _, stderr := runCLI(t, "-check", "bogus")
	if code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(stderr, `unknown check "bogus"`) {
		t.Fatalf("stderr: %q", stderr)
	}
}

func TestRunList(t *testing.T) {
	code, stdout, _ := runCLI(t, "-list")
	if code != 0 {
		t.Fatalf("exit %d, want 0", code)
	}
	for _, name := range analysis.CheckNames() {
		if !strings.Contains(stdout, name) {
			t.Errorf("catalogue missing %q:\n%s", name, stdout)
		}
	}
}

// TestRunNoModule: a -root with no module above it, or one that does not
// exist (which must not fall through to the enclosing module and report
// that one clean), or a module the loader refuses, is a usage error
// naming the problem.
func TestRunNoModule(t *testing.T) {
	for _, tc := range []struct{ name, root, want string }{
		{"no go.mod", t.TempDir(), "no go.mod"},
		{"missing dir", filepath.Join("..", "..", "no-such-dir"), "no-such-dir"},
		{"no module directive", writeModule(t, map[string]string{"go.mod": "go 1.21\n"}), "no module directive"},
		{"unparsable file", writeModule(t, map[string]string{
			"go.mod":               fixtureGoMod,
			"internal/core/bad.go": "package core\n\nfunc (\n",
		}), "internal/core/bad.go"},
	} {
		code, _, stderr := runCLI(t, "-root", tc.root)
		if code != 2 {
			t.Errorf("%s: exit %d, want 2", tc.name, code)
		}
		if !strings.Contains(stderr, tc.want) {
			t.Errorf("%s: stderr %q lacks %q", tc.name, stderr, tc.want)
		}
	}
}

// TestRunOnRepository gates the repository itself: esvet must exit 0.
func TestRunOnRepository(t *testing.T) {
	if testing.Short() {
		t.Skip("full-module type check is slow")
	}
	code, stdout, stderr := runCLI(t, "-root", filepath.Join("..", ".."))
	if code != 0 {
		t.Fatalf("esvet on the repository: exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
}

// TestConfigDocGates: configdoc findings gate like every other check.
func TestConfigDocGates(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod": fixtureGoMod,
		"internal/core/cfg.go": `package core

// Config configures the fixture.
type Config struct {
	Undocumented int
}
`,
	})
	code, stdout, stderr := runCLI(t, "-root", dir)
	if code != 1 {
		t.Fatalf("exit %d, want 1\nstdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
	if !strings.Contains(stdout, "[configdoc] exported field Config.Undocumented") {
		t.Fatalf("finding not reported:\n%s", stdout)
	}
	if !strings.Contains(stderr, "1 finding(s)") {
		t.Fatalf("summary missing: %q", stderr)
	}
}

// runGolden executes one esvet invocation against the fixture module
// under testdata/module and compares stdout byte-for-byte with a golden
// file. Regenerate with UPDATE_GOLDEN=1 go test ./cmd/esvet.
func runGolden(t *testing.T, golden string, args ...string) {
	t.Helper()
	code, stdout, stderr := runCLI(t, append(args, "-root", filepath.Join("testdata", "module"))...)
	// The fixture trips two findings, so the run must gate.
	if code != 1 {
		t.Fatalf("exit code = %d, want 1 (stderr: %s)", code, stderr)
	}
	path := filepath.Join("testdata", golden)
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(path, []byte(stdout), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if stdout != string(want) {
		t.Errorf("output differs from %s (rerun with UPDATE_GOLDEN=1 if the change is intended)\n--- got ---\n%s\n--- want ---\n%s",
			path, stdout, want)
	}
}

// TestGoldenSARIF pins the -sarif output: the 2.1.0 envelope, one rule
// per registered check, module-relative slash paths, the
// file/line/col/check sort order, and result locations.
func TestGoldenSARIF(t *testing.T) {
	runGolden(t, "golden.sarif", "-sarif")
}

// TestListMatchesReadme pins `esvet -list` against the README check
// table: same checks, same order. A check added to the registry without
// a README row (or vice versa) fails here.
func TestListMatchesReadme(t *testing.T) {
	code, stdout, stderr := runCLI(t, "-list")
	if code != 0 {
		t.Fatalf("-list exit code = %d (stderr: %s)", code, stderr)
	}
	var listed []string
	for _, line := range strings.Split(strings.TrimSpace(stdout), "\n") {
		fields := strings.Fields(line)
		if len(fields) < 2 {
			t.Fatalf("unparseable -list line %q", line)
		}
		listed = append(listed, fields[0])
	}

	readme, err := os.ReadFile(filepath.Join("..", "..", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	// The check table starts at its "| check |" header row; its rows
	// look like: | `name` | invariant ... |
	_, table, ok := strings.Cut(string(readme), "\n| check |")
	if !ok {
		t.Fatal("README has no check table")
	}
	rowRE := regexp.MustCompile("^\\| `([a-z]+)` \\|")
	var documented []string
	for _, line := range strings.Split(table, "\n")[1:] {
		if !strings.HasPrefix(line, "|") {
			break
		}
		if m := rowRE.FindStringSubmatch(line); m != nil {
			documented = append(documented, m[1])
		}
	}

	if len(listed) != len(documented) {
		t.Fatalf("-list has %d checks, README table has %d rows:\n%v\nvs\n%v", len(listed), len(documented), listed, documented)
	}
	for i := range listed {
		if listed[i] != documented[i] {
			t.Errorf("row %d: -list says %v, README says %v", i, listed[i], documented[i])
		}
	}
	// And both must cover the registry exactly, in registration order.
	names := analysis.CheckNames()
	if len(names) != len(listed) {
		t.Fatalf("registry has %d checks, -list shows %d", len(names), len(listed))
	}
	for i, name := range names {
		if listed[i] != name {
			t.Errorf("registry order %d is %q, -list shows %q", i, name, listed[i])
		}
	}
}
