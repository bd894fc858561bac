package main

import (
	"bytes"
	"encoding/json"
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

func TestRunJSON(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod":               fixtureGoMod,
		"internal/core/bad.go": badCore,
	})
	code, stdout, _ := runCLI(t, "-json", "-root", dir)
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	var diags []analysis.Diagnostic
	if err := json.Unmarshal([]byte(stdout), &diags); err != nil {
		t.Fatalf("output is not a diagnostic array: %v\n%s", err, stdout)
	}
	if len(diags) != 2 {
		t.Fatalf("got %d diagnostics, want 2: %v", len(diags), diags)
	}
	if diags[0].Check != "norand" || diags[0].File != "internal/core/bad.go" || diags[0].Line != 5 {
		t.Fatalf("unexpected first diagnostic: %+v", diags[0])
	}
}

func TestRunJSONCleanIsEmptyArray(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod":              fixtureGoMod,
		"internal/core/ok.go": cleanCore,
	})
	code, stdout, _ := runCLI(t, "-json", "-root", dir)
	if code != 0 {
		t.Fatalf("exit %d, want 0", code)
	}
	if strings.TrimSpace(stdout) != "[]" {
		t.Fatalf("clean JSON output %q, want []", stdout)
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
// that one clean), is a usage error naming the problem.
func TestRunNoModule(t *testing.T) {
	for _, tc := range []struct{ name, root, want string }{
		{"no go.mod", t.TempDir(), "no go.mod"},
		{"missing dir", filepath.Join("..", "..", "no-such-dir"), "no-such-dir"},
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

// TestWarnSeverityDoesNotGate: a module whose only findings are
// warn-severity must print them but exit 0.
func TestWarnSeverityDoesNotGate(t *testing.T) {
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
	if code != 0 {
		t.Fatalf("exit %d, want 0 (warnings are report-only)\nstdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
	if !strings.Contains(stdout, "[configdoc] warning:") {
		t.Fatalf("warning not reported:\n%s", stdout)
	}
	if !strings.Contains(stderr, "1 finding(s), 0 gating") {
		t.Fatalf("summary missing: %q", stderr)
	}
}

// runGolden executes one esvet invocation against the fixture module
// under testdata/module and compares stdout byte-for-byte with a golden
// file. Regenerate with UPDATE_GOLDEN=1 go test ./cmd/esvet.
func runGolden(t *testing.T, golden string, args ...string) {
	t.Helper()
	code, stdout, stderr := runCLI(t, append(args, "-root", filepath.Join("testdata", "module"))...)
	// The fixture trips one error-severity finding, so the run must gate.
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

// TestGoldenJSON pins the -json diagnostic schema: field names,
// severity strings, module-relative slash paths, and the
// file/line/col/check sort order.
func TestGoldenJSON(t *testing.T) {
	runGolden(t, "golden.json", "-json")
}

// TestGoldenSARIF pins the -sarif output: the 2.1.0 envelope, one rule
// per registered check with its gating level, and result locations.
func TestGoldenSARIF(t *testing.T) {
	runGolden(t, "golden.sarif", "-sarif")
}

// TestJSONSarifExclusive: the two machine formats cannot combine.
func TestJSONSarifExclusive(t *testing.T) {
	code, _, stderr := runCLI(t, "-json", "-sarif")
	if code != 2 || !strings.Contains(stderr, "mutually exclusive") {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
}

// TestListMatchesReadme pins `esvet -list` against the README check
// table: same checks, same order, same severity. A check added to the
// registry without a README row (or vice versa) fails here.
func TestListMatchesReadme(t *testing.T) {
	code, stdout, stderr := runCLI(t, "-list")
	if code != 0 {
		t.Fatalf("-list exit code = %d (stderr: %s)", code, stderr)
	}
	type row struct{ name, severity string }
	var listed []row
	for _, line := range strings.Split(strings.TrimSpace(stdout), "\n") {
		fields := strings.Fields(line)
		if len(fields) < 3 {
			t.Fatalf("unparseable -list line %q", line)
		}
		listed = append(listed, row{fields[0], fields[1]})
	}

	readme, err := os.ReadFile(filepath.Join("..", "..", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	// Check-table rows look like: | `name` | severity | invariant ... |
	rowRE := regexp.MustCompile("(?m)^\\| `([a-z]+)` \\| (error|warn) \\|")
	var documented []row
	for _, m := range rowRE.FindAllStringSubmatch(string(readme), -1) {
		documented = append(documented, row{m[1], m[2]})
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
		if listed[i].name != name {
			t.Errorf("registry order %d is %q, -list shows %q", i, name, listed[i].name)
		}
	}
}
