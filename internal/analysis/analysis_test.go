package analysis

import (
	"path/filepath"
	"strings"
	"testing"
)

// checkByName resolves a registered check for the fixture table.
func checkByName(t *testing.T, name string) *Check {
	t.Helper()
	for _, c := range Checks() {
		if c.Name == name {
			return c
		}
	}
	t.Fatalf("no registered check %q", name)
	return nil
}

// loadFixture parses testdata/<check>/<variant> impersonating the given
// module-relative path.
func loadFixture(t *testing.T, check, variant, as string) *Package {
	t.Helper()
	pkg, err := LoadDir(filepath.Join("testdata", check, variant), as)
	if err != nil {
		t.Fatal(err)
	}
	return pkg
}

// finding is the (file base name, line) shape the fixture table asserts.
type finding struct {
	file string
	line int
}

func TestChecksOnFixtures(t *testing.T) {
	tests := []struct {
		name    string
		check   string
		variant string
		as      string    // impersonated module-relative package path
		want    []finding // nil: the fixture must come back clean
		msg     string    // substring required in every message
	}{
		{
			name:  "norand fires in a deterministic package",
			check: "norand", variant: "bad", as: "internal/core",
			want: []finding{{"bad.go", 6}, {"bad.go", 7}},
			msg:  "internal/rng",
		},
		{
			name:  "norand exempts internal/rng itself",
			check: "norand", variant: "bad", as: "internal/rng",
		},
		{
			name:  "norand silent on clean code",
			check: "norand", variant: "good", as: "internal/core",
		},
		{
			name:  "golifecycle fires in the runtime",
			check: "golifecycle", variant: "bad", as: "internal/mpi",
			want: []finding{{"bad.go", 7}, {"bad.go", 10}, {"bad.go", 11}},
			msg:  "unmanaged goroutine",
		},
		{
			name:  "golifecycle exempts non-engine packages",
			check: "golifecycle", variant: "bad", as: "internal/metrics",
		},
		{
			name:  "golifecycle accepts Done, recover and annotations",
			check: "golifecycle", variant: "good", as: "internal/mpi",
		},
		{
			name:  "mpierr fires on dropped transport errors",
			check: "mpierr", variant: "bad", as: "internal/mpi",
			want: []finding{{"bad.go", 19}, {"bad.go", 20}, {"bad.go", 24}, {"bad.go", 28}},
			msg:  "ignored",
		},
		{
			name:  "mpierr exempts non-engine packages",
			check: "mpierr", variant: "bad", as: "cmd/edgeswitch",
		},
		{
			name:  "mpierr accepts handled, discarded and deferred errors",
			check: "mpierr", variant: "good", as: "internal/mpi",
		},
		{
			name:  "noprint fires in library packages",
			check: "noprint", variant: "bad", as: "internal/metrics",
			want: []finding{{"bad.go", 12}, {"bad.go", 13}, {"bad.go", 14}, {"bad.go", 15}},
			msg:  "internal/metrics",
		},
		{
			name:  "noprint exempts cmd",
			check: "noprint", variant: "bad", as: "cmd/edgeswitch",
		},
		{
			name:  "noprint silent on injected writers",
			check: "noprint", variant: "good", as: "internal/metrics",
		},
		{
			name:  "nopoll fires on sleep loops in the runtime",
			check: "nopoll", variant: "bad", as: "internal/mpi",
			want: []finding{{"bad.go", 7}, {"bad.go", 14}},
			msg:  "sleep-polling",
		},
		{
			name:  "nopoll exempts non-engine packages",
			check: "nopoll", variant: "bad", as: "internal/harness",
		},
		{
			name:  "nopoll accepts blocking waits and annotated sleeps",
			check: "nopoll", variant: "good", as: "internal/mpi",
		},
		{
			name:  "nopoll overapproximates shadowing without type info",
			check: "nopoll", variant: "shadow", as: "internal/mpi",
			want: []finding{{"shadow.go", 15}},
		},
		{
			name:  "configdoc fires on undocumented exported config fields",
			check: "configdoc", variant: "bad", as: "internal/core",
			want: []finding{
				{"bad.go", 7},  // Config.Workers
				{"bad.go", 13}, // DialOptions.Addr
				{"bad.go", 14}, // DialOptions.Timeout
			},
			msg: "doc comment",
		},
		{
			name:  "configdoc accepts documented, trailing-comment and embedded fields",
			check: "configdoc", variant: "good", as: "internal/core",
		},
	}

	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			pkg := loadFixture(t, tt.check, tt.variant, tt.as)
			diags := RunChecks([]*Package{pkg}, []*Check{checkByName(t, tt.check)})
			if len(diags) != len(tt.want) {
				t.Fatalf("got %d diagnostics, want %d:\n%v", len(diags), len(tt.want), diags)
			}
			for i, d := range diags {
				if d.Check != tt.check {
					t.Errorf("diagnostic %d attributed to %q, want %q", i, d.Check, tt.check)
				}
				if got := filepath.Base(d.File); got != tt.want[i].file {
					t.Errorf("diagnostic %d in %s, want %s", i, got, tt.want[i].file)
				}
				if d.Line != tt.want[i].line {
					t.Errorf("diagnostic %d at line %d, want %d (%s)", i, d.Line, tt.want[i].line, d)
				}
				if tt.msg != "" && !strings.Contains(d.Message, tt.msg) {
					t.Errorf("diagnostic %d message %q missing %q", i, d.Message, tt.msg)
				}
			}
		})
	}
}

func TestCheckCatalogue(t *testing.T) {
	names := CheckNames()
	if len(names) < 6 {
		t.Fatalf("expected at least 6 checks, have %v", names)
	}
	seen := make(map[string]bool)
	for _, c := range Checks() {
		if c.Name == "" || c.Doc == "" {
			t.Fatalf("check %+v incompletely registered", c)
		}
		if c.Run == nil {
			t.Fatalf("check %q has no Run", c.Name)
		}
		if seen[c.Name] {
			t.Fatalf("duplicate check name %q", c.Name)
		}
		seen[c.Name] = true
	}
}

func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{Check: "norand", File: "internal/core/engine.go", Line: 12, Col: 2, Message: "boom"}
	if got, want := d.String(), "internal/core/engine.go:12:2: [norand] boom"; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}

// TestModuleIsClean is the suite's own gate: the enclosing repository
// must pass every check (the CI equivalent of `go run ./cmd/esvet`).
func TestModuleIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("full-module type check is slow")
	}
	mod, err := LoadModule(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if len(mod.Packages) < 8 {
		t.Fatalf("suspiciously few packages loaded: %d", len(mod.Packages))
	}
	if diags := RunChecks(mod.Packages, nil); len(diags) != 0 {
		for _, d := range diags {
			t.Error(d)
		}
	}
}
