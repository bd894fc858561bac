package analysis

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestAnnotationsDocumented pins the annotation registry three ways:
// every annotation belongs to a registered check, markers are unique,
// and every marker appears (backtick-quoted) in the README's
// annotation table — a new marker cannot ship undocumented.
func TestAnnotationsDocumented(t *testing.T) {
	checks := make(map[string]bool)
	for _, name := range CheckNames() {
		checks[name] = true
	}
	readmeBytes, err := os.ReadFile(filepath.Join("..", "..", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	readme := string(readmeBytes)

	seen := make(map[string]bool)
	for _, a := range Annotations() {
		if a.Marker == "" || a.Doc == "" {
			t.Errorf("annotation %+v incompletely registered", a)
		}
		if !checks[a.Check] {
			t.Errorf("annotation %q names unregistered check %q", a.Marker, a.Check)
		}
		if seen[a.Marker] {
			t.Errorf("duplicate marker %q", a.Marker)
		}
		seen[a.Marker] = true
		if !strings.Contains(readme, "`// "+a.Marker+"`") {
			t.Errorf("marker %q is not documented in README.md", a.Marker)
		}
	}

	// Every check that honors a marker must have it in the registry:
	// the per-check marker constants are the ground truth.
	for _, marker := range []string{
		lifecycleMarker, nopollMarker,
	} {
		if !seen[marker] {
			t.Errorf("marker constant %q missing from Annotations()", marker)
		}
	}
}
