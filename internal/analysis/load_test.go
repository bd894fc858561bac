package analysis

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestLoadModuleRefusals: a module LoadModule cannot read is refused with
// an error naming the problem (cmd/esvet exits 2 on each).
func TestLoadModuleRefusals(t *testing.T) {
	for _, tc := range []struct {
		name  string
		files map[string]string
		want  string
	}{
		{"no go.mod", map[string]string{"internal/core/ok.go": "package core\n"}, "reading module file"},
		{"no module directive", map[string]string{"go.mod": "go 1.21\n"}, "no module directive"},
		{"unparsable file", map[string]string{
			"go.mod":               "module fixturemod\n",
			"internal/core/bad.go": "package core\n\nfunc (\n",
		}, "bad.go"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			for name, src := range tc.files {
				path := filepath.Join(dir, filepath.FromSlash(name))
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			mod, err := LoadModule(dir)
			if err == nil {
				t.Fatalf("loaded %d packages, want an error naming %q", len(mod.Packages), tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not name %q", err, tc.want)
			}
		})
	}
}
