package main

import (
	"bytes"
	"strings"
	"testing"

	"edgeswitch/internal/harness"
)

// TestList: -list prints one line per experiment, led by its id.
func TestList(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-list"}, &out, &errOut); code != 0 {
		t.Fatalf("-list exited %d: %s", code, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")[1:]
	exps := harness.Experiments()
	if len(exps) != 18 || len(lines) != len(exps) {
		t.Fatalf("-list printed %d experiment lines for %d experiments, want 18", len(lines), len(exps))
	}
	for i, e := range exps {
		if f := strings.Fields(lines[i]); len(f) == 0 || f[0] != e.ID {
			t.Errorf("line %d is %q, want experiment %s", i+1, lines[i], e.ID)
		}
	}
}

// TestExitCodes: a quick run succeeds, an unknown experiment fails with
// 1 and a missing -run is a usage error.
func TestExitCodes(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want int
	}{
		{[]string{"-run", "table2", "-quick"}, 0},
		{[]string{"-run", "nosuch", "-quick"}, 1},
		{nil, 2},
		{[]string{"-bogus"}, 2},
	} {
		var out, errOut bytes.Buffer
		if code := run(tc.args, &out, &errOut); code != tc.want {
			t.Errorf("experiments %v exited %d, want %d (stderr %q)", tc.args, code, tc.want, errOut.String())
		}
	}
}
