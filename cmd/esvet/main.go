// Command esvet runs the project's static-analysis suite: the checks of
// internal/analysis for the invariants that no test, `go vet` or race
// gate catches (deterministic randomness, goroutine lifecycles, dropped
// transport errors, library prints, sleep-polling in the runtime,
// undocumented config fields).
//
// Usage:
//
//	go run ./cmd/esvet            # analyze the enclosing module
//	go run ./cmd/esvet ./...      # same (the pattern is accepted for familiarity)
//	go run ./cmd/esvet -sarif     # SARIF 2.1.0 for code-scanning upload
//	go run ./cmd/esvet -check norand,mpierr
//	go run ./cmd/esvet -list      # print the check catalogue
//
// Exit status: 0 clean, 1 findings reported, 2 usage or load error.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"edgeswitch/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("esvet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	sarifOut := fs.Bool("sarif", false, "emit diagnostics as a SARIF 2.1.0 log")
	checkList := fs.String("check", "", "comma-separated subset of checks to run (default: all)")
	list := fs.Bool("list", false, "list available checks and exit")
	root := fs.String("root", "", "module root to analyze (default: module enclosing the working directory)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, c := range analysis.Checks() {
			fmt.Fprintf(stdout, "%-14s %s\n", c.Name, c.Doc)
		}
		return 0
	}

	checks, err := selectChecks(*checkList)
	if err != nil {
		fmt.Fprintln(stderr, "esvet:", err)
		return 2
	}

	dir := *root
	if dir == "" {
		// Accept a single "./..."-style pattern or directory operand.
		if rest := fs.Args(); len(rest) == 1 && !strings.Contains(rest[0], "...") {
			dir = rest[0]
		} else {
			dir = "."
		}
	}
	moduleRoot, err := findModuleRoot(dir)
	if err != nil {
		fmt.Fprintln(stderr, "esvet:", err)
		return 2
	}

	mod, err := analysis.LoadModule(moduleRoot)
	if err != nil {
		fmt.Fprintln(stderr, "esvet:", err)
		return 2
	}

	diags := analysis.RunChecks(mod.Packages, checks)
	if *sarifOut {
		if err := writeSARIF(stdout, checks, diags); err != nil {
			fmt.Fprintln(stderr, "esvet:", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(stdout, d)
		}
		if len(diags) > 0 {
			fmt.Fprintf(stderr, "esvet: %d finding(s)\n", len(diags))
		}
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}

// selectChecks resolves the -check flag into a check list (nil = all).
func selectChecks(spec string) ([]*analysis.Check, error) {
	if spec == "" {
		return nil, nil
	}
	byName := make(map[string]*analysis.Check)
	for _, c := range analysis.Checks() {
		byName[c.Name] = c
	}
	var out []*analysis.Check
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		c, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("unknown check %q (have: %s)", name, strings.Join(analysis.CheckNames(), ", "))
		}
		out = append(out, c)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-check selected no checks")
	}
	return out, nil
}

// findModuleRoot walks up from dir, which must exist, to the nearest
// directory with go.mod.
func findModuleRoot(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	if _, err := os.Stat(abs); err != nil {
		return "", err
	}
	for d := abs; ; {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", fmt.Errorf("no go.mod found above %s", abs)
		}
		d = parent
	}
}
