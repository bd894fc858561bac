// Command esvet runs the project's static-analysis suite: the invariant
// checks of internal/analysis that the Go compiler and `go vet` cannot
// express (deterministic randomness, wall-clock hygiene, goroutine
// lifecycles, lock copies, dropped transport errors, library prints,
// sleep-polling in the runtime, rank-divergent collectives, hot-path
// allocations, buffer ownership after SendOwned, undocumented config
// fields).
//
// Usage:
//
//	go run ./cmd/esvet            # analyze the enclosing module
//	go run ./cmd/esvet ./...      # same (the pattern is accepted for familiarity)
//	go run ./cmd/esvet -json      # machine-readable diagnostics
//	go run ./cmd/esvet -sarif     # SARIF 2.1.0 for code-scanning upload
//	go run ./cmd/esvet -check norand,mpierr
//	go run ./cmd/esvet -list      # print the check catalogue
//
// Exit status: 0 clean (warn-severity findings are report-only),
// 1 error-severity findings reported, 2 usage or load error.
package main

import (
	"encoding/json"
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
	jsonOut := fs.Bool("json", false, "emit diagnostics as a JSON array")
	sarifOut := fs.Bool("sarif", false, "emit diagnostics as a SARIF 2.1.0 log")
	checkList := fs.String("check", "", "comma-separated subset of checks to run (default: all)")
	list := fs.Bool("list", false, "list available checks and exit")
	root := fs.String("root", "", "module root to analyze (default: module enclosing the working directory)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *jsonOut && *sarifOut {
		fmt.Fprintln(stderr, "esvet: -json and -sarif are mutually exclusive")
		return 2
	}

	if *list {
		for _, c := range analysis.Checks() {
			fmt.Fprintf(stdout, "%-14s %-5s %s\n", c.Name, c.Severity, c.Doc)
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
	mod.TypeCheck()
	for _, p := range mod.Packages {
		if p.TypeErr != nil {
			// Checks degrade to their syntactic forms; tell the user why.
			fmt.Fprintf(stderr, "esvet: warning: type-checking %s: %v\n", p.RelPath, p.TypeErr)
		}
	}

	diags := analysis.RunChecks(mod.Packages, checks)
	switch {
	case *jsonOut:
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if diags == nil {
			diags = []analysis.Diagnostic{}
		}
		if err := enc.Encode(diags); err != nil {
			fmt.Fprintln(stderr, "esvet:", err)
			return 2
		}
	case *sarifOut:
		if err := writeSARIF(stdout, checks, diags); err != nil {
			fmt.Fprintln(stderr, "esvet:", err)
			return 2
		}
	default:
		for _, d := range diags {
			fmt.Fprintln(stdout, d)
		}
	}
	// Only error-severity findings gate the build; warnings are
	// report-only (they still appear in every output format above).
	errs := 0
	for _, d := range diags {
		if d.Severity != analysis.SevWarn.String() {
			errs++
		}
	}
	if len(diags) > 0 && !*jsonOut && !*sarifOut {
		fmt.Fprintf(stderr, "esvet: %d finding(s), %d gating\n", len(diags), errs)
	}
	if errs > 0 {
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
