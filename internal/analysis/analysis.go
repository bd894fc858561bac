// Package analysis is a small, dependency-free static-analysis framework
// plus the project-specific checks behind cmd/esvet. The parallel engine
// is a message-passing state machine whose correctness rests on
// invariants the compiler cannot see: every random draw must flow through
// the deterministic internal/rng streams, wall-clock reads must stay out
// of deterministic paths, every goroutine in the runtime must have an
// explicit lifecycle, and transport errors must not be dropped. Each
// check encodes one such invariant as a mechanical rule with file:line
// diagnostics, so a violation is caught by `go run ./cmd/esvet` (or the
// test suite) instead of by a silently biased benchmark run.
//
// Invariants another gate already measures are deliberately left out:
// hot-path allocations are pinned by the steady-state Mallocs and
// testing.AllocsPerRun tests, buffer ownership after mpi SendOwned by the
// race detector (`make race`), and by-value locks by `go vet`'s
// copylocks.
//
// The framework is built only on go/ast, go/parser, go/token and
// go/types; see load.go for how a module is parsed and type-checked
// without golang.org/x/tools.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strconv"
	"strings"
)

// Severity grades a finding. SevError findings gate CI (`make check`
// fails, esvet exits 1); SevWarn findings are report-only — printed and
// carried into JSON/SARIF output, but never fail the build.
type Severity int

const (
	SevError Severity = iota
	SevWarn
)

func (s Severity) String() string {
	if s == SevWarn {
		return "warn"
	}
	return "error"
}

// Diagnostic is one finding, positioned for editors (file:line:col).
type Diagnostic struct {
	Check    string `json:"check"`
	Severity string `json:"severity"` // "error" or "warn"
	File     string `json:"file"`     // module-relative path
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
}

func (d Diagnostic) String() string {
	sev := ""
	if d.Severity == SevWarn.String() {
		sev = "warning: "
	}
	return fmt.Sprintf("%s:%d:%d: [%s] %s%s", d.File, d.Line, d.Col, d.Check, sev, d.Message)
}

// Check is one named rule. Exactly one of Run and RunModule is set:
// Run inspects a single package per call; RunModule runs once over the
// whole package set (for rules that need the cross-package call graph).
// The zero Severity is SevError — report-only checks opt into SevWarn.
type Check struct {
	Name      string
	Doc       string
	Severity  Severity
	Run       func(*Pass)
	RunModule func(*ModulePass)
}

// Checks returns every registered check in presentation order. The
// README check table mirrors this order and TestListMatchesReadme pins
// the two together.
func Checks() []*Check {
	return []*Check{
		checkNoRand,
		checkNoTime,
		checkGoLifecycle,
		checkMPIErr,
		checkNoPrint,
		checkNoPoll,
		checkTag,
		checkLockCollective,
		checkCollSync,
		checkMmapLife,
		checkConfigDoc,
	}
}

// CheckNames returns the names of all registered checks.
func CheckNames() []string {
	cs := Checks()
	names := make([]string, len(cs))
	for i, c := range cs {
		names[i] = c.Name
	}
	return names
}

// Pass carries one (check, package) run and collects its diagnostics.
type Pass struct {
	Pkg   *Package
	check *Check
	out   *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.out = append(*p.out, diagnostic(p.check, p.Pkg, pos, format, args...))
}

// ModulePass carries one whole-module check run: the rule sees every
// package at once (module checks build cross-package structures like the
// call graph) and reports findings against the package owning each
// position.
type ModulePass struct {
	Pkgs  []*Package
	check *Check
	out   *[]Diagnostic
}

// Reportf records a finding at pos, which must belong to pkg's FileSet.
func (p *ModulePass) Reportf(pkg *Package, pos token.Pos, format string, args ...any) {
	*p.out = append(*p.out, diagnostic(p.check, pkg, pos, format, args...))
}

func diagnostic(c *Check, pkg *Package, pos token.Pos, format string, args ...any) Diagnostic {
	position := pkg.Fset.Position(pos)
	file := position.Filename
	if pkg.Module != nil {
		file = pkg.Module.Rel(file)
	}
	return Diagnostic{
		Check:    c.Name,
		Severity: c.Severity.String(),
		File:     file,
		Line:     position.Line,
		Col:      position.Column,
		Message:  fmt.Sprintf(format, args...),
	}
}

// RunChecks executes the given checks (all registered ones if nil) over
// the packages and returns the findings sorted by position. Package
// checks run once per package; module checks run once over the whole
// set.
func RunChecks(pkgs []*Package, checks []*Check) []Diagnostic {
	if checks == nil {
		checks = Checks()
	}
	var diags []Diagnostic
	for _, c := range checks {
		if c.RunModule != nil {
			c.RunModule(&ModulePass{Pkgs: pkgs, check: c, out: &diags})
			continue
		}
		for _, pkg := range pkgs {
			c.Run(&Pass{Pkg: pkg, check: c, out: &diags})
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Check < b.Check
	})
	return diags
}

// deterministicPaths are the packages whose behaviour must be a pure
// function of the experiment seed (see DESIGN.md): no wall clock, no
// global randomness.
var deterministicPaths = []string{"internal/core", "internal/rng", "internal/partition"}

// enginePaths are the message-passing runtime and the engine built on it,
// where goroutine lifecycles and transport errors are load-bearing.
var enginePaths = []string{"internal/mpi", "internal/core"}

// under reports whether rel equals one of the prefixes or lies beneath one.
func under(rel string, prefixes ...string) bool {
	for _, p := range prefixes {
		if rel == p || strings.HasPrefix(rel, p+"/") {
			return true
		}
	}
	return false
}

// importLocalName returns the identifier by which file f refers to the
// import with the given path ("" and false when not imported; "." dot
// imports and "_" blank imports return their literal alias).
func importLocalName(f *ast.File, path string) (string, bool) {
	for _, spec := range f.Imports {
		p, err := strconv.Unquote(spec.Path.Value)
		if err != nil || p != path {
			continue
		}
		if spec.Name != nil {
			return spec.Name.Name, true
		}
		// Default name: last path element (exact for every stdlib
		// package the checks care about).
		if i := strings.LastIndex(p, "/"); i >= 0 {
			return p[i+1:], true
		}
		return p, true
	}
	return "", false
}

// isPkgSel reports whether e is a selector pkgName.sel where pkgName is
// the local name of the given import in f. When type information is
// available it additionally verifies the identifier resolves to the
// package (ruling out shadowing by a local variable).
func (p *Pass) isPkgSel(f *File, e ast.Expr, path, sel string) bool {
	s, ok := e.(*ast.SelectorExpr)
	if !ok || s.Sel.Name != sel {
		return false
	}
	id, ok := s.X.(*ast.Ident)
	if !ok {
		return false
	}
	name, imported := importLocalName(f.Ast, path)
	if !imported || id.Name != name {
		return false
	}
	// With type information, rule out shadowing by a local identifier;
	// test files are parsed but not type-checked, so they fall back to
	// the syntactic answer.
	if info := p.Pkg.TypesInfo; info != nil {
		if obj := info.Uses[id]; obj != nil {
			return resolvePkgName(info, id, path)
		}
	}
	return true
}

// commentLines returns the set of source lines in f that carry a comment
// containing the given marker.
func commentLines(fset *token.FileSet, f *ast.File, marker string) map[int]bool {
	lines := make(map[int]bool)
	for _, grp := range f.Comments {
		for _, c := range grp.List {
			if strings.Contains(c.Text, marker) {
				start := fset.Position(c.Pos()).Line
				end := fset.Position(c.End()).Line
				for l := start; l <= end; l++ {
					lines[l] = true
				}
			}
		}
	}
	return lines
}
