// Package analysis is a small, dependency-free static-analysis framework
// plus the project-specific checks behind cmd/esvet. The parallel engine
// is a message-passing state machine whose correctness rests on
// invariants the compiler cannot see: every random draw must flow through
// the deterministic internal/rng streams, every goroutine in the runtime
// must have an explicit lifecycle, and transport errors must not be
// dropped. Each check encodes one such invariant as a mechanical rule
// with file:line diagnostics, and every finding fails the build.
//
// A check belongs here only if no other gate catches its bug: planted in
// a copy of the tree, the bug must leave `go build`, `go vet`,
// `go test -timeout 5m ./...` and `make race` green (README's check
// table names each injection). Bugs the gates already catch are left to
// them: a read of an unmapped segment faults the tests; a wall-clock
// value feeding the run's randomness fails the determinism pins; a rank
// that skips a collective, sends under an unmatched tag or holds a lock
// its peers need across a collective hangs them until the test timeout;
// hot-path allocations fail the steady-state allocation pins; buffer
// ownership after mpi SendOwned fails `make race`; and by-value locks
// fail `go vet`'s copylocks.
//
// The framework reads syntax only, built on go/ast, go/parser and
// go/token without golang.org/x/tools: every check is a rule over one
// parsed file, and a package selector is recognised by its import name
// (see load.go for how a module is parsed). Each bug the checks exist
// for is syntactic, so no type information is resolved.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strconv"
	"strings"
)

// Diagnostic is one finding, positioned for editors (file:line:col).
type Diagnostic struct {
	Check   string
	File    string // module-relative path
	Line    int
	Col     int
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.File, d.Line, d.Col, d.Check, d.Message)
}

// Check is one named rule; Run inspects a single package per call.
type Check struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// Checks returns every registered check in presentation order. The
// README check table mirrors this order and TestListMatchesReadme pins
// the two together.
func Checks() []*Check {
	return []*Check{
		checkNoRand,
		checkGoLifecycle,
		checkMPIErr,
		checkNoPrint,
		checkNoPoll,
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
	position := p.Pkg.Fset.Position(pos)
	file := position.Filename
	if p.Pkg.Module != nil {
		file = p.Pkg.Module.Rel(file)
	}
	*p.out = append(*p.out, Diagnostic{
		Check:   p.check.Name,
		File:    file,
		Line:    position.Line,
		Col:     position.Column,
		Message: fmt.Sprintf(format, args...),
	})
}

// RunChecks executes the given checks (all registered ones if nil) over
// every package and returns the findings sorted by position.
func RunChecks(pkgs []*Package, checks []*Check) []Diagnostic {
	if checks == nil {
		checks = Checks()
	}
	var diags []Diagnostic
	for _, c := range checks {
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
// the local name of the given import in f. A local identifier that
// shadows the import is not told apart: the check overapproximates.
func isPkgSel(f *File, e ast.Expr, path, sel string) bool {
	s, ok := e.(*ast.SelectorExpr)
	if !ok || s.Sel.Name != sel {
		return false
	}
	id, ok := s.X.(*ast.Ident)
	if !ok {
		return false
	}
	name, imported := importLocalName(f.Ast, path)
	return imported && id.Name == name
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
