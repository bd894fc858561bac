package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/types"
	"runtime"
	"strings"
)

// TypeCheck resolves type information for every package of the module,
// best effort: a package that fails to type-check records the error in
// TypeErr and keeps nil Types, and type-dependent checks skip it. Only
// non-test files participate (test files may form a separate _test
// package; the checks that run on them are purely syntactic), and files
// whose build constraint does not hold on the host platform are left
// out, so mutually exclusive per-OS variants of the same declarations
// (e.g. an mmap implementation and its portable fallback) do not
// collide as redeclarations.
//
// Module-internal imports are resolved by a custom importer that
// type-checks the imported directory recursively; everything else (the
// standard library) is delegated to go/importer's source importer, so
// the whole pipeline works without compiled export data or external
// tooling.
func (m *Module) TypeCheck() {
	im := &moduleImporter{
		mod:      m,
		byPath:   make(map[string]*Package, len(m.Packages)),
		checking: make(map[string]bool),
		fallback: importer.ForCompiler(m.Fset, "source", nil).(types.ImporterFrom),
	}
	for _, p := range m.Packages {
		im.byPath[m.importPathOf(p)] = p
	}
	for _, p := range m.Packages {
		im.check(m.importPathOf(p), p)
	}
}

// importPathOf maps a package to its import path within the module.
func (m *Module) importPathOf(p *Package) string {
	if p.RelPath == "" {
		return m.Path
	}
	return m.Path + "/" + p.RelPath
}

// TypeCheckStandalone type-checks a package loaded with LoadDir against
// the standard library only (fixtures import nothing else).
func TypeCheckStandalone(p *Package) {
	im := importer.ForCompiler(p.Fset, "source", nil)
	typeCheckInto(p, "fixture/"+p.RelPath, im)
}

// moduleImporter resolves module-internal import paths from parsed
// source and delegates the rest to the stdlib source importer.
type moduleImporter struct {
	mod      *Module
	byPath   map[string]*Package
	checking map[string]bool // import cycle guard
	fallback types.ImporterFrom
}

func (im *moduleImporter) Import(path string) (*types.Package, error) {
	return im.ImportFrom(path, im.mod.Root, 0)
}

func (im *moduleImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if p, ok := im.byPath[path]; ok {
		im.check(path, p)
		if p.Types == nil {
			return nil, fmt.Errorf("analysis: type-checking %s: %w", path, p.TypeErr)
		}
		return p.Types, nil
	}
	return im.fallback.ImportFrom(path, dir, mode)
}

// check type-checks one module package (idempotent).
func (im *moduleImporter) check(path string, p *Package) {
	if p.Types != nil || p.TypeErr != nil {
		return
	}
	if im.checking[path] {
		p.TypeErr = fmt.Errorf("analysis: import cycle through %s", path)
		return
	}
	im.checking[path] = true
	defer delete(im.checking, path)
	typeCheckInto(p, path, im)
}

// typeCheckInto runs go/types over the package's non-test files that
// build on the host platform.
func typeCheckInto(p *Package, path string, im types.Importer) {
	var files []*ast.File
	for _, f := range p.Files {
		if !f.Test && (f.Constraint == nil || f.Constraint.Eval(hostBuildTag)) {
			files = append(files, f.Ast)
		}
	}
	if len(files) == 0 {
		p.TypeErr = fmt.Errorf("analysis: package %s has only test files", path)
		return
	}
	info := &types.Info{
		Types: make(map[ast.Expr]types.TypeAndValue),
		Uses:  make(map[*ast.Ident]types.Object),
	}
	conf := types.Config{
		Importer: im,
		Error:    func(error) {}, // collect everything; first error returned by Check
	}
	pkg, err := conf.Check(path, p.Fset, files, info)
	if err != nil {
		p.TypeErr = err
		return
	}
	p.Types = pkg
	p.TypesInfo = info
}

// hostBuildTag reports whether a build tag is satisfied on the host:
// the running GOOS/GOARCH, the umbrella "unix" tag, the gc compiler,
// and every go1.N release tag. Custom tags (debug gates and the like)
// are unsatisfied, matching a plain `go build`.
func hostBuildTag(tag string) bool {
	switch tag {
	case runtime.GOOS, runtime.GOARCH, "gc":
		return true
	case "unix":
		switch runtime.GOOS {
		case "linux", "darwin", "freebsd", "netbsd", "openbsd", "solaris", "aix", "dragonfly", "illumos", "ios":
			return true
		}
		return false
	}
	return strings.HasPrefix(tag, "go1.")
}

// resolvePkgName reports whether id resolves to the package named by path.
func resolvePkgName(info *types.Info, id *ast.Ident, path string) bool {
	pn, ok := info.Uses[id].(*types.PkgName)
	return ok && pn.Imported().Path() == path
}
