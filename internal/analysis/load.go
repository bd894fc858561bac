package analysis

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Module is a parsed Go module: every package directory under the root,
// sharing one FileSet so positions are comparable across packages.
type Module struct {
	Root     string // absolute path of the directory holding go.mod
	Path     string // module path declared in go.mod
	Fset     *token.FileSet
	Packages []*Package // sorted by RelPath
}

// Rel converts an absolute file name into a module-relative path (the
// form diagnostics use). Paths outside the module are returned verbatim.
func (m *Module) Rel(file string) string {
	if r, err := filepath.Rel(m.Root, file); err == nil && !strings.HasPrefix(r, "..") {
		return filepath.ToSlash(r)
	}
	return file
}

// Package is one parsed package directory. The checks read its syntax
// only: no type information is resolved.
type Package struct {
	Name    string // package name from the first non-test file
	RelPath string // module-relative directory ("" for the module root)
	Dir     string // absolute directory
	Fset    *token.FileSet
	Files   []*File
	Module  *Module // nil for packages loaded standalone via LoadDir
}

// File is one parsed source file.
type File struct {
	Name        string // base name
	Path        string // absolute path
	Ast         *ast.File
	Test        bool // *_test.go
	BuildTagged bool // carries a //go:build (or legacy +build) constraint
}

// Under reports whether the package lies in or beneath any of the given
// module-relative directories.
func (p *Package) Under(prefixes ...string) bool {
	return under(p.RelPath, prefixes...)
}

// LoadModule parses every package directory beneath root (skipping
// testdata, vendor, hidden directories, and non-Go files). root must
// contain go.mod. Every file is parsed whatever its build constraint.
func LoadModule(root string) (*Module, error) {
	abs, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(filepath.Join(abs, "go.mod"))
	if err != nil {
		return nil, err
	}
	m := &Module{Root: abs, Path: modPath, Fset: token.NewFileSet()}
	err = filepath.WalkDir(abs, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != abs && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		pkg, err := loadDir(m.Fset, path)
		if err != nil {
			return err
		}
		if pkg == nil {
			return nil // no Go files here
		}
		rel, err := filepath.Rel(abs, path)
		if err != nil {
			return err
		}
		if rel == "." {
			rel = ""
		}
		pkg.RelPath = filepath.ToSlash(rel)
		pkg.Module = m
		m.Packages = append(m.Packages, pkg)
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(m.Packages, func(i, j int) bool { return m.Packages[i].RelPath < m.Packages[j].RelPath })
	return m, nil
}

// LoadDir parses the single directory dir as a package and labels it with
// the given module-relative path. Fixture tests use the label to
// impersonate real package locations (e.g. a testdata directory checked
// "as if" it were internal/core).
func LoadDir(dir, relPath string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	pkg, err := loadDir(token.NewFileSet(), abs)
	if err != nil {
		return nil, err
	}
	if pkg == nil {
		return nil, fmt.Errorf("analysis: no Go files in %s", dir)
	}
	pkg.RelPath = relPath
	return pkg, nil
}

// loadDir parses all Go files of one directory; nil if there are none.
func loadDir(fset *token.FileSet, dir string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	pkg := &Package{Dir: dir, Fset: fset}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") || strings.HasPrefix(e.Name(), ".") || strings.HasPrefix(e.Name(), "_") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("analysis: %w", err)
		}
		pkg.Files = append(pkg.Files, &File{
			Name:        e.Name(),
			Path:        path,
			Ast:         f,
			Test:        strings.HasSuffix(e.Name(), "_test.go"),
			BuildTagged: hasBuildConstraint(f),
		})
	}
	if len(pkg.Files) == 0 {
		return nil, nil
	}
	for _, f := range pkg.Files {
		if !f.Test {
			pkg.Name = f.Ast.Name.Name
			break
		}
	}
	if pkg.Name == "" {
		pkg.Name = pkg.Files[0].Ast.Name.Name
	}
	return pkg, nil
}

// hasBuildConstraint reports whether the file carries a build constraint
// comment before its package clause.
func hasBuildConstraint(f *ast.File) bool {
	for _, grp := range f.Comments {
		if grp.Pos() >= f.Package {
			break
		}
		for _, c := range grp.List {
			text := strings.TrimSpace(c.Text)
			if strings.HasPrefix(text, "//go:build ") || strings.HasPrefix(text, "// +build ") {
				return true
			}
		}
	}
	return false
}

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", fmt.Errorf("analysis: reading module file: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("analysis: no module directive in %s", gomod)
}
