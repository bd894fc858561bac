package analysis

import "go/ast"

// printedFmtFuncs write to stdout implicitly.
var printedFmtFuncs = map[string]bool{"Print": true, "Printf": true, "Println": true}

// fprintFmtFuncs take an explicit writer as their first argument.
var fprintFmtFuncs = map[string]bool{"Fprint": true, "Fprintf": true, "Fprintln": true}

// checkNoPrint keeps terminal output out of library packages. The
// library's only sanctioned outputs are return values and errors;
// experiment tables go through an injected io.Writer (see
// internal/harness.Config.Out). A stray fmt.Println in internal/core
// corrupts the machine-readable output of cmd/experiments and edgeswitch
// pipelines, and hardcoding os.Stderr makes output uncapturable in
// tests. Only cmd/ may address the terminal directly.
var checkNoPrint = &Check{
	Name: "noprint",
	Doc: "forbid fmt.Print*/println and fmt.Fprint*(os.Stdout/os.Stderr, ...) " +
		"in library packages; only cmd/ may print",
	Run: func(p *Pass) {
		if p.Pkg.Under("cmd") {
			return
		}
		for _, f := range p.Pkg.Files {
			if f.Test {
				continue
			}
			ast.Inspect(f.Ast, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				switch fun := call.Fun.(type) {
				case *ast.Ident:
					// The print/println builtins write to stderr.
					if (fun.Name == "print" || fun.Name == "println") && isBuiltin(p, fun) {
						p.Reportf(call.Pos(), "builtin %s in library package %s: return values or write to an injected io.Writer instead", fun.Name, describePkg(p))
					}
				case *ast.SelectorExpr:
					if printedFmtFuncs[fun.Sel.Name] && p.isPkgSel(f, fun, "fmt", fun.Sel.Name) {
						p.Reportf(call.Pos(), "fmt.%s in library package %s: return values or write to an injected io.Writer instead", fun.Sel.Name, describePkg(p))
						return true
					}
					if fprintFmtFuncs[fun.Sel.Name] && p.isPkgSel(f, fun, "fmt", fun.Sel.Name) && len(call.Args) > 0 {
						for _, std := range []string{"Stdout", "Stderr"} {
							if p.isPkgSel(f, call.Args[0], "os", std) {
								p.Reportf(call.Pos(), "fmt.%s to os.%s in library package %s: write to an injected io.Writer so callers and tests can capture it", fun.Sel.Name, std, describePkg(p))
							}
						}
					}
				}
				return true
			})
		}
	},
}

// isBuiltin reports whether id resolves to a predeclared builtin (or, in
// the absence of type information, is not locally redeclared — best
// effort: assume builtin).
func isBuiltin(p *Pass, id *ast.Ident) bool {
	info := p.Pkg.TypesInfo
	if info == nil {
		return true
	}
	obj := info.Uses[id]
	if obj == nil {
		return true // test files and unresolved: assume builtin
	}
	return obj.Parent() == nil || obj.Pkg() == nil
}

// describePkg names the package in messages ("the module root" for "").
func describePkg(p *Pass) string {
	if p.Pkg.RelPath == "" {
		return "the module root"
	}
	return p.Pkg.RelPath
}
