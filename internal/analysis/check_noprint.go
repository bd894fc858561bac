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
					// The print/println builtins write to stderr. Read from
					// syntax alone, a local function of either name counts.
					if fun.Name == "print" || fun.Name == "println" {
						p.Reportf(call.Pos(), "builtin %s in library package %s: return values or write to an injected io.Writer instead", fun.Name, describePkg(p))
					}
				case *ast.SelectorExpr:
					if printedFmtFuncs[fun.Sel.Name] && isPkgSel(f, fun, "fmt", fun.Sel.Name) {
						p.Reportf(call.Pos(), "fmt.%s in library package %s: return values or write to an injected io.Writer instead", fun.Sel.Name, describePkg(p))
						return true
					}
					if fprintFmtFuncs[fun.Sel.Name] && isPkgSel(f, fun, "fmt", fun.Sel.Name) && len(call.Args) > 0 {
						for _, std := range []string{"Stdout", "Stderr"} {
							if isPkgSel(f, call.Args[0], "os", std) {
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

// describePkg names the package in messages ("the module root" for "").
func describePkg(p *Pass) string {
	if p.Pkg.RelPath == "" {
		return "the module root"
	}
	return p.Pkg.RelPath
}
