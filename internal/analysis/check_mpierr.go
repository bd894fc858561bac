package analysis

import "go/ast"

// transportCalls are the method names whose error results carry the
// message-passing runtime's failure signal. A dropped Send error means a
// protocol message silently vanished — the engine then deadlocks or,
// worse, finishes with a corrupted edge set; a dropped Close error hides
// transport teardown failures that the next Run inherits.
var transportCalls = map[string]bool{
	"Send": true, "SendOwned": true, "Recv": true, "Close": true,
}

// checkMPIErr flags expression-statement calls (the completely ignored
// form) to Send/SendOwned/Recv/Close in the runtime and engine packages.
// An explicit `_ = x.Close()` or a `defer x.Close()` is a visible,
// deliberate decision and is allowed; silently dropping the result on
// the statement line is not. The rule is syntactic: any method of those
// names counts, whether or not its signature carries an error.
var checkMPIErr = &Check{
	Name: "mpierr",
	Doc: "forbid ignoring the error results of Send/SendOwned/Recv/Close " +
		"call statements in internal/mpi and internal/core",
	Run: func(p *Pass) {
		if !p.Pkg.Under(enginePaths...) {
			return
		}
		for _, f := range p.Pkg.Files {
			if f.Test {
				continue
			}
			ast.Inspect(f.Ast, func(n ast.Node) bool {
				stmt, ok := n.(*ast.ExprStmt)
				if !ok {
					return true
				}
				call, ok := stmt.X.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok || !transportCalls[sel.Sel.Name] {
					return true
				}
				p.Reportf(stmt.Pos(),
					"result of %s ignored: handle the error, or discard it explicitly with `_ = ...` if teardown makes it irrelevant",
					sel.Sel.Name)
				return true
			})
		}
	},
}
