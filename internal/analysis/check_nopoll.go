package analysis

import (
	"go/ast"
	"go/token"
)

// nopollMarker waives the rule for a specific sleep when polling is
// genuinely the only option (e.g. watching an external process that
// exposes no wait handle). The comment must say why.
const nopollMarker = "nopoll:"

// checkNoPoll forbids unbounded sleep-polling in the runtime packages.
// A time.Sleep inside a loop is a latency/CPU trade picked blind: too
// short burns a core, too long adds tail latency to every startup and
// shutdown, and either way the loop wakes on a clock instead of on the
// event it is waiting for. internal/mpi and internal/core block on
// sync.Cond, channels or timers instead (the mailbox, hub writers and
// the distributed hub are all cond-based). A sleep whose loop genuinely
// cannot block — retrying an external resource with backoff — must
// either wait on a timer channel or carry a `// nopoll: <reason>`
// annotation on its line or the line above.
var checkNoPoll = &Check{
	Name: "nopoll",
	Doc: "forbid time.Sleep inside loops in internal/mpi and internal/core " +
		"(sleep-polling); block on a sync.Cond, channel or timer instead",
	Run: func(p *Pass) {
		if !p.Pkg.Under(enginePaths...) {
			return
		}
		for _, f := range p.Pkg.Files {
			if f.Test || f.BuildTagged {
				continue
			}
			if _, imported := importLocalName(f.Ast, "time"); !imported {
				continue
			}
			annotated := commentLines(p.Pkg.Fset, f.Ast, nopollMarker)
			seen := make(map[token.Pos]bool) // dedup sleeps under nested loops
			ast.Inspect(f.Ast, func(n ast.Node) bool {
				var body *ast.BlockStmt
				switch n := n.(type) {
				case *ast.ForStmt:
					body = n.Body
				case *ast.RangeStmt:
					body = n.Body
				default:
					return true
				}
				loopCalls(body, func(call *ast.CallExpr) {
					if !isPkgSel(f, call.Fun, "time", "Sleep") || seen[call.Pos()] {
						return
					}
					seen[call.Pos()] = true
					line := p.Pkg.Fset.Position(call.Pos()).Line
					if annotated[line] || annotated[line-1] {
						return
					}
					p.Reportf(call.Pos(),
						"time.Sleep in a loop is sleep-polling: block on a sync.Cond, channel or timer, or annotate with // %s <reason>",
						nopollMarker)
				})
				return true
			})
		}
	},
}

// loopCalls invokes fn for every call expression in body without
// descending into nested function literals: a goroutine or closure body
// has its own control flow and is judged by the loops it itself
// contains.
func loopCalls(body *ast.BlockStmt, fn func(*ast.CallExpr)) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			fn(n)
		}
		return true
	})
}
