package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// lockCollMarker waives one collective call site that must run under a
// lock (e.g. a teardown barrier where the peers are already gone and
// the lock only guards local state). The comment must say why.
const lockCollMarker = "lockcollective:"

// collectiveCalls are the Comm methods that block until every rank in
// the world has entered them. Calling one while holding a mutex is a
// distributed-deadlock recipe: rank A blocks in the collective holding
// mu, rank B blocks on mu on its way to the collective, and the world
// hangs with no goroutine runnable locally — the race detector and unit
// tests cannot see it because it needs a particular cross-rank
// interleaving.
var collectiveCalls = map[string]bool{
	"Barrier":         true,
	"Bcast":           true,
	"Gather":          true,
	"Allgather":       true,
	"Alltoall":        true,
	"AllreduceInt64s": true,
}

var lockAcquire = map[string]bool{"Lock": true, "RLock": true}
var lockRelease = map[string]bool{"Unlock": true, "RUnlock": true}

// checkLockCollective flags collective operations invoked while a mutex
// is (conservatively) held, in internal/mpi and internal/core. It is a
// per-function linear scan, not a dataflow analysis: a `mu.Lock()` marks
// mu held until a plain `mu.Unlock()` is seen in source order; a
// `defer mu.Unlock()` keeps mu held through the rest of the function
// (that is what defer means for every statement that follows); function
// literals start a fresh scope (they run at an unknown time, and goroutine
// bodies take their own locks). Unlocks inside one branch of an if/select
// clear the held state for the scan that follows — an under-approximation,
// never a false positive from branch merging.
//
// Waive a site with a `// lockcollective: <reason>` annotation on its
// line or the line above.
var checkLockCollective = &Check{
	Name: "lockcollective",
	Doc: "forbid blocking collectives (Barrier, Gather, Allreduce, ...) " +
		"while holding a mutex in internal/mpi and internal/core",
	Run: func(p *Pass) {
		if !p.Pkg.Under(enginePaths...) {
			return
		}
		for _, f := range p.Pkg.Files {
			if f.Test || f.BuildTagged {
				continue
			}
			annotated := commentLines(p.Pkg.Fset, f.Ast, lockCollMarker)
			for _, decl := range f.Ast.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil {
					continue
				}
				scanLockedRegion(p, fn.Body, annotated)
			}
		}
	},
}

// scanLockedRegion walks one function (or function-literal) body in
// source order, tracking which mutexes are held and reporting collective
// calls made while the held set is non-empty.
func scanLockedRegion(p *Pass, body *ast.BlockStmt, annotated map[int]bool) {
	held := make(map[string]token.Pos) // mutex expr -> Lock position
	// Deferred unlocks release at function exit, so for the purpose of
	// this source-order scan they never release: remember their call
	// nodes so the Unlock handling below skips them.
	deferred := make(map[*ast.CallExpr]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			// Fresh scope: the literal runs at an unknown time with its
			// own lock discipline (goroutine bodies, callbacks).
			scanLockedRegion(p, n.Body, annotated)
			return false
		case *ast.DeferStmt:
			if sel, ok := n.Call.Fun.(*ast.SelectorExpr); ok && lockRelease[sel.Sel.Name] {
				deferred[n.Call] = true
			}
			return true
		case *ast.CallExpr:
			sel, ok := n.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			name := sel.Sel.Name
			switch {
			case lockAcquire[name] && len(n.Args) == 0:
				held[types.ExprString(sel.X)] = n.Pos()
			case lockRelease[name] && len(n.Args) == 0:
				if !deferred[n] {
					delete(held, types.ExprString(sel.X))
				}
			case collectiveCalls[name] && len(held) > 0:
				line := p.Pkg.Fset.Position(n.Pos()).Line
				if annotated[line] || annotated[line-1] {
					return true
				}
				for mu, pos := range held {
					p.Reportf(n.Pos(),
						"collective %s called while holding %s (locked at line %d): a blocked peer deadlocks the world (annotate with // %s <reason> if unavoidable)",
						name, mu, p.Pkg.Fset.Position(pos).Line, lockCollMarker)
				}
			}
			return true
		}
		return true
	})
}
