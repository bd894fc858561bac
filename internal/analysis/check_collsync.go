package analysis

import (
	"go/ast"
	"go/token"
	"go/types"

	"edgeswitch/internal/analysis/flow"
)

// collsyncMarker waives one collective (or collective-performing call)
// site under a rank-dependent branch, when every rank provably takes
// the same path (e.g. the branch re-derives a value that is identical
// on all ranks). The comment must say why.
const collsyncMarker = "collsync:"

// checkCollSync flags collectives that only some ranks reach. A
// collective (Barrier, Gather, Allreduce, ...) blocks until every rank
// in the world has entered it; if the call site sits behind a branch
// whose condition depends on the local rank — `if c.Rank() == 0 {
// c.Barrier() }`, or an early `if rank != 0 { return }` with a
// collective after it — then rank 0 parks inside the collective while
// the other ranks sail past, and the world deadlocks with every local
// goroutine either blocked or idle. lockcollective cannot see this
// shape (no mutex is involved), and unit tests only see it under the
// cross-rank schedule that makes the branch disagree.
//
// The rule runs on the flow layer. Per function, build the CFG and find
// branch blocks whose condition is rank-tainted (mentions Rank()/rank
// directly, or a local variable assigned from such an expression). A
// collective site that is reachable from some but not all successors of
// such a branch diverges: which ranks arrive depends on which arm they
// took. The check is interprocedural through the module call graph: a
// call to a function that (transitively, via static calls) performs a
// collective counts as a collective site too, so hiding the Barrier one
// call deep does not hide the bug. Calls inside function literals are
// not analyzed against the enclosing function's branches (a literal
// runs at an unknown time); the call graph still attributes them for
// the transitive "performs a collective" computation.
//
// Waive a site with `// collsync: <reason>` on its line or the line
// above.
var checkCollSync = &Check{
	Name: "collsync",
	Doc: "forbid collectives reachable by only some ranks: collective call " +
		"sites must not sit behind rank-dependent branches or early returns " +
		"(interprocedural, in internal/mpi and internal/core)",
	RunModule: func(p *ModulePass) {
		performs := collectivePerformers(p.Pkgs)
		for _, pkg := range p.Pkgs {
			if !pkg.Under(enginePaths...) {
				continue
			}
			for _, f := range pkg.Files {
				if f.Test || f.BuildTagged {
					continue
				}
				annotated := commentLines(pkg.Fset, f.Ast, collsyncMarker)
				for _, decl := range f.Ast.Decls {
					fn, ok := decl.(*ast.FuncDecl)
					if !ok || fn.Body == nil {
						continue
					}
					collSyncFunc(p, pkg, fn, performs, annotated)
				}
			}
		}
	},
}

// collectivePerformers computes the set of declared functions that may
// perform a collective: functions containing a direct collective call,
// closed under "calls a performer" via the module call graph. The
// result maps each performer to the name of one collective it reaches,
// for diagnostics.
func collectivePerformers(pkgs []*Package) map[*types.Func]string {
	g := flow.BuildCallGraph(callGraphSources(pkgs))
	performs := make(map[*types.Func]string)
	var queue []*flow.Node
	for _, n := range g.Nodes() {
		name, ok := directCollective(n.Decl.Body)
		if !ok {
			continue
		}
		performs[n.Obj] = name
		queue = append(queue, n)
	}
	// Propagate up caller edges to a fixpoint: calling a performer makes
	// the caller a performer.
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, c := range n.Callers {
			if _, seen := performs[c.Obj]; seen {
				continue
			}
			performs[c.Obj] = performs[n.Obj]
			queue = append(queue, c)
		}
	}
	return performs
}

// callGraphSources adapts the framework's packages to flow.Source.
func callGraphSources(pkgs []*Package) []flow.Source {
	srcs := make([]flow.Source, 0, len(pkgs))
	for _, pkg := range pkgs {
		if pkg.TypesInfo == nil {
			continue
		}
		src := flow.Source{Info: pkg.TypesInfo}
		for _, f := range pkg.Files {
			if f.Test || f.BuildTagged {
				continue
			}
			src.Files = append(src.Files, f.Ast)
		}
		srcs = append(srcs, src)
	}
	return srcs
}

// directCollective reports whether the body contains a syntactic
// collective method call (outside function literals — literal bodies
// are separate nodes in the performer computation only if declared;
// calls inside them are attributed to the enclosing declaration, which
// is exactly the conservative answer wanted here, so literals are NOT
// skipped).
func directCollective(body *ast.BlockStmt) (string, bool) {
	name, found := "", false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok && collectiveCalls[sel.Sel.Name] {
				name, found = sel.Sel.Name, true
			}
		}
		return true
	})
	return name, found
}

// collSyncFunc analyzes one function: CFG, rank taint, divergence.
func collSyncFunc(p *ModulePass, pkg *Package, fn *ast.FuncDecl, performs map[*types.Func]string, annotated map[int]bool) {
	cfg := flow.BuildCFG(fn.Body)
	tainted := rankTaintedObjects(fn.Body, pkg.TypesInfo)

	// Collective sites: position -> (block, collective name).
	type site struct {
		blk  *flow.Block
		pos  token.Pos
		name string
		via  string // "" for direct calls, callee name for indirect
	}
	var sites []site
	for _, blk := range cfg.Blocks {
		for _, node := range blk.Nodes {
			b := blk
			inspectBlockNode(node, func(call *ast.CallExpr) {
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok && collectiveCalls[sel.Sel.Name] {
					sites = append(sites, site{b, call.Pos(), sel.Sel.Name, ""})
					return
				}
				if pkg.TypesInfo == nil {
					return
				}
				if callee := flow.Callee(pkg.TypesInfo, call); callee != nil {
					if coll, ok := performs[callee]; ok {
						sites = append(sites, site{b, call.Pos(), coll, callee.Name()})
					}
				}
			})
		}
	}
	if len(sites) == 0 {
		return
	}

	reported := make(map[token.Pos]bool)
	for _, blk := range cfg.Blocks {
		if blk.Branch == nil || len(blk.Succs) < 2 || !rankTaintedExpr(pkg.TypesInfo, blk.Branch, tainted) {
			continue
		}
		reach := make([]map[*flow.Block]bool, len(blk.Succs))
		for i, s := range blk.Succs {
			reach[i] = flow.ReachableFrom(s)
		}
		for _, st := range sites {
			if st.blk == blk || reported[st.pos] {
				continue // same-block sites execute before the branch
			}
			n := 0
			for i := range reach {
				if reach[i][st.blk] {
					n++
				}
			}
			if n == 0 || n == len(blk.Succs) {
				continue
			}
			line := pkg.Fset.Position(st.pos).Line
			if annotated[line] || annotated[line-1] {
				continue
			}
			reported[st.pos] = true
			how := "collective " + st.name
			if st.via != "" {
				how = "call to " + st.via + " (performs " + st.name + ")"
			}
			p.Reportf(pkg, st.pos,
				"%s is reached on only %d of %d paths of the rank-dependent branch at line %d: "+
					"ranks taking the other path never enter it and the world deadlocks "+
					"(annotate with // %s <reason> if every rank provably branches the same way)",
				how, n, len(blk.Succs), pkg.Fset.Position(blk.Branch.Pos()).Line, collsyncMarker)
		}
	}
}

// inspectBlockNode walks one CFG block node respecting the flow-layer
// atomicity contract: function literals are opaque (their calls belong
// to their own control flow), and a RangeStmt node stands only for its
// X/Key/Value parts — the body lives in successor blocks.
func inspectBlockNode(node ast.Node, visit func(*ast.CallExpr)) {
	if rs, ok := node.(*ast.RangeStmt); ok {
		for _, e := range []ast.Expr{rs.X, rs.Key, rs.Value} {
			if e != nil {
				inspectBlockNode(e, visit)
			}
		}
		return
	}
	ast.Inspect(node, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			visit(call)
		}
		return true
	})
}

// rankTaintedObjects computes the local variables whose value derives
// from the rank: assigned (or defined) from an expression that mentions
// Rank()/rank or another tainted variable, to a fixpoint. The analysis
// is flow-insensitive — one rank-derived assignment taints the variable
// everywhere — which errs toward reporting, the safe polarity for a
// deadlock rule with a per-site waiver.
func rankTaintedObjects(body *ast.BlockStmt, info *types.Info) map[types.Object]bool {
	tainted := make(map[types.Object]bool)
	if info == nil {
		return tainted
	}
	for changed := true; changed; {
		changed = false
		ast.Inspect(body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != len(as.Rhs) {
				return true
			}
			for i, lhs := range as.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				obj := info.Defs[id]
				if obj == nil {
					obj = info.Uses[id]
				}
				if obj == nil || tainted[obj] {
					continue
				}
				if rankTaintedExpr(info, as.Rhs[i], tainted) {
					tainted[obj] = true
					changed = true
				}
			}
			return true
		})
	}
	return tainted
}

// rankTaintedExpr reports whether the node mentions the rank: a
// Rank()/rank selector or identifier, or (when type information
// resolved the identifier) a variable in the tainted set. Respects the
// RangeStmt contract (only X/Key/Value are examined).
func rankTaintedExpr(info *types.Info, node ast.Node, tainted map[types.Object]bool) bool {
	if rs, ok := node.(*ast.RangeStmt); ok {
		return rankTaintedExpr(info, rs.X, tainted)
	}
	found := false
	ast.Inspect(node, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.SelectorExpr:
			if isRankName(n.Sel.Name) {
				found = true
			}
		case *ast.Ident:
			if isRankName(n.Name) {
				found = true
			} else if info != nil && tainted[info.Uses[n]] {
				found = true
			}
		}
		return true
	})
	return found
}

func isRankName(name string) bool { return name == "Rank" || name == "rank" }
