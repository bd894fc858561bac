package flow

import (
	"go/ast"
	"go/types"
)

// Source is one package's contribution to a call graph: its parsed
// files and resolved type information.
type Source struct {
	Info  *types.Info
	Files []*ast.File
}

// Node is one declared function or method in the call graph. Calls made
// inside function literals are attributed to the enclosing declaration:
// a literal runs with the enclosing function's data and, for the
// conservative reachability questions the checks ask, its calls belong
// to whoever created it.
type Node struct {
	Obj  *types.Func
	Decl *ast.FuncDecl

	Callees []*Node
	Callers []*Node
}

// Name returns the declared function name (methods without receiver
// qualification; diagnostics carry positions, so the short name reads
// best).
func (n *Node) Name() string { return n.Decl.Name.Name }

// CallGraph is the module-local static call graph: one node per function
// declaration across the given packages, edges for direct calls that
// resolve to one of those declarations. Interface-method calls, function
// values, and calls into other modules (including the standard library)
// produce no edges — the graph under-approximates call targets, so a
// function it shows reaching a collective definitely performs one.
type CallGraph struct {
	nodes map[*types.Func]*Node
	all   []*Node
}

// BuildCallGraph constructs the call graph over the given sources.
// Sources without type information contribute no nodes.
func BuildCallGraph(srcs []Source) *CallGraph {
	g := &CallGraph{nodes: make(map[*types.Func]*Node)}
	// First pass: one node per declaration.
	for _, src := range srcs {
		if src.Info == nil {
			continue
		}
		for _, f := range src.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := src.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				n := &Node{Obj: obj, Decl: fd}
				g.nodes[obj] = n
				g.all = append(g.all, n)
			}
		}
	}
	// Second pass: edges from every call expression that resolves to a
	// declared node.
	for _, src := range srcs {
		if src.Info == nil {
			continue
		}
		for _, f := range src.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := src.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				caller := g.nodes[obj]
				if caller == nil {
					continue
				}
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					if callee := Callee(src.Info, call); callee != nil {
						if tn := g.nodes[callee]; tn != nil {
							addEdge(caller, tn)
						}
					}
					return true
				})
			}
		}
	}
	return g
}

func addEdge(from, to *Node) {
	for _, c := range from.Callees {
		if c == to {
			return
		}
	}
	from.Callees = append(from.Callees, to)
	to.Callers = append(to.Callers, from)
}

// Nodes returns every node in declaration order (per package, per file).
func (g *CallGraph) Nodes() []*Node { return g.all }

// Callee resolves the static callee of a call expression to a declared
// function object: a plain function call, a method call on a concrete
// receiver, or a package-qualified call. Interface-method calls resolve
// to the interface's method object (which has no declaration in the
// graph), and conversions/builtins resolve to nil.
func Callee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}
