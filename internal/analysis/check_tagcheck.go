package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// tagMarker waives the tag rules for one call site when a raw or
// one-sided tag is genuinely required (e.g. probing a peer whose tag
// constant lives in another module). The comment must say why.
const tagMarker = "tagcheck:"

// tagSendCalls / tagRecvCalls are the transport entry points whose
// second argument is a message tag. The split matters for the
// consistency rule: a tag constant that only ever appears on one side
// is either dead protocol surface or — worse — a send the receive side
// matches with a different (hardcoded) number.
var tagSendCalls = map[string]bool{"Send": true, "SendOwned": true}
var tagRecvCalls = map[string]bool{"Recv": true, "RecvAllInto": true}

// checkTag enforces the engine's tag discipline at Send/SendOwned/Recv/
// RecvAllInto call sites in internal/mpi and internal/core:
//
//  1. no raw integer-literal tags — a literal hides the coupling between
//     the two ends of a conversation (the opTag=1 flag day this repo
//     already had once); tags must be named constants, wildcards or
//     computed expressions (the collectives' reserved tag space);
//  2. every tag constant must appear on both the send side and the
//     receive side somewhere in the package (requires type information;
//     wildcard constants named AnyTag are exempt).
//
// Waive a site with a `// tagcheck: <reason>` annotation on its line or
// the line above.
var checkTag = &Check{
	Name: "tagcheck",
	Doc: "forbid raw integer-literal message tags and one-sided tag " +
		"constants at transport call sites in internal/mpi and internal/core",
	Run: func(p *Pass) {
		if !p.Pkg.Under(enginePaths...) {
			return
		}
		// Per-constant side bookkeeping, keyed by the types.Const object
		// so shadowing cannot conflate distinct constants.
		type sides struct {
			name       string
			send, recv bool
			firstUse   token.Pos
		}
		consts := make(map[types.Object]*sides)
		for _, f := range p.Pkg.Files {
			if f.Test {
				continue
			}
			annotated := commentLines(p.Pkg.Fset, f.Ast, tagMarker)
			waived := func(pos token.Pos) bool {
				line := p.Pkg.Fset.Position(pos).Line
				return annotated[line] || annotated[line-1]
			}
			ast.Inspect(f.Ast, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok || len(call.Args) < 2 {
					return true
				}
				isSend, isRecv := tagSendCalls[sel.Sel.Name], tagRecvCalls[sel.Sel.Name]
				if !isSend && !isRecv {
					return true
				}
				tag := call.Args[1]
				if lit, ok := tag.(*ast.BasicLit); ok && lit.Kind == token.INT {
					if !waived(lit.Pos()) {
						p.Reportf(lit.Pos(),
							"raw integer tag %s in %s call: use a named tag constant (or annotate with // %s <reason>)",
							lit.Value, sel.Sel.Name, tagMarker)
					}
					return true
				}
				// Side bookkeeping needs resolved objects; without type
				// information an identifier could be a variable.
				info := p.Pkg.TypesInfo
				if info == nil {
					return true
				}
				id, ok := tag.(*ast.Ident)
				if !ok || id.Name == "AnyTag" || waived(id.Pos()) {
					return true
				}
				obj := info.Uses[id]
				if _, isConst := obj.(*types.Const); !isConst {
					return true
				}
				s := consts[obj]
				if s == nil {
					s = &sides{name: id.Name, firstUse: id.Pos()}
					consts[obj] = s
				}
				s.send = s.send || isSend
				s.recv = s.recv || isRecv
				return true
			})
		}
		for _, s := range consts {
			if s.send && s.recv {
				continue
			}
			side, missing := "send", "received"
			if s.recv {
				side, missing = "receive", "sent"
			}
			p.Reportf(s.firstUse,
				"tag constant %s is used on the %s side only: nothing in the package is %s with it (one-sided tags hide a hardcoded peer, or are dead)",
				s.name, side, missing)
		}
	},
}
