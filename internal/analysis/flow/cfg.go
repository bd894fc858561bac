// Package flow is the zero-dependency flow layer under internal/analysis:
// an intraprocedural control-flow graph builder (cfg.go) and a
// module-local call graph (callgraph.go), both built only on go/ast and
// go/types — the same constraint the rest of the framework keeps, so the
// suite never needs golang.org/x/tools.
//
// The CFG gives checks branch structure (which statements execute under
// which conditions — the shape collsync's rank-divergence rule and
// mmaplife's use-after-unmap dataflow need); the call graph gives them
// interprocedural reach (which functions perform a collective). Both
// are deliberately conservative approximations: interface and
// function-value calls produce no edges, panics are ignored, and gotos
// resolve by label within one function.
package flow

import (
	"go/ast"
)

// Block is one basic block: a maximal run of nodes with a single entry
// and a single exit decision. Nodes holds the block's statements and
// condition expressions in evaluation order. Analyses must treat each
// node as atomic at its own level — compound statements (if/for/switch)
// never appear whole; only their init/condition parts land in Nodes,
// with the enclosed bodies living in successor blocks. The one partial
// exception is *ast.RangeStmt, which appears as a loop-head node
// standing for "evaluate X once, then assign Key/Value each iteration";
// analyses inspecting a RangeStmt node must look only at X/Key/Value,
// never descend into its Body (the body has its own blocks).
type Block struct {
	Index int
	Nodes []ast.Node
	Succs []*Block

	// Branch is the controlling node when the block ends in a multi-way
	// transfer: the if/for condition, the switch tag (or the whole
	// *ast.TypeSwitchStmt assign), the range expression, or the
	// *ast.SelectStmt. nil for straight-line blocks and condition-less
	// loops, where control transfers unconditionally.
	Branch ast.Node
}

// CFG is the control-flow graph of one function body. Returns edge to
// Exit; a block with no successors that is not Exit ends in a return,
// an endless transfer, or falls off a path the builder proved dead.
type CFG struct {
	Entry  *Block
	Exit   *Block
	Blocks []*Block
}

// BuildCFG constructs the control-flow graph of one function (or
// function-literal) body. Function literals inside the body are opaque:
// their statements do not join this graph (each literal has its own
// control flow; build a separate CFG for it).
func BuildCFG(body *ast.BlockStmt) *CFG {
	b := &builder{cfg: &CFG{}, labels: make(map[string]*labelInfo)}
	b.cfg.Entry = b.newBlock()
	b.cfg.Exit = b.newBlock()
	b.cur = b.cfg.Entry
	b.stmtList(body.List)
	b.link(b.cur, b.cfg.Exit)
	for _, g := range b.pendingGotos {
		if li := b.labels[g.label]; li != nil && li.entry != nil {
			b.link(g.from, li.entry)
		}
	}
	return b.cfg
}

// labelInfo tracks one label's targets: entry is the labeled statement's
// first block (goto target), brk/cont the break/continue targets when
// the labeled statement is breakable/continuable.
type labelInfo struct {
	entry *Block
	brk   *Block
	cont  *Block
}

type pendingGoto struct {
	from  *Block
	label string
}

// loopScope is one entry of the break/continue stack.
type loopScope struct {
	label string // enclosing label, "" if none
	brk   *Block
	cont  *Block // nil for switch/select scopes (not continuable)
}

type builder struct {
	cfg          *CFG
	cur          *Block // nil-safe: startDead() replaces after terminators
	scopes       []loopScope
	labels       map[string]*labelInfo
	pendingGotos []pendingGoto
	pendingLabel string // label to attach to the next loop/switch scope
}

func (b *builder) newBlock() *Block {
	blk := &Block{Index: len(b.cfg.Blocks)}
	b.cfg.Blocks = append(b.cfg.Blocks, blk)
	return blk
}

func (b *builder) link(from, to *Block) {
	if from == nil || to == nil {
		return
	}
	for _, s := range from.Succs {
		if s == to {
			return
		}
	}
	from.Succs = append(from.Succs, to)
}

// startDead begins an unreachable block (code after return/break/...).
// It has no predecessors, so reachability analyses ignore it, but its
// nodes still exist for position lookups.
func (b *builder) startDead() {
	b.cur = b.newBlock()
}

func (b *builder) add(n ast.Node) {
	b.cur.Nodes = append(b.cur.Nodes, n)
}

func (b *builder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

func (b *builder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.LabeledStmt:
		li := &labelInfo{}
		b.labels[s.Label.Name] = li
		// The labeled statement starts a fresh block so gotos have a
		// precise target.
		entry := b.newBlock()
		b.link(b.cur, entry)
		b.cur = entry
		li.entry = entry
		b.pendingLabel = s.Label.Name
		b.stmt(s.Stmt)
		b.pendingLabel = ""

	case *ast.IfStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		b.add(s.Cond)
		cond := b.cur
		cond.Branch = s.Cond
		after := b.newBlock()
		then := b.newBlock()
		b.link(cond, then)
		b.cur = then
		b.stmt(s.Body)
		b.link(b.cur, after)
		if s.Else != nil {
			els := b.newBlock()
			b.link(cond, els)
			b.cur = els
			b.stmt(s.Else)
			b.link(b.cur, after)
		} else {
			b.link(cond, after)
		}
		b.cur = after

	case *ast.ForStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		head := b.newBlock()
		b.link(b.cur, head)
		after := b.newBlock()
		post := head
		if s.Post != nil {
			post = b.newBlock()
			post.Nodes = append(post.Nodes, s.Post)
			b.link(post, head)
		}
		body := b.newBlock()
		if s.Cond != nil {
			head.Nodes = append(head.Nodes, s.Cond)
			head.Branch = s.Cond
			b.link(head, body)
			b.link(head, after)
		} else {
			b.link(head, body)
		}
		b.pushScope(after, post)
		b.cur = body
		b.stmt(s.Body)
		b.link(b.cur, post)
		b.popScope()
		b.cur = after

	case *ast.RangeStmt:
		head := b.newBlock()
		b.link(b.cur, head)
		// The RangeStmt node stands for the per-iteration Key/Value
		// assignment; see the Block doc for how analyses must read it.
		head.Nodes = append(head.Nodes, s)
		head.Branch = s
		after := b.newBlock()
		body := b.newBlock()
		b.link(head, body)
		b.link(head, after)
		b.pushScope(after, head)
		b.cur = body
		b.stmt(s.Body)
		b.link(b.cur, head)
		b.popScope()
		b.cur = after

	case *ast.SwitchStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		if s.Tag != nil {
			b.add(s.Tag)
		}
		head := b.cur
		if s.Tag != nil {
			head.Branch = s.Tag
		} else {
			head.Branch = s // condition-less switch: branch on the clauses
		}
		b.switchClauses(head, s.Body.List, nil)

	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		b.add(s.Assign)
		head := b.cur
		head.Branch = s.Assign
		b.switchClauses(head, s.Body.List, nil)

	case *ast.SelectStmt:
		head := b.cur
		head.Branch = s
		after := b.newBlock()
		b.pushBreakScope(after)
		anyClause := false
		for _, cl := range s.Body.List {
			comm := cl.(*ast.CommClause)
			anyClause = true
			entry := b.newBlock()
			b.link(head, entry)
			if comm.Comm != nil {
				entry.Nodes = append(entry.Nodes, comm.Comm)
			}
			b.cur = entry
			b.stmtList(comm.Body)
			b.link(b.cur, after)
		}
		b.popScope()
		if !anyClause {
			// Empty select blocks forever: after is unreachable.
			_ = after
		}
		b.cur = after

	case *ast.ReturnStmt:
		b.add(s)
		b.link(b.cur, b.cfg.Exit)
		b.startDead()

	case *ast.BranchStmt:
		b.add(s)
		b.branch(s)
		b.startDead()

	default:
		// Plain statements: expressions, assignments, declarations,
		// channel sends, defers, go statements, empty statements.
		b.add(s)
	}
}

// switchClauses wires a (type) switch head to its case clauses.
// Fallthrough transfers to the next clause's body entry.
func (b *builder) switchClauses(head *Block, clauses []ast.Stmt, _ *Block) {
	after := b.newBlock()
	b.pushBreakScope(after)
	entries := make([]*Block, len(clauses))
	hasDefault := false
	for i, cs := range clauses {
		entries[i] = b.newBlock()
		if cc, ok := cs.(*ast.CaseClause); ok && cc.List == nil {
			hasDefault = true
		}
	}
	for i, cs := range clauses {
		cc, ok := cs.(*ast.CaseClause)
		if !ok {
			continue
		}
		entry := entries[i]
		b.link(head, entry)
		for _, e := range cc.List {
			entry.Nodes = append(entry.Nodes, e)
		}
		b.cur = entry
		// Detect a trailing fallthrough before building, so we can wire
		// the edge to the next clause.
		body := cc.Body
		fall := false
		if n := len(body); n > 0 {
			if br, ok := body[n-1].(*ast.BranchStmt); ok && br.Tok.String() == "fallthrough" {
				fall = true
				body = body[:n-1]
			}
		}
		b.stmtList(body)
		if fall && i+1 < len(entries) {
			b.link(b.cur, entries[i+1])
			b.startDead()
		} else {
			b.link(b.cur, after)
		}
	}
	if !hasDefault {
		b.link(head, after)
	}
	b.popScope()
	b.cur = after
}

func (b *builder) pushScope(brk, cont *Block) {
	b.scopes = append(b.scopes, loopScope{label: b.pendingLabel, brk: brk, cont: cont})
	if b.pendingLabel != "" {
		if li := b.labels[b.pendingLabel]; li != nil {
			li.brk, li.cont = brk, cont
		}
		b.pendingLabel = ""
	}
}

func (b *builder) pushBreakScope(brk *Block) { b.pushScope(brk, nil) }

func (b *builder) popScope() { b.scopes = b.scopes[:len(b.scopes)-1] }

func (b *builder) branch(s *ast.BranchStmt) {
	switch s.Tok.String() {
	case "break":
		if s.Label != nil {
			if li := b.labels[s.Label.Name]; li != nil && li.brk != nil {
				b.link(b.cur, li.brk)
			}
			return
		}
		for i := len(b.scopes) - 1; i >= 0; i-- {
			b.link(b.cur, b.scopes[i].brk)
			return
		}
	case "continue":
		if s.Label != nil {
			if li := b.labels[s.Label.Name]; li != nil && li.cont != nil {
				b.link(b.cur, li.cont)
			}
			return
		}
		for i := len(b.scopes) - 1; i >= 0; i-- {
			if b.scopes[i].cont != nil {
				b.link(b.cur, b.scopes[i].cont)
				return
			}
		}
	case "goto":
		if s.Label == nil {
			return
		}
		if li := b.labels[s.Label.Name]; li != nil && li.entry != nil {
			b.link(b.cur, li.entry)
			return
		}
		// Forward goto: resolve once the whole body is built.
		b.pendingGotos = append(b.pendingGotos, pendingGoto{from: b.cur, label: s.Label.Name})
	}
	// fallthrough is handled by switchClauses.
}

// ReachableFrom returns the set of blocks reachable from start by
// following successor edges (start included).
func ReachableFrom(start *Block) map[*Block]bool {
	seen := make(map[*Block]bool)
	var walk func(*Block)
	walk = func(blk *Block) {
		if blk == nil || seen[blk] {
			return
		}
		seen[blk] = true
		for _, s := range blk.Succs {
			walk(s)
		}
	}
	walk(start)
	return seen
}
