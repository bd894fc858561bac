package analysis

import (
	"go/ast"
	"go/token"
	"go/types"

	"edgeswitch/internal/analysis/flow"
)

// mmaplifeMarker waives one use of a mapping-derived slice after its
// segment was closed (e.g. a test asserting behaviour of the heap
// fallback). The comment must say why the bytes are still valid.
const mmaplifeMarker = "mmaplife:"

// mmapPaths are the packages where mmap'd segments live and circulate.
var mmapPaths = []string{"internal/store", "internal/core"}

// checkMmapLife enforces the mapping-lifetime rule of the tiered edge
// store: a slice obtained from a Segment (List and friends return
// subslices of the mmap'd file, zero-copy) dies with the mapping. After
// Close/Unmap the pages are gone — touching the slice is a SIGSEGV on
// the mmap path, and on the heap-fallback path it silently reads stale
// bytes, so the bug only crashes on the platforms that got the fast
// path. Unit tests rarely catch it: the kernel may keep the pages
// resident until the address space is reused.
//
// The rule is a forward may-analysis over the CFG: a local slice variable assigned from a []byte-returning
// method call on a Segment-typed receiver becomes derived from that
// segment; a Close or Unmap call on the segment kills the mapping
// (closed on ANY path into a join counts); any later mention of a
// derived slice is a use-after-unmap. Rebinding the slice variable
// kills its derived state. Deferred closes run at function exit, after
// every use, and are ignored. Function literals are opaque, and only
// plain identifier receivers and slices are tracked — field-held
// segments are their owner's business (internal/store tests cover
// those paths).
//
// Waive a site with `// mmaplife: <reason>` on its line or the line
// above.
var checkMmapLife = &Check{
	Name: "mmaplife",
	Doc: "forbid using an mmap-derived slice after its segment's Close/Unmap " +
		"(the mapping is gone; the slice points at unmapped pages), in " +
		"internal/store and internal/core",
	Run: func(p *Pass) {
		if !p.Pkg.Under(mmapPaths...) || p.Pkg.TypesInfo == nil {
			return
		}
		for _, f := range p.Pkg.Files {
			if f.Test || f.BuildTagged {
				continue
			}
			annotated := commentLines(p.Pkg.Fset, f.Ast, mmaplifeMarker)
			for _, decl := range f.Ast.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil {
					continue
				}
				mmapLifeFunc(p, fn, annotated)
			}
		}
	},
}

// mmapState is the per-block dataflow state: which slice variables are
// views into which segment variables, and which segments have been
// closed (position of the closing call, for diagnostics).
type mmapState struct {
	derived map[*types.Var]*types.Var
	closed  map[*types.Var]token.Pos
}

func newMmapState() *mmapState {
	return &mmapState{
		derived: make(map[*types.Var]*types.Var),
		closed:  make(map[*types.Var]token.Pos),
	}
}

func (s *mmapState) clone() *mmapState {
	c := newMmapState()
	for k, v := range s.derived {
		c.derived[k] = v
	}
	for k, v := range s.closed {
		c.closed[k] = v
	}
	return c
}

// mergeFrom unions src into s, reporting whether s changed.
func (s *mmapState) mergeFrom(src *mmapState) bool {
	changed := false
	for k, v := range src.derived {
		if _, ok := s.derived[k]; !ok {
			s.derived[k] = v
			changed = true
		}
	}
	for k, v := range src.closed {
		if _, ok := s.closed[k]; !ok {
			s.closed[k] = v
			changed = true
		}
	}
	return changed
}

// mmapLifeFunc runs the dataflow over one function body: fixpoint on
// block-entry states first, then one reporting pass.
func mmapLifeFunc(p *Pass, fn *ast.FuncDecl, annotated map[int]bool) {
	cfg := flow.BuildCFG(fn.Body)
	in := make(map[*flow.Block]*mmapState)
	in[cfg.Entry] = newMmapState()
	work := []*flow.Block{cfg.Entry}
	for len(work) > 0 {
		blk := work[0]
		work = work[1:]
		out := in[blk].clone()
		for _, node := range blk.Nodes {
			p.mmapLifeNode(node, out, nil)
		}
		for _, s := range blk.Succs {
			if in[s] == nil {
				in[s] = out.clone()
				work = append(work, s)
			} else if in[s].mergeFrom(out) {
				work = append(work, s)
			}
		}
	}
	reported := make(map[token.Pos]bool)
	for _, blk := range cfg.Blocks {
		state := in[blk]
		if state == nil {
			continue // unreachable block
		}
		state = state.clone()
		for _, node := range blk.Nodes {
			p.mmapLifeNode(node, state, func(id *ast.Ident, closedAt token.Pos) {
				if reported[id.Pos()] {
					return
				}
				line := p.Pkg.Fset.Position(id.Pos()).Line
				if annotated[line] || annotated[line-1] {
					return
				}
				reported[id.Pos()] = true
				p.Reportf(id.Pos(),
					"%s is a view into a segment mapping closed at line %d: "+
						"the pages are unmapped and the slice dangles — copy the bytes "+
						"out before Close, or keep the segment open across every use "+
						"(annotate with // %s <reason> if the use is provably safe)",
					id.Name, p.Pkg.Fset.Position(closedAt).Line, mmaplifeMarker)
			})
		}
	}
}

// mmapLifeNode applies one CFG node to the state, in evaluation order:
// uses are checked against the state at node entry, then assignment
// targets kill, then new derivations record, then closes kill their
// mappings. report is nil during the fixpoint pass.
func (p *Pass) mmapLifeNode(node ast.Node, state *mmapState, report func(*ast.Ident, token.Pos)) {
	if report != nil {
		p.mmapLifeUses(node, state, report)
	}

	// A plain rebind gives the slice variable a new, unrelated value.
	if as, ok := node.(*ast.AssignStmt); ok {
		for _, lhs := range as.Lhs {
			if id, ok := lhs.(*ast.Ident); ok {
				if v := p.identVar(id); v != nil {
					delete(state.derived, v)
				}
			}
		}
		// b := seg.List(i) derives b from seg.
		if len(as.Lhs) == len(as.Rhs) {
			for i, rhs := range as.Rhs {
				id, ok := as.Lhs[i].(*ast.Ident)
				if !ok {
					continue
				}
				seg := p.segmentSliceSource(rhs)
				if seg == nil {
					continue
				}
				if v := p.identVar(id); v != nil {
					state.derived[v] = seg
				}
			}
		}
	}

	// Range heads rebind Key/Value (e.g. ranging over a derived slice is
	// a use, handled above; the loop variables themselves are fresh).
	if rs, ok := node.(*ast.RangeStmt); ok {
		for _, e := range []ast.Expr{rs.Key, rs.Value} {
			if id, ok := e.(*ast.Ident); ok {
				if v := p.identVar(id); v != nil {
					delete(state.derived, v)
				}
			}
		}
	}

	// A deferred Close runs at function exit, after every use in the
	// body — it does not kill the mapping at its lexical position.
	if _, ok := node.(*ast.DeferStmt); ok {
		return
	}
	for _, cl := range p.segmentCloses(node) {
		state.closed[cl.seg] = cl.pos
	}
}

// mmapLifeUses reports every identifier in node that mentions a slice
// derived from a closed segment, skipping function literals.
func (p *Pass) mmapLifeUses(node ast.Node, state *mmapState, report func(*ast.Ident, token.Pos)) {
	assignTargets := make(map[*ast.Ident]bool)
	if as, ok := node.(*ast.AssignStmt); ok {
		for _, lhs := range as.Lhs {
			if id, ok := lhs.(*ast.Ident); ok {
				assignTargets[id] = true
			}
		}
	}
	ast.Inspect(node, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok || assignTargets[id] {
			return true
		}
		v := p.identVar(id)
		if v == nil {
			return true
		}
		seg, ok := state.derived[v]
		if !ok {
			return true
		}
		if closedAt, closed := state.closed[seg]; closed {
			report(id, closedAt)
		}
		return true
	})
}

// segmentSliceSource reports the segment variable behind expr when expr
// is a []byte-returning method call on a plain-identifier Segment
// receiver (seg.List(i) and friends); nil otherwise.
func (p *Pass) segmentSliceSource(expr ast.Expr) *types.Var {
	call, ok := ast.Unparen(expr).(*ast.CallExpr)
	if !ok {
		return nil
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	recv, ok := ast.Unparen(sel.X).(*ast.Ident)
	if !ok || !p.isSegmentVar(recv) {
		return nil
	}
	if t, ok := p.Pkg.TypesInfo.Types[call]; !ok || !isByteSlice(t.Type) {
		return nil
	}
	return p.identVar(recv)
}

// identVar resolves an identifier to the local variable it denotes.
func (p *Pass) identVar(id *ast.Ident) *types.Var {
	obj := p.Pkg.TypesInfo.Uses[id]
	if obj == nil {
		obj = p.Pkg.TypesInfo.Defs[id]
	}
	v, ok := obj.(*types.Var)
	if !ok || v.IsField() {
		return nil
	}
	return v
}

// segmentClose is one Close/Unmap call on a tracked segment variable.
type segmentClose struct {
	seg *types.Var
	pos token.Pos
}

// segmentCloses finds Close/Unmap calls on plain-identifier Segment
// receivers in the node, outside function literals.
func (p *Pass) segmentCloses(node ast.Node) []segmentClose {
	var closes []segmentClose
	ast.Inspect(node, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || (sel.Sel.Name != "Close" && sel.Sel.Name != "Unmap") {
			return true
		}
		recv, ok := ast.Unparen(sel.X).(*ast.Ident)
		if !ok || !p.isSegmentVar(recv) {
			return true
		}
		if v := p.identVar(recv); v != nil {
			closes = append(closes, segmentClose{seg: v, pos: call.Pos()})
		}
		return true
	})
	return closes
}

// isSegmentVar reports whether id denotes a variable of (pointer to) a
// named type called Segment.
func (p *Pass) isSegmentVar(id *ast.Ident) bool {
	v := p.identVar(id)
	if v == nil {
		return false
	}
	t := v.Type()
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "Segment"
}

// isByteSlice reports whether t is []byte.
func isByteSlice(t types.Type) bool {
	sl, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := sl.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Byte
}
