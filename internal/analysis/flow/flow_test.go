package flow

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"testing"
)

// parseFunc parses src (a complete file) and returns the FuncDecl named
// name plus the file's type info.
func parseFunc(t *testing.T, src, name string) (*ast.FuncDecl, *types.Info, *ast.File) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "src.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{
		Types: make(map[ast.Expr]types.TypeAndValue),
		Defs:  make(map[*ast.Ident]types.Object),
		Uses:  make(map[*ast.Ident]types.Object),
	}
	conf := types.Config{Importer: importer.Default(), Error: func(error) {}}
	if _, err := conf.Check("p", fset, []*ast.File{f}, info); err != nil {
		t.Fatalf("type-check: %v", err)
	}
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == name {
			return fd, info, f
		}
	}
	t.Fatalf("no function %q", name)
	return nil, nil, nil
}

// blockOf finds the block containing a node whose position matches the
// call to the named function.
func callBlock(t *testing.T, cfg *CFG, info *types.Info, name string) *Block {
	t.Helper()
	for _, blk := range cfg.Blocks {
		for _, n := range blk.Nodes {
			found := false
			ast.Inspect(n, func(x ast.Node) bool {
				if _, isLit := x.(*ast.FuncLit); isLit {
					return false
				}
				if call, ok := x.(*ast.CallExpr); ok {
					if id, ok := call.Fun.(*ast.Ident); ok && id.Name == name {
						found = true
					}
				}
				return true
			})
			if found {
				return blk
			}
		}
	}
	t.Fatalf("no block contains a call to %q", name)
	return nil
}

func TestCFGIfEarlyReturn(t *testing.T) {
	src := `package p
func a() {}
func b() {}
func f(x int) {
	if x == 0 {
		a()
		return
	}
	b()
}`
	fd, info, _ := parseFunc(t, src, "f")
	cfg := BuildCFG(fd.Body)

	// The entry block must branch on the condition.
	if cfg.Entry.Branch == nil || len(cfg.Entry.Succs) != 2 {
		t.Fatalf("entry: branch=%v succs=%d, want condition with 2 successors", cfg.Entry.Branch, len(cfg.Entry.Succs))
	}
	aBlk := callBlock(t, cfg, info, "a")
	bBlk := callBlock(t, cfg, info, "b")
	thenReach := ReachableFrom(cfg.Entry.Succs[0])
	elseReach := ReachableFrom(cfg.Entry.Succs[1])
	// a() is only on the then path; b() only on the else path (the then
	// path returns before it).
	if !thenReach[aBlk] || elseReach[aBlk] {
		t.Errorf("a(): thenReach=%v elseReach=%v, want true/false", thenReach[aBlk], elseReach[aBlk])
	}
	if thenReach[bBlk] || !elseReach[bBlk] {
		t.Errorf("b(): thenReach=%v elseReach=%v, want false/true", thenReach[bBlk], elseReach[bBlk])
	}
}

func TestCFGIfJoin(t *testing.T) {
	src := `package p
func a() {}
func f(x int) {
	if x == 0 {
		x++
	}
	a()
}`
	fd, info, _ := parseFunc(t, src, "f")
	cfg := BuildCFG(fd.Body)
	aBlk := callBlock(t, cfg, info, "a")
	for i, s := range cfg.Entry.Succs {
		if !ReachableFrom(s)[aBlk] {
			t.Errorf("successor %d does not reach the join call", i)
		}
	}
}

func TestCFGLoopBody(t *testing.T) {
	src := `package p
func a() {}
func f(n int) {
	for i := 0; i < n; i++ {
		a()
	}
}`
	fd, info, _ := parseFunc(t, src, "f")
	cfg := BuildCFG(fd.Body)
	aBlk := callBlock(t, cfg, info, "a")
	// Find the loop-head branch block.
	var head *Block
	for _, blk := range cfg.Blocks {
		if blk.Branch != nil && len(blk.Succs) == 2 {
			head = blk
			break
		}
	}
	if head == nil {
		t.Fatal("no loop head found")
	}
	bodyReach := ReachableFrom(head.Succs[0])
	exitReach := ReachableFrom(head.Succs[1])
	if !bodyReach[aBlk] || exitReach[aBlk] {
		t.Errorf("loop body call: bodyReach=%v exitReach=%v, want true/false", bodyReach[aBlk], exitReach[aBlk])
	}
}

func TestCFGSwitchAndBreak(t *testing.T) {
	src := `package p
func a() {}
func b() {}
func c() {}
func f(x int) {
	switch x {
	case 0:
		a()
	case 1:
		b()
	}
	c()
}`
	fd, info, _ := parseFunc(t, src, "f")
	cfg := BuildCFG(fd.Body)
	aBlk := callBlock(t, cfg, info, "a")
	bBlk := callBlock(t, cfg, info, "b")
	cBlk := callBlock(t, cfg, info, "c")
	head := cfg.Entry
	if head.Branch == nil || len(head.Succs) != 3 { // case 0, case 1, no-default exit
		t.Fatalf("switch head: branch=%v succs=%d, want tag with 3 successors", head.Branch, len(head.Succs))
	}
	seenA, seenB := 0, 0
	for _, s := range head.Succs {
		r := ReachableFrom(s)
		if r[aBlk] {
			seenA++
		}
		if r[bBlk] {
			seenB++
		}
		if !r[cBlk] {
			t.Errorf("a switch successor does not reach the statement after the switch")
		}
	}
	if seenA != 1 || seenB != 1 {
		t.Errorf("case bodies reached from %d/%d successors, want 1/1", seenA, seenB)
	}
}

func TestCFGRangeNodeIsHead(t *testing.T) {
	src := `package p
func a() {}
func f(xs []int) {
	for range xs {
		a()
	}
}`
	fd, info, _ := parseFunc(t, src, "f")
	cfg := BuildCFG(fd.Body)
	var head *Block
	for _, blk := range cfg.Blocks {
		for _, n := range blk.Nodes {
			if _, ok := n.(*ast.RangeStmt); ok {
				head = blk
			}
		}
	}
	if head == nil {
		t.Fatal("no block carries the RangeStmt node")
	}
	if head.Branch == nil || len(head.Succs) != 2 {
		t.Fatalf("range head: branch=%v succs=%d", head.Branch, len(head.Succs))
	}
	aBlk := callBlock(t, cfg, info, "a")
	if ReachableFrom(head.Succs[0])[aBlk] == ReachableFrom(head.Succs[1])[aBlk] {
		t.Error("exactly one range successor should reach the body")
	}
}

func TestCFGFuncLitOpaque(t *testing.T) {
	src := `package p
func a() {}
func f() func() {
	g := func() { a() }
	return g
}`
	fd, _, _ := parseFunc(t, src, "f")
	cfg := BuildCFG(fd.Body)
	// The literal's body must not contribute blocks: only entry (with
	// the assignment and return) and exit, plus the dead block after
	// return.
	for _, blk := range cfg.Blocks {
		for _, n := range blk.Nodes {
			if _, ok := n.(*ast.FuncLit); ok {
				t.Fatal("function literal appeared as a CFG node")
			}
		}
	}
}

func TestCallGraphEdges(t *testing.T) {
	src := `package p
type T struct{}
func (t *T) m() { helper() }
func helper() { leaf() }
func leaf() {}
func lone() {}
func root(t *T) { t.m() }`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "src.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{
		Types: make(map[ast.Expr]types.TypeAndValue),
		Defs:  make(map[*ast.Ident]types.Object),
		Uses:  make(map[*ast.Ident]types.Object),
	}
	conf := types.Config{Importer: importer.Default()}
	if _, err := conf.Check("p", fset, []*ast.File{f}, info); err != nil {
		t.Fatal(err)
	}
	g := BuildCallGraph([]Source{{Info: info, Files: []*ast.File{f}}})
	byName := make(map[string]*Node)
	for _, n := range g.Nodes() {
		byName[n.Name()] = n
	}
	if len(byName) != 5 {
		t.Fatalf("got %d nodes, want 5", len(byName))
	}
	callees := func(name string) map[string]bool {
		out := make(map[string]bool)
		for _, c := range byName[name].Callees {
			out[c.Name()] = true
		}
		return out
	}
	for caller, callee := range map[string]string{"root": "m", "m": "helper", "helper": "leaf"} {
		if got := callees(caller); len(got) != 1 || !got[callee] {
			t.Errorf("%s calls %v, want only %s", caller, got, callee)
		}
	}
	if len(byName["lone"].Callers) != 0 || len(byName["leaf"].Callees) != 0 {
		t.Error("lone has callers or leaf has callees")
	}
	// Caller edges mirror callee edges.
	foundCaller := false
	for _, c := range byName["helper"].Callers {
		if c == byName["m"] {
			foundCaller = true
		}
	}
	if !foundCaller {
		t.Error("helper is missing caller edge from m")
	}
}
