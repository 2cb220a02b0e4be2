// Control-flow graphs for the flow-aware analyzers. The syntactic
// checks inherited from the first hidelint generation inspect the AST
// in isolation; the invariants added since — shared immutable frame
// buffers, balanced RNG draw streams, joined shard goroutines, balanced
// pool acquisitions — are properties of PATHS through a function, so
// they need a (small) control-flow layer to be machine-checkable.
//
// buildCFG lowers one function body to basic blocks of statements with
// edges both ways, and records where the paths of each if, switch,
// select and loop split and rejoin; it is the one place that lowers
// break, continue, goto, fallthrough, labels and never-returning calls.
// The graph is intraprocedural and deliberately simple: expressions
// are not decomposed (a whole statement is the unit of transfer),
// defers are recorded on the graph rather than threaded into the
// edges, and calls that provably never return (panic, os.Exit,
// log.Fatal*, internal/cli.Exit/Usagef/Abort, testing's Fatal/Skip
// family) terminate their path into a dedicated panic-exit block so
// "every exit path" checks can reason about clean returns separately
// from unwinding. See DESIGN.md §11 for the soundness limits.
package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// A cfgBlock is one basic block: a maximal run of statements with a
// single entry, plus its edges.
type cfgBlock struct {
	index int
	// stmts are the statements executed in order. Control transfers
	// happen only after the last statement.
	stmts []ast.Stmt
	succs []*cfgBlock
	// preds are the blocks with an edge here, in the order the edges
	// were lowered, which is source order for the paths of a join.
	preds []*cfgBlock
}

// A cfgJoin is a statement whose paths split and meet again: an if,
// switch, type switch or select, whose paths leave split and rejoin at
// the blocks in at (the block after the statement, and each case a
// fallthrough enters), or a loop, whose paths leave it from its head
// (split) through at (the block after the loop).
type cfgJoin struct {
	stmt  ast.Stmt
	split *cfgBlock
	at    []*cfgBlock
}

// A funcCFG is the control-flow graph of one function body.
type funcCFG struct {
	entry *cfgBlock
	// exit is the single normal-return block (every return statement and
	// the fall-off-the-end path lead here). It holds no statements.
	exit *cfgBlock
	// panicExit collects paths that leave through panic or a
	// never-returns call. Checks about clean returns skip these edges.
	panicExit *cfgBlock
	blocks    []*cfgBlock
	// defers are the defer statements anywhere in the body, in source
	// order. They run on every exit (normal or unwinding), so path
	// checks treat a satisfying defer as covering all exits.
	defers []*ast.DeferStmt
	// joins are the function's branching statements and loops.
	joins []*cfgJoin
}

// cfgBuilder carries the under-construction graph.
type cfgBuilder struct {
	g    *funcCFG
	cur  *cfgBlock
	info *types.Info

	// break/continue targets of the enclosing loop/switch stack.
	breakTargets    []*cfgBlock
	continueTargets []*cfgBlock
	// labeled break/continue/goto targets by label name.
	labelBreak    map[string]*cfgBlock
	labelContinue map[string]*cfgBlock
	labelBlocks   map[string]*cfgBlock
	// label names the statement stmt lowers next when that statement
	// is labeled; a loop, switch or select registers it as its break
	// (and continue) target.
	label string
	// gotos seen before their label's block exists, patched at the end.
	pendingGotos map[string][]*cfgBlock
}

// buildCFG lowers body to basic blocks. info resolves callees for
// never-returns classification; it may be nil in tests.
func buildCFG(body *ast.BlockStmt, info *types.Info) *funcCFG {
	g := &funcCFG{}
	b := &cfgBuilder{
		g:             g,
		info:          info,
		labelBreak:    make(map[string]*cfgBlock),
		labelContinue: make(map[string]*cfgBlock),
		labelBlocks:   make(map[string]*cfgBlock),
		pendingGotos:  make(map[string][]*cfgBlock),
	}
	g.entry = b.newBlock()
	g.exit = b.newBlock()
	g.panicExit = b.newBlock()
	b.cur = g.entry
	b.stmtList(body.List)
	b.jump(g.exit) // fall off the end
	for label, srcs := range b.pendingGotos {
		if tgt, ok := b.labelBlocks[label]; ok {
			for _, src := range srcs {
				link(src, tgt)
			}
		}
	}
	return g
}

func (b *cfgBuilder) newBlock() *cfgBlock {
	blk := &cfgBlock{index: len(b.g.blocks)}
	b.g.blocks = append(b.g.blocks, blk)
	return blk
}

// link adds edges from one block to others.
func link(from *cfgBlock, to ...*cfgBlock) {
	for _, t := range to {
		from.succs = append(from.succs, t)
		t.preds = append(t.preds, from)
	}
}

// addJoin records a branching statement or loop that leaves split and
// rejoins at the given blocks.
func (b *cfgBuilder) addJoin(s ast.Stmt, split *cfgBlock, at ...*cfgBlock) *cfgJoin {
	j := &cfgJoin{stmt: s, split: split, at: at}
	b.g.joins = append(b.g.joins, j)
	return j
}

// jump ends the current block with an edge to tgt and leaves the
// builder on a fresh unreachable block (so statements after a return
// still land somewhere without corrupting the graph).
func (b *cfgBuilder) jump(tgt *cfgBlock) {
	link(b.cur, tgt)
	b.cur = b.newBlock()
}

// startBlock links the current block to next and continues there.
func (b *cfgBuilder) startBlock(next *cfgBlock) {
	link(b.cur, next)
	b.cur = next
}

func (b *cfgBuilder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

func (b *cfgBuilder) stmt(s ast.Stmt) {
	label := b.label
	b.label = ""
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.IfStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		b.cur.stmts = append(b.cur.stmts, s) // condition evaluates here
		thenB := b.newBlock()
		elseB := b.newBlock()
		join := b.newBlock()
		link(b.cur, thenB, elseB)
		b.addJoin(s, b.cur, join)
		b.cur = thenB
		b.stmtList(s.Body.List)
		link(b.cur, join)
		b.cur = elseB
		if s.Else != nil {
			b.stmt(s.Else)
		}
		link(b.cur, join)
		b.cur = join

	case *ast.ForStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		head := b.newBlock()
		body := b.newBlock()
		post := b.newBlock()
		exit := b.newBlock()
		b.startBlock(head)
		b.addJoin(s, head, exit)
		if s.Cond != nil {
			head.stmts = append(head.stmts, &ast.ExprStmt{X: s.Cond})
			link(head, body, exit)
		} else {
			// No condition: the only way out is break/return.
			link(head, body)
		}
		b.pushLoop(label, exit, post)
		b.cur = body
		b.stmtList(s.Body.List)
		b.popLoop()
		link(b.cur, post)
		b.cur = post
		if s.Post != nil {
			b.stmt(s.Post)
		}
		link(b.cur, head)
		b.cur = exit

	case *ast.RangeStmt:
		head := b.newBlock()
		body := b.newBlock()
		exit := b.newBlock()
		b.cur.stmts = append(b.cur.stmts, &ast.ExprStmt{X: s.X})
		b.startBlock(head)
		b.addJoin(s, head, exit)
		// The per-iteration key/value assignment happens at the head.
		head.stmts = append(head.stmts, s)
		link(head, body, exit)
		b.pushLoop(label, exit, head)
		b.cur = body
		b.stmtList(s.Body.List)
		b.popLoop()
		link(b.cur, head)
		b.cur = exit

	case *ast.SwitchStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		if s.Tag != nil {
			b.cur.stmts = append(b.cur.stmts, &ast.ExprStmt{X: s.Tag})
		}
		b.switchBody(label, s, s.Body)

	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		b.cur.stmts = append(b.cur.stmts, s.Assign)
		b.switchBody(label, s, s.Body)

	case *ast.SelectStmt:
		// A select without default still picks some case, so only the
		// cases reach the join.
		head := b.cur
		join := b.newBlock()
		b.addJoin(s, head, join)
		b.pushSwitch(label, join)
		for _, c := range s.Body.List {
			cc := c.(*ast.CommClause)
			caseB := b.newBlock()
			link(head, caseB)
			b.cur = caseB
			if cc.Comm != nil {
				b.stmt(cc.Comm)
			}
			b.stmtList(cc.Body)
			link(b.cur, join)
		}
		b.popSwitch()
		b.cur = join

	case *ast.ReturnStmt:
		b.cur.stmts = append(b.cur.stmts, s)
		b.jump(b.g.exit)

	case *ast.BranchStmt:
		b.cur.stmts = append(b.cur.stmts, s)
		switch s.Tok.String() {
		case "break":
			b.jump(b.branchTarget(s, b.breakTargets, b.labelBreak))
		case "continue":
			b.jump(b.branchTarget(s, b.continueTargets, b.labelContinue))
		case "goto":
			if s.Label != nil {
				if tgt, ok := b.labelBlocks[s.Label.Name]; ok {
					b.jump(tgt)
				} else {
					src := b.cur
					b.cur = b.newBlock()
					b.pendingGotos[s.Label.Name] = append(b.pendingGotos[s.Label.Name], src)
				}
			}
		case "fallthrough":
			// switchBody wires fallthrough edges; nothing to do here.
		}

	case *ast.LabeledStmt:
		tgt := b.newBlock()
		b.labelBlocks[s.Label.Name] = tgt
		b.startBlock(tgt)
		b.label = s.Label.Name
		b.stmt(s.Stmt)

	case *ast.DeferStmt:
		b.g.defers = append(b.g.defers, s)
		b.cur.stmts = append(b.cur.stmts, s)

	case *ast.GoStmt, *ast.SendStmt, *ast.IncDecStmt, *ast.AssignStmt,
		*ast.DeclStmt, *ast.EmptyStmt:
		b.cur.stmts = append(b.cur.stmts, s)

	case *ast.ExprStmt:
		b.cur.stmts = append(b.cur.stmts, s)
		if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok && b.neverReturns(call) {
			b.jump(b.g.panicExit)
		}

	default:
		if s != nil {
			b.cur.stmts = append(b.cur.stmts, s)
		}
	}
}

// switchBody lowers the case clauses of switch statement s: every
// case body is a successor of the current block, fallthrough chains to
// the next body, break (and the end of a body) goes to the join block.
func (b *cfgBuilder) switchBody(label string, s ast.Stmt, body *ast.BlockStmt) {
	head := b.cur
	join := b.newBlock()
	j := b.addJoin(s, head, join)
	b.pushSwitch(label, join)
	var caseBlocks []*cfgBlock
	var clauses []*ast.CaseClause
	for _, c := range body.List {
		cc, ok := c.(*ast.CaseClause)
		if !ok {
			continue
		}
		caseBlocks = append(caseBlocks, b.newBlock())
		clauses = append(clauses, cc)
	}
	hasDefault := false
	for i, cc := range clauses {
		link(head, caseBlocks[i])
		if cc.List == nil {
			hasDefault = true
		}
		b.cur = caseBlocks[i]
		b.stmtList(cc.Body)
		// fallthrough must be the last statement of a body; the next
		// body is then a second place the switch's paths rejoin.
		if n := len(cc.Body); n > 0 {
			if br, ok := cc.Body[n-1].(*ast.BranchStmt); ok && br.Tok.String() == "fallthrough" && i+1 < len(caseBlocks) {
				link(b.cur, caseBlocks[i+1])
				j.at = append(j.at, caseBlocks[i+1])
				continue
			}
		}
		link(b.cur, join)
	}
	if !hasDefault {
		link(head, join) // no case matched
	}
	b.popSwitch()
	b.cur = join
}

// pushLoop enters a loop: brk and cont are its break and continue
// targets, also under label when it is labeled.
func (b *cfgBuilder) pushLoop(label string, brk, cont *cfgBlock) {
	b.pushSwitch(label, brk)
	b.continueTargets = append(b.continueTargets, cont)
	if label != "" {
		b.labelContinue[label] = cont
	}
}

func (b *cfgBuilder) popLoop() {
	b.breakTargets = b.breakTargets[:len(b.breakTargets)-1]
	b.continueTargets = b.continueTargets[:len(b.continueTargets)-1]
}

// pushSwitch enters a switch or select, or a loop: brk is its break
// target, also under label when it is labeled.
func (b *cfgBuilder) pushSwitch(label string, brk *cfgBlock) {
	b.breakTargets = append(b.breakTargets, brk)
	if label != "" {
		b.labelBreak[label] = brk
	}
}

func (b *cfgBuilder) popSwitch() {
	b.breakTargets = b.breakTargets[:len(b.breakTargets)-1]
}

// branchTarget resolves break/continue, labeled or not. Unresolvable
// targets (malformed code) jump to the normal exit so analysis stays
// conservative rather than crashing.
func (b *cfgBuilder) branchTarget(s *ast.BranchStmt, stack []*cfgBlock, labeled map[string]*cfgBlock) *cfgBlock {
	if s.Label != nil {
		if tgt, ok := labeled[s.Label.Name]; ok {
			return tgt
		}
		return b.g.exit
	}
	if len(stack) > 0 {
		return stack[len(stack)-1]
	}
	return b.g.exit
}

// neverReturns reports whether the statement-level call provably does
// not return: the panic builtin, os.Exit, runtime.Goexit, the
// log.Fatal/Panic family, internal/cli's process terminators, and
// testing's FailNow/Fatal/Skip family (which Goexit).
func (b *cfgBuilder) neverReturns(call *ast.CallExpr) bool {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
		if b.info == nil {
			return true
		}
		if _, isBuiltin := b.info.Uses[id].(*types.Builtin); isBuiltin {
			return true
		}
	}
	if b.info == nil {
		return false
	}
	fn := funcObj(b.info, call)
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	name := fn.Name()
	switch fn.Pkg().Path() {
	case "os":
		return name == "Exit"
	case "runtime":
		return name == "Goexit"
	case "log":
		switch name {
		case "Fatal", "Fatalf", "Fatalln", "Panic", "Panicf", "Panicln":
			return true
		}
	case "testing":
		switch name {
		case "FailNow", "Fatal", "Fatalf", "SkipNow", "Skip", "Skipf":
			return true
		}
	default:
		if isPkgFunc(fn, fn.Pkg().Path(), name) && strings.HasSuffix(fn.Pkg().Path(), "/internal/cli") {
			switch name {
			case "Exit", "Usagef", "Abort":
				return true
			}
		}
	}
	return false
}

// blockSeen is a reusable visited set for CFG walks.
type blockSeen map[*cfgBlock]bool

// allPathsHit reports whether every path from `from` (starting at
// statement index fromIdx within it) to the normal exit passes a
// statement satisfying hit. Paths into the panic exit are not
// required to hit (unwinding runs defers; callers model defers
// separately). Cycles that never reach the exit trivially satisfy.
func (g *funcCFG) allPathsHit(from *cfgBlock, fromIdx int, hit func(ast.Stmt) bool) bool {
	for _, s := range from.stmts[fromIdx:] {
		if hit(s) {
			return true
		}
	}
	seen := blockSeen{}
	var walk func(b *cfgBlock) bool
	walk = func(b *cfgBlock) bool {
		if b == g.exit {
			return false // reached a clean return without a hit
		}
		if b == g.panicExit || seen[b] {
			return true
		}
		seen[b] = true
		for _, s := range b.stmts {
			if hit(s) {
				return true
			}
		}
		for _, s := range b.succs {
			if !walk(s) {
				return false
			}
		}
		return true
	}
	for _, s := range from.succs {
		if !walk(s) {
			return false
		}
	}
	return true
}

// evaluatedNodes returns the parts of a block statement that execute
// AT that point in the graph. Compound statements appear in a block
// only for their condition/assign part — their bodies live in
// successor blocks — so analyzers must not ast.Inspect the whole node
// or they would double-count nested blocks.
func evaluatedNodes(s ast.Stmt) []ast.Node {
	switch s := s.(type) {
	case *ast.IfStmt:
		return []ast.Node{s.Cond}
	case *ast.RangeStmt:
		// The range expression is emitted as its own ExprStmt before the
		// head; the head's RangeStmt stands for the per-iteration
		// key/value assignment, which evaluates nothing interesting.
		return nil
	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt,
		*ast.ForStmt, *ast.BlockStmt:
		return nil
	default:
		return []ast.Node{s}
	}
}

// findStmt locates the block and statement index of a statement.
func (g *funcCFG) findStmt(target ast.Stmt) (*cfgBlock, int) {
	for _, b := range g.blocks {
		for i, s := range b.stmts {
			if s == target {
				return b, i
			}
		}
	}
	return nil, -1
}
