package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

// RNGDraw enforces the seeded-RNG draw-count discipline that keeps a
// nil fault plan byte-identical to no fault layer: once any code has
// consumed values from a shared seeded stream, every later consumer
// sees a shifted stream, so the NUMBER of draws must never depend on
// anything but the seed itself. The concrete conventions (package doc
// of internal/fault): plans with per-delivery randomness draw a fixed
// count per consultation regardless of outcome, and conditionals that
// skip a draw must either terminate the path (early return — the
// combinator pattern, documented to consume no randomness) or burn the
// same number of draws on the other side. The analyzer carries the
// draw count forward over each function's control-flow graph: wherever
// the paths of an if, switch, type switch or select rejoin (break and
// fallthrough included), or leave a loop, every path must arrive with
// the same count. A draw on the short-circuited side of && / || is
// consumed only when the left side passes, which hides an imbalance
// inside a single expression.
var RNGDraw = &Analyzer{
	Name: "rngdraw",
	Doc: "in internal/fault, internal/ess, internal/station, and internal/core, " +
		"paths that rejoin after a conditional, switch or select, or that leave a loop, " +
		"must consume the same number of seeded-RNG draws (*sim.RNG / *math/rand.Rand " +
		"method calls), and a draw must not sit on the short-circuited side of && or ||; " +
		"early-returning paths are exempt (the documented consume-nothing combinator pattern)",
	Run: runRNGDraw,
}

// rngDrawScope lists the packages carrying the draw-count discipline.
// internal/core joined the scope with the windowed-parallel runner:
// group-private RNG streams stay worker-count independent only while
// every draw site keeps the fixed-count convention.
var rngDrawScope = map[string]bool{
	"internal/fault":   true,
	"internal/ess":     true,
	"internal/station": true,
	"internal/core":    true,
}

func runRNGDraw(p *Pass) error {
	if !rngDrawScope[p.RelPath()] {
		return nil
	}
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			reportShortCircuitDraws(p, fn.Body)
			checkDrawJoins(p, buildCFG(fn.Body, p.TypesInfo))
		}
	}
	return nil
}

// reportShortCircuitDraws flags each draw (or generator hand-off) on
// the right of an && or || in body, which runs only when the left side
// lets it.
func reportShortCircuitDraws(p *Pass, body *ast.BlockStmt) {
	eachSureCall(body, func(*ast.CallExpr) {}, func(e ast.Expr) {
		ast.Inspect(e, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if ok && usesRNG(p.TypesInfo, call) {
				p.Reportf(call.Pos(), "seeded-RNG draw on the short-circuited side of && / || is consumed only when the left side passes; hoist the draw so the stream position is branch-independent")
				return false
			}
			return true
		})
	})
}

// A drawCount is the number of seeded draws made on every path into a
// point since the block numbered anchor, where the count was last
// known: the function entry, a merge of paths that disagree, or a
// statement that hands the generator to a call or draws under go or
// defer. Counts with different anchors do not compare.
type drawCount struct{ anchor, n int }

// unreached is the count of a point no path reaches.
var unreached = drawCount{anchor: -1}

// checkDrawJoins carries draw counts forward over g and reports each
// branching statement or loop whose paths rejoin with different
// counts. Paths into the normal and panic exits are never compared, so
// an early return stays exempt.
func checkDrawJoins(p *Pass, g *funcCFG) {
	order := reversePostorder(g)
	pos := make([]int, len(g.blocks)) // 1-based; 0 where no path reaches
	for i, b := range order {
		pos[b.index] = i + 1
	}
	back := func(from, to *cfgBlock) bool { return pos[from.index] >= pos[to.index] }
	rejoin := make([]bool, len(g.blocks))
	for _, j := range g.joins {
		for _, at := range j.at {
			rejoin[at.index] = true
		}
	}
	// lost marks the blocks (loop heads) that a back edge reaches with
	// another count than the paths from before them bring.
	lost := make([]bool, len(g.blocks))
	out := make([]drawCount, len(g.blocks))
	for i := range out {
		out[i] = unreached
	}
	// arriving folds the counts of the forward paths into b. Where a
	// statement's paths rejoin, the first path's count carries on (the
	// disagreement is reported once, at the statement); anywhere else,
	// paths that disagree lose the count.
	arriving := func(b *cfgBlock) drawCount {
		if b == g.entry || lost[b.index] {
			return drawCount{anchor: b.index}
		}
		c := unreached
		for _, pred := range b.preds {
			switch o := out[pred.index]; {
			case o.anchor < 0 || back(pred, b):
			case c.anchor < 0:
				c = o
			case o.anchor != c.anchor || o.n != c.n && !rejoin[b.index]:
				return drawCount{anchor: b.index}
			}
		}
		return c
	}
	// In reverse postorder each block follows its forward predecessors,
	// so one pass settles every count; a pass that finds a loop head
	// lost runs again.
	for again := true; again; {
		for _, b := range order {
			c := arriving(b)
			for _, s := range b.stmts {
				if n := stmtDraws(p.TypesInfo, s); n < 0 {
					c = drawCount{anchor: b.index}
				} else {
					c.n += n
				}
			}
			out[b.index] = c
		}
		again = false
		for _, b := range order {
			for _, pred := range b.preds {
				if back(pred, b) && !lost[b.index] && out[pred.index] != arriving(b) {
					lost[b.index], again = true, true
				}
			}
		}
	}
	for _, j := range g.joins {
		switch j.stmt.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			if lost[j.split.index] {
				continue // draws per iteration: the trip count decides
			}
		}
		reportDrawJoin(p, j, out, out[j.split.index])
	}
}

// reportDrawJoin reports the first two paths that rejoin after j with
// different counts, counted from split, the count j's paths leave with.
func reportDrawJoin(p *Pass, j *cfgJoin, out []drawCount, split drawCount) {
	for _, at := range j.at {
		first := unreached
		for _, pred := range at.preds {
			switch c := out[pred.index]; {
			case c.anchor != split.anchor || c.anchor < 0:
				// Unreached, or the count was lost on the way.
			case first.anchor < 0:
				first = c
			case c.n != first.n:
				p.Reportf(j.stmt.Pos(), "%s draw %d vs %d values from the seeded RNG; a branch-dependent draw count shifts the stream for every later consumer — balance the branches or burn the difference", joinPaths(j.stmt), first.n-split.n, c.n-split.n)
				return
			}
		}
	}
}

// joinPaths names the paths of a branching statement or loop.
func joinPaths(s ast.Stmt) string {
	switch s.(type) {
	case *ast.IfStmt:
		return "branches of this if"
	case *ast.SelectStmt:
		return "cases of this select"
	case *ast.ForStmt, *ast.RangeStmt:
		return "paths out of this loop"
	default:
		return "cases of this switch"
	}
}

// reversePostorder lists the blocks reachable from g's entry so that
// each comes before its successors, loop back edges aside.
func reversePostorder(g *funcCFG) []*cfgBlock {
	var order []*cfgBlock
	seen := make([]bool, len(g.blocks))
	var visit func(b *cfgBlock)
	visit = func(b *cfgBlock) {
		seen[b.index] = true
		for _, s := range b.succs {
			if !seen[s.index] {
				visit(s)
			}
		}
		order = append(order, b)
	}
	visit(g.entry)
	slices.Reverse(order)
	return order
}

// stmtDraws counts the seeded draws a graph statement makes where it
// stands, or returns -1 when the count is lost there: a generator is
// handed to a call, or drawn from under go or defer (closure bodies
// included).
func stmtDraws(info *types.Info, s ast.Stmt) int {
	n := 0
	switch s.(type) {
	case *ast.GoStmt, *ast.DeferStmt:
		ast.Inspect(s, func(node ast.Node) bool {
			if call, ok := node.(*ast.CallExpr); ok && usesRNG(info, call) {
				n = -1
			}
			return n == 0
		})
		return n
	}
	for _, e := range evaluatedNodes(s) {
		eachSureCall(e, func(call *ast.CallExpr) {
			if n >= 0 && isRNGDrawCall(info, call) {
				n++
			} else if rngEscapesInto(info, call) {
				n = -1
			}
		}, func(ast.Expr) {})
	}
	return n
}

// eachSureCall calls call for every call under n that runs whenever n
// evaluates, and shortCircuited for the right operand of each && and
// || among them, which runs only when the left side lets it. Function
// literals are skipped: their bodies run elsewhere.
func eachSureCall(n ast.Node, call func(*ast.CallExpr), shortCircuited func(ast.Expr)) {
	var visit func(ast.Node) bool
	visit = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.BinaryExpr:
			if n.Op == token.LAND || n.Op == token.LOR {
				ast.Inspect(n.X, visit)
				shortCircuited(n.Y)
				return false
			}
		case *ast.CallExpr:
			call(n)
		}
		return true
	}
	ast.Inspect(n, visit)
}

// usesRNG reports whether call draws from a seeded generator or is
// handed one.
func usesRNG(info *types.Info, call *ast.CallExpr) bool {
	return isRNGDrawCall(info, call) || rngEscapesInto(info, call)
}

// isRNGDrawCall reports whether call is a method call on a seeded
// generator (*sim.RNG or *math/rand.Rand / rand/v2) — one draw event.
// Call COUNT is the unit: Perm draws more underlying values than
// Float64, but a count mismatch in calls is exactly the imbalance the
// discipline forbids.
func isRNGDrawCall(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	t := info.TypeOf(sel.X)
	return isSeededRNG(t)
}

// isSeededRNG reports whether t is a pointer to a seeded generator.
func isSeededRNG(t types.Type) bool {
	if t == nil {
		return false
	}
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return false
	}
	switch obj.Pkg().Path() {
	case "math/rand", "math/rand/v2":
		return obj.Name() == "Rand"
	}
	// The suffix matches the module's internal/sim under any module
	// path (fixtures load under synthetic ones).
	return obj.Name() == "RNG" && strings.HasSuffix(obj.Pkg().Path(), "/internal/sim")
}

// rngEscapesInto reports whether the call receives a seeded generator
// as an argument — the callee may draw any number of values, so the
// caller's count becomes opaque from here.
func rngEscapesInto(info *types.Info, call *ast.CallExpr) bool {
	for _, a := range call.Args {
		if isSeededRNG(info.TypeOf(a)) {
			return true
		}
	}
	return false
}
