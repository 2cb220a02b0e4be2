package lint

import (
	"go/ast"
	"go/types"
)

// GoJoin protects barrier-window determinism: the engine's worker pool
// and the ESS's one-goroutine-per-shard windows are only deterministic
// because every spawned goroutine is JOINED before the spawning
// function returns — results are reduced in index order after
// wg.Wait(), and cross-shard effects merge serially at the barrier. A
// goroutine that escapes its function keeps mutating shared state
// while the barrier logic believes the window is closed, which breaks
// byte-identity only under scheduler timing — the worst kind of flake.
// The analyzer walks the CFG from each go statement and requires a
// join operation (sync.WaitGroup.Wait, a channel receive, or ranging
// over a channel) on every path to the function's normal exit.
var GoJoin = &Analyzer{
	Name: "gojoin",
	Doc: "every go statement in internal/engine, internal/ess, internal/netmedium, " +
		"internal/daemon, internal/control, and internal/core must be joined " +
		"(WaitGroup.Wait or a channel receive) on all normal exit paths of the " +
		"enclosing function, so no goroutine outlives the barrier window that " +
		"spawned it",
	Run: runGoJoin,
}

// goJoinScope lists the packages whose goroutines must be joined.
// internal/core joined the scope with the windowed-parallel runner,
// whose barrier discipline this analyzer protects; its group drains
// now run on the engine pool, and the scope keeps any new goroutine
// there under the same rule.
var goJoinScope = map[string]bool{
	"internal/engine":    true,
	"internal/ess":       true,
	"internal/netmedium": true,
	"internal/daemon":    true,
	"internal/control":   true,
	"internal/core":      true,
}

func runGoJoin(p *Pass) error {
	if !goJoinScope[p.RelPath()] {
		return nil
	}
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkGoJoin(p, fn.Body)
			// Function literals spawn and join independently of their
			// enclosing function (a worker body may itself fan out).
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					checkGoJoin(p, lit.Body)
				}
				return true
			})
		}
	}
	return nil
}

// checkGoJoin builds the body's CFG and verifies each top-level go
// statement (go statements inside nested FuncLits belong to those
// literals) is joined on all normal exit paths.
func checkGoJoin(p *Pass, body *ast.BlockStmt) {
	var gos []*ast.GoStmt
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.GoStmt:
			gos = append(gos, n)
		}
		return true
	})
	if len(gos) == 0 {
		return
	}
	g := buildCFG(body, p.TypesInfo)
	// A join in a defer covers every exit, normal or unwinding.
	for _, d := range g.defers {
		if callsJoin(p.TypesInfo, d.Call) {
			return
		}
	}
	for _, goStmt := range gos {
		blk, idx := g.findStmt(goStmt)
		if blk == nil {
			continue // inside a compound head; conservative skip
		}
		joined := g.allPathsHit(blk, idx+1, func(s ast.Stmt) bool {
			return stmtJoins(p.TypesInfo, s)
		})
		if !joined {
			p.Reportf(goStmt.Pos(), "goroutine may outlive the enclosing function on some exit path; join it (WaitGroup.Wait or a channel receive) before every return so the barrier window stays closed")
		}
	}
}

// stmtJoins reports whether the statement performs a join: a
// WaitGroup.Wait call, a receive expression, or ranging over a channel.
func stmtJoins(info *types.Info, s ast.Stmt) bool {
	if rs, ok := s.(*ast.RangeStmt); ok {
		if t := info.TypeOf(rs.X); t != nil {
			if _, isChan := t.Underlying().(*types.Chan); isChan {
				return true
			}
		}
		return false
	}
	found := false
	for _, n := range evaluatedNodes(s) {
		ast.Inspect(n, func(n ast.Node) bool {
			if found {
				return false
			}
			switch n := n.(type) {
			case *ast.FuncLit:
				return false
			case *ast.UnaryExpr:
				if n.Op.String() == "<-" {
					found = true
				}
			case *ast.CallExpr:
				if callsJoin(info, n) {
					found = true
				}
			}
			return !found
		})
	}
	return found
}

// callsJoin reports whether call is (*sync.WaitGroup).Wait, or a
// receive hiding inside the call's arguments.
func callsJoin(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if ok && sel.Sel.Name == "Wait" {
		t := info.TypeOf(sel.X)
		if ptr, okp := t.(*types.Pointer); okp {
			t = ptr.Elem()
		}
		if named, okn := t.(*types.Named); okn {
			obj := named.Obj()
			if obj.Pkg() != nil && obj.Pkg().Path() == "sync" && obj.Name() == "WaitGroup" {
				return true
			}
		}
	}
	for _, a := range call.Args {
		if ue, okU := ast.Unparen(a).(*ast.UnaryExpr); okU && ue.Op.String() == "<-" {
			return true
		}
	}
	return false
}
