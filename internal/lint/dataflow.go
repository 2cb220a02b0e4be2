// Dataflow over the function CFG: a forward "may" analysis tracking,
// for each local variable, whether its value may carry a fact — may
// alias a shared frame buffer, may be the handle of a read-only file.
// This is reaching definitions folded to a per-variable boolean: at
// each assignment the defined variable's fact is recomputed from the
// facts reaching the right-hand side, and joins take the union (a
// variable MAY carry the fact if any predecessor path says so). The
// analysis is intraprocedural and field-insensitive: a struct carries
// the fact as a whole, and the carrier function decides whether its
// fields do. Calls are opaque (their results carry no fact unless the
// carrier function says otherwise), except that a call handed a
// carrying argument may store it through any &x argument, so x may
// carry the fact afterwards. Over-approximation is by design: the
// analyzers built on this report writes that MAY hit a shared buffer,
// and the suppression directive exists for the cases the
// approximation cannot see through.
package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
)

// factSet maps local objects to "may carry the fact".
type factSet map[types.Object]bool

func (s factSet) clone() factSet {
	out := make(factSet, len(s))
	for k, v := range s {
		out[k] = v
	}
	return out
}

// union adds o's facts, reporting whether anything changed.
func (s factSet) union(o factSet) bool {
	changed := false
	for k := range o {
		if !s[k] {
			s[k] = true
			changed = true
		}
	}
	return changed
}

// A flowAnalysis computes per-block entry fact sets over a CFG.
//
// carries decides whether evaluating expr yields a value carrying the
// fact, given the facts in force at that point — the transfer
// function's value lattice. It must handle idents (look them up in
// facts) and whatever value-propagating expressions matter to the
// client (slicing, append, &x, conversions ...).
type flowAnalysis struct {
	info    *types.Info
	carries func(expr ast.Expr, facts factSet) bool
}

// solve runs the forward fixpoint from seed (facts at function entry)
// and returns the fact set at the ENTRY of every block, indexed like
// g.blocks. Statement-level positions inside a block are recovered by
// replaying transfers with stepStmt.
func (fa *flowAnalysis) solve(g *funcCFG, seed factSet) []factSet {
	in := make([]factSet, len(g.blocks))
	for i := range in {
		in[i] = factSet{}
	}
	in[g.entry.index] = seed.clone()

	work := []*cfgBlock{g.entry}
	onWork := make([]bool, len(g.blocks))
	onWork[g.entry.index] = true
	for len(work) > 0 {
		b := work[0]
		work = work[1:]
		onWork[b.index] = false
		out := in[b.index].clone()
		for _, s := range b.stmts {
			fa.stepStmt(s, out)
		}
		for _, succ := range b.succs {
			if in[succ.index].union(out) && !onWork[succ.index] {
				onWork[succ.index] = true
				work = append(work, succ)
			}
		}
	}
	return in
}

// stepStmt applies one statement's transfer to facts in place. Only
// the parts of compound statements that execute at this CFG point are
// considered (evaluatedNodes).
func (fa *flowAnalysis) stepStmt(s ast.Stmt, facts factSet) {
	fa.stepCalls(s, facts)
	switch s := s.(type) {
	case *ast.AssignStmt:
		fa.stepAssign(s, facts)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					val := false
					if i < len(vs.Values) {
						val = fa.carries(vs.Values[i], facts)
					}
					fa.setIdent(name, val, facts)
				}
			}
		}
	case *ast.RangeStmt:
		// Ranging over a carrying slice binds the VALUE variable to
		// elements, not the slice — for []byte frame buffers the element
		// is a byte, so range never propagates the fact. The key/value
		// vars are killed (fresh per-iteration values).
		if s.Key != nil {
			if id, ok := s.Key.(*ast.Ident); ok {
				fa.setIdent(id, false, facts)
			}
		}
		if s.Value != nil {
			if id, ok := s.Value.(*ast.Ident); ok {
				fa.setIdent(id, false, facts)
			}
		}
	}
}

// stepCalls applies the side effect of the calls s evaluates: a call
// handed an argument that carries the fact may store it through any
// &x argument (dot11.ReadBeacon(raw, &b) leaves b's bitmaps aliasing
// raw), so x may carry the fact once the call returns. Function
// literals are not evaluated here, and no fact is ever killed.
func (fa *flowAnalysis) stepCalls(s ast.Stmt, facts factSet) {
	for _, n := range evaluatedNodes(s) {
		ast.Inspect(n, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				return false
			case *ast.CallExpr:
				fa.stepCall(n, facts)
			}
			return true
		})
	}
}

// stepCall marks the &x arguments of one call that receives a
// carrying argument.
func (fa *flowAnalysis) stepCall(call *ast.CallExpr, facts factSet) {
	if !slices.ContainsFunc(call.Args, func(a ast.Expr) bool { return fa.carries(a, facts) }) {
		return
	}
	for _, a := range call.Args {
		if u, ok := ast.Unparen(a).(*ast.UnaryExpr); ok && u.Op == token.AND {
			if id, ok := ast.Unparen(u.X).(*ast.Ident); ok {
				fa.setIdent(id, true, facts)
			}
		}
	}
}

// stepAssign transfers one assignment.
func (fa *flowAnalysis) stepAssign(s *ast.AssignStmt, facts factSet) {
	if len(s.Lhs) == len(s.Rhs) {
		// Evaluate all RHS facts before any kill (parallel assignment).
		vals := make([]bool, len(s.Rhs))
		for i, r := range s.Rhs {
			if s.Tok.String() == "=" || s.Tok.String() == ":=" {
				vals[i] = fa.carries(r, facts)
			} else {
				// Compound ops (+=, ^=, ...) preserve the LHS fact: x ^= k
				// on a carrying byte does not change what x aliases.
				if id, ok := ast.Unparen(s.Lhs[i]).(*ast.Ident); ok {
					vals[i] = facts[fa.objOf(id)]
				}
			}
		}
		for i, l := range s.Lhs {
			if id, ok := ast.Unparen(l).(*ast.Ident); ok {
				fa.setIdent(id, vals[i], facts)
			}
		}
		return
	}
	// Multi-value form x, y := f(): calls are opaque, so every defined
	// variable is killed.
	for _, l := range s.Lhs {
		if id, ok := ast.Unparen(l).(*ast.Ident); ok {
			fa.setIdent(id, false, facts)
		}
	}
}

func (fa *flowAnalysis) objOf(id *ast.Ident) types.Object {
	if obj := fa.info.Defs[id]; obj != nil {
		return obj
	}
	return fa.info.Uses[id]
}

func (fa *flowAnalysis) setIdent(id *ast.Ident, val bool, facts factSet) {
	obj := fa.objOf(id)
	if obj == nil || id.Name == "_" {
		return
	}
	if val {
		facts[obj] = true
	} else {
		delete(facts, obj)
	}
}

// aliasCarrier returns a carries function for may-alias of slice or
// pointer-shaped values: an identifier aliases if its object is in the
// fact set; slicing, parenthesizing, selecting a field, and growing
// with append preserve aliasing; append onto a fresh backing array
// (append([]byte(nil), ...) or append(x[:0:0], ...)) is the sanctioned
// clone idiom and does NOT alias; everything else (calls, literals,
// index loads) is fresh.
func aliasCarrier(info *types.Info) func(expr ast.Expr, facts factSet) bool {
	var carries func(expr ast.Expr, facts factSet) bool
	carries = func(expr ast.Expr, facts factSet) bool {
		switch e := ast.Unparen(expr).(type) {
		case *ast.Ident:
			obj := info.Uses[e]
			if obj == nil {
				obj = info.Defs[e]
			}
			return obj != nil && facts[obj]
		case *ast.SliceExpr:
			// A full-slice expression with capacity 0 (x[:0:0]) cannot
			// expose the backing array to an append, so append grows into
			// fresh memory; plain sub-slices keep aliasing.
			if e.Slice3 && isZeroLiteral(e.Max) && isZeroLiteral(e.High) {
				return false
			}
			return carries(e.X, facts)
		case *ast.CallExpr:
			if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok && id.Name == "append" && isBuiltin(info, id) && len(e.Args) > 0 {
				return carries(e.Args[0], facts)
			}
			return false
		case *ast.UnaryExpr:
			if e.Op.String() == "&" {
				return carries(e.X, facts)
			}
			return false
		case *ast.StarExpr:
			return carries(e.X, facts)
		case *ast.SelectorExpr:
			// A field of a value that may alias the frame may alias it
			// too: b.BTIM.PartialBitmap after ReadBeacon(raw, &b).
			if sel := info.Selections[e]; sel != nil && sel.Kind() == types.FieldVal {
				return carries(e.X, facts)
			}
			return false
		default:
			return false
		}
	}
	return carries
}

// isZeroLiteral reports whether e is the integer literal 0.
func isZeroLiteral(e ast.Expr) bool {
	lit, ok := ast.Unparen(e).(*ast.BasicLit)
	return ok && lit.Value == "0"
}
