package lint

import (
	"go/ast"
	"go/types"
)

// FrameMut protects the copy-free fan-out: since the hot-path overhaul
// the medium makes exactly ONE copy of each transmitted frame and every
// receiver shares that buffer immutably — corruption under a fault plan
// clones first (append([]byte(nil), raw...)), and nothing else may
// write. The medium also reads each transmission once, into one
// medium.Frame (kind and beacon reading) that every receiver is handed.
// A single stray raw[i] = x or f.Kind = k in one station's receive
// path would silently garble the frame or the reading every LATER
// receiver in the fan-out sees, breaking byte-identity in a way
// pointwise tests rarely catch. This analyzer runs a may-alias dataflow
// over each function that handles a delivered frame and flags writes
// through any slice that may still alias it, and stores through any
// pointer that may.
var FrameMut = &Analyzer{
	Name: "framemut",
	Doc: "delivered frames and the channel's reading of them are shared and " +
		"immutable: in medium.Node Receive/ReceiveAs implementations and throughout " +
		"internal/medium and internal/station, no write (element store, copy dst) may " +
		"go through a byte slice that may alias a frame parameter ([]byte, " +
		"medium.Frame, dot11.BeaconReading), directly or through the fields of a value " +
		"read from it, and no store may go through a pointer that may alias one; " +
		"clone first with append([]byte(nil), b...)",
	Run: runFrameMut,
}

func runFrameMut(p *Pass) error {
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			params := frameParams(p, fn)
			if len(params) == 0 {
				continue
			}
			checkFrameWrites(p, fn, params)
		}
	}
	return nil
}

// frameParams returns the parameters of fn that hold a delivered (or
// injected) frame: a []byte buffer, or the channel's reading of one (a
// medium.Frame or a dot11.BeaconReading, by value or pointer), whose
// slices alias the frame and which every receiver of the fan-out
// shares. They are the frame parameters of a Receive/ReceiveAs method
// matching the medium.Node shape anywhere in the tree, and of any
// function inside internal/medium, where every byte slice in flight is
// the shared injection copy, and inside internal/station, whose receive
// path hands the frame and its beacon reading on to helpers
// (handleBeacon, handleData) that read them in place.
func frameParams(p *Pass, fn *ast.FuncDecl) []types.Object {
	allParams := p.RelPath() == "internal/medium" || p.RelPath() == "internal/station"
	isReceive := fn.Recv != nil && (fn.Name.Name == "Receive" || fn.Name.Name == "ReceiveAs")
	if !allParams && !isReceive {
		return nil
	}
	var out []types.Object
	for _, field := range fn.Type.Params.List {
		if !isFrameType(p, p.TypesInfo.TypeOf(field.Type)) {
			continue
		}
		for _, name := range field.Names {
			if obj := p.TypesInfo.Defs[name]; obj != nil && name.Name != "_" {
				out = append(out, obj)
			}
		}
	}
	return out
}

// isFrameType reports whether t holds a delivered frame: a byte slice,
// or a medium.Frame or dot11.BeaconReading, directly or through one
// pointer.
func isFrameType(p *Pass, t types.Type) bool {
	if isByteSlice(t) {
		return true
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	switch named.Obj().Pkg().Path() + "." + named.Obj().Name() {
	case p.ModulePath + "/internal/medium.Frame", p.ModulePath + "/internal/dot11.BeaconReading":
		return true
	}
	return false
}

// isByteSlice reports whether t is []byte (or a named slice-of-byte).
func isByteSlice(t types.Type) bool {
	if t == nil {
		return false
	}
	sl, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := sl.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Byte
}

// checkFrameWrites runs the may-alias flow from the frame parameters
// and reports element stores and copy-destinations through aliases.
func checkFrameWrites(p *Pass, fn *ast.FuncDecl, params []types.Object) {
	g := buildCFG(fn.Body, p.TypesInfo)
	fa := &flowAnalysis{info: p.TypesInfo, carries: aliasCarrier(p.TypesInfo)}
	seed := factSet{}
	for _, obj := range params {
		seed[obj] = true
	}
	in := fa.solve(g, seed)
	for _, b := range g.blocks {
		facts := in[b.index].clone()
		for _, s := range b.stmts {
			checkFrameStmt(p, fa, s, facts)
			fa.stepStmt(s, facts)
		}
	}
}

// checkFrameStmt reports frame-mutating writes in one statement, given
// the alias facts in force just before it.
func checkFrameStmt(p *Pass, fa *flowAnalysis, s ast.Stmt, facts factSet) {
	switch s := s.(type) {
	case *ast.AssignStmt:
		for _, l := range s.Lhs {
			checkFrameStore(p, fa, l, facts)
		}
		for _, r := range s.Rhs {
			checkFrameCopy(p, fa, r, facts)
		}
	case *ast.IncDecStmt:
		checkFrameStore(p, fa, s.X, facts)
	default:
		for _, n := range evaluatedNodes(s) {
			ast.Inspect(n, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					checkFrameCopyCall(p, fa, call, facts)
				}
				return true
			})
		}
	}
}

// checkFrameStore reports a store to l that writes the delivered frame:
// an element store into a slice that may alias it, or a store through
// a pointer that may point at its shared reading.
func checkFrameStore(p *Pass, fa *flowAnalysis, l ast.Expr, facts factSet) {
	if base, ok := indexedBase(l); ok && fa.carries(base, facts) {
		p.Reportf(l.Pos(), "write into a byte slice that may alias the delivered frame; shared frame buffers are immutable — clone first (append([]byte(nil), b...))")
	} else if ptr, ok := indirectFieldBase(p.TypesInfo, l); ok && fa.carries(ptr, facts) {
		p.Reportf(l.Pos(), "store through a pointer that may alias the shared reading of a delivered frame; every later receiver reads the same struct — copy it first")
	}
}

// checkFrameCopy scans an expression for copy calls targeting an
// aliasing slice.
func checkFrameCopy(p *Pass, fa *flowAnalysis, e ast.Expr, facts factSet) {
	ast.Inspect(e, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			checkFrameCopyCall(p, fa, call, facts)
		}
		return true
	})
}

// checkFrameCopyCall flags copy(dst, ...) where dst may alias a frame.
func checkFrameCopyCall(p *Pass, fa *flowAnalysis, call *ast.CallExpr, facts factSet) {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "copy" || !isBuiltin(p.TypesInfo, id) || len(call.Args) != 2 {
		return
	}
	if fa.carries(call.Args[0], facts) {
		p.Reportf(call.Pos(), "copy into a byte slice that may alias the delivered frame; shared frame buffers are immutable — clone first (append([]byte(nil), b...))")
	}
}

// indirectFieldBase unwraps a field store x.f.g (or *x) to the pointer
// it writes through, reporting ok when the store is indirect: a field
// store into a local value writes that copy, while one through a
// pointer writes whatever the pointer shares.
func indirectFieldBase(info *types.Info, l ast.Expr) (ast.Expr, bool) {
	for {
		switch e := ast.Unparen(l).(type) {
		case *ast.StarExpr:
			return e.X, true
		case *ast.SelectorExpr:
			sel := info.Selections[e]
			if sel == nil || sel.Kind() != types.FieldVal {
				return nil, false
			}
			if sel.Indirect() {
				return e.X, true
			}
			l = e.X
		default:
			return nil, false
		}
	}
}

// indexedBase unwraps x[i] (through parens and sub-slices) to the
// slice being stored into, reporting ok when l is an element store.
func indexedBase(l ast.Expr) (ast.Expr, bool) {
	ix, ok := ast.Unparen(l).(*ast.IndexExpr)
	if !ok {
		return nil, false
	}
	return ix.X, true
}
