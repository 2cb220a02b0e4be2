// Package lint is the repo-native static-analysis framework behind
// cmd/hidelint. The repo carries guarantees that ordinary tests only
// probe pointwise — byte-identical engine output at any worker count,
// a differential oracle whose two energy implementations must agree,
// an exit-130 SIGINT contract across every binary — and those
// guarantees are easy to break silently with one stray time.Now, an
// unsorted map iteration, or a hand-typed protocol literal. The
// analyzers in this package turn the repo's conventions into
// machine-checked rules enforced on every commit.
//
// The framework is deliberately small and stdlib-only (go/parser,
// go/ast, go/types over module source, with the standard library
// imported from compiler export data): an Analyzer has a name,
// a doc string, and a Run function over a type-checked package; it
// reports Diagnostics with file:line:col positions. A finding can be
// suppressed for one line with
//
//	//lint:ignore <check> <reason>
//
// either trailing the offending line or on its own line immediately
// above. The reason is mandatory — a directive without one is itself
// reported, so every suppression documents why the rule does not
// apply.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer is one named static check over a type-checked package.
type Analyzer struct {
	// Name identifies the check in diagnostics and ignore directives.
	Name string
	// Doc is a one-paragraph description of what the check enforces.
	Doc string
	// Run analyzes a package and reports findings through the pass.
	Run func(*Pass) error
}

// All returns the registered analyzers in a stable order.
func All() []*Analyzer {
	return []*Analyzer{
		Determinism,
		CtxFirst,
		ExitPath,
		ElemConst,
		ErrDrop,
		FrameMut,
		RNGDraw,
		GoJoin,
		PoolBalance,
	}
}

// ByName returns the analyzers matching the comma-separated name list
// (every analyzer when names is empty).
func ByName(names string) ([]*Analyzer, error) {
	if names == "" {
		return All(), nil
	}
	byName := make(map[string]*Analyzer)
	for _, a := range All() {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, n := range strings.Split(names, ",") {
		n = strings.TrimSpace(n)
		a, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("lint: unknown check %q", n)
		}
		out = append(out, a)
	}
	return out, nil
}

// A Diagnostic is one finding, positioned for vet-style output.
type Diagnostic struct {
	Pos     token.Position
	Check   string
	Message string
}

// String formats the diagnostic the way go vet does, with the check
// name appended for ignore directives to reference.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s (%s)", d.Pos, d.Message, d.Check)
}

// A Pass carries one type-checked package through one analyzer run.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files are the package's parsed non-test source files.
	Files []*ast.File
	// Path is the package import path ("repro/internal/sim").
	Path string
	// ModulePath is the module prefix ("repro"), so analyzers scope
	// themselves by module-relative paths.
	ModulePath string
	Pkg        *types.Package
	TypesInfo  *types.Info

	ignores map[string][]ignoreDirective // file name -> directives
	diags   *[]Diagnostic
}

// RelPath returns the package path relative to the module root
// ("internal/sim"; "" for the root package).
func (p *Pass) RelPath() string {
	if p.Path == p.ModulePath {
		return ""
	}
	return strings.TrimPrefix(p.Path, p.ModulePath+"/")
}

// Reportf records a finding at pos unless an ignore directive for this
// analyzer covers the line.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	for _, ig := range p.ignores[position.Filename] {
		if ig.check == p.Analyzer.Name && ig.line == position.Line && ig.reason != "" {
			return
		}
	}
	*p.diags = append(*p.diags, Diagnostic{
		Pos:     position,
		Check:   p.Analyzer.Name,
		Message: fmt.Sprintf(format, args...),
	})
}

// ignoreDirective is one parsed //lint:ignore comment, resolved to the
// source line it suppresses.
type ignoreDirective struct {
	pos    token.Position // of the directive itself
	line   int            // line the directive applies to
	check  string
	reason string
}

// ignorePrefix introduces a suppression comment.
const ignorePrefix = "//lint:ignore"

// parseIgnores collects the ignore directives of a file. A directive
// trailing code applies to its own line; a directive alone on a line
// applies to the next line.
func parseIgnores(fset *token.FileSet, f *ast.File) []ignoreDirective {
	// Lines that hold a non-comment token, to classify directives as
	// trailing or standalone.
	codeLines := make(map[int]bool)
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil {
			return false
		}
		if _, ok := n.(*ast.Comment); ok {
			return false
		}
		if _, ok := n.(*ast.CommentGroup); ok {
			return false
		}
		codeLines[fset.Position(n.Pos()).Line] = true
		return true
	})
	var out []ignoreDirective
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if !strings.HasPrefix(c.Text, ignorePrefix) {
				continue
			}
			rest := strings.TrimSpace(strings.TrimPrefix(c.Text, ignorePrefix))
			check, reason, _ := strings.Cut(rest, " ")
			pos := fset.Position(c.Pos())
			line := pos.Line
			if !codeLines[line] {
				line++ // standalone comment suppresses the next line
			}
			out = append(out, ignoreDirective{
				pos:    pos,
				line:   line,
				check:  check,
				reason: strings.TrimSpace(reason),
			})
		}
	}
	return out
}

// RunAnalyzers runs every analyzer over every package and returns the
// surviving findings sorted by position. Ignore directives missing a
// reason are themselves reported: a suppression must say why.
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		ignores := make(map[string][]ignoreDirective)
		for _, f := range pkg.Files {
			name := pkg.Fset.Position(f.Pos()).Filename
			ignores[name] = parseIgnores(pkg.Fset, f)
		}
		for _, dirs := range ignores {
			for _, d := range dirs {
				if d.check == "" || d.reason == "" {
					diags = append(diags, Diagnostic{
						Pos:     d.pos,
						Check:   "ignore",
						Message: "//lint:ignore needs a check name and a justification: //lint:ignore <check> <reason>",
					})
				}
			}
		}
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:   a,
				Fset:       pkg.Fset,
				Files:      pkg.Files,
				Path:       pkg.Path,
				ModulePath: pkg.ModulePath,
				Pkg:        pkg.Types,
				TypesInfo:  pkg.Info,
				ignores:    ignores,
				diags:      &diags,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("lint: %s on %s: %w", a.Name, pkg.Path, err)
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Check < b.Check
	})
	return diags, nil
}

// funcObj resolves a call's callee to its *types.Func (package
// functions and methods; nil for builtins, conversions, and func
// values). Shared by several analyzers.
func funcObj(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fn
	case *ast.SelectorExpr:
		id = fn.Sel
	default:
		return nil
	}
	f, _ := info.Uses[id].(*types.Func)
	return f
}

// isPkgFunc reports whether f is the package-level function path.name
// (not a method).
func isPkgFunc(f *types.Func, path, name string) bool {
	if f == nil || f.Pkg() == nil || f.Name() != name || f.Pkg().Path() != path {
		return false
	}
	sig, ok := f.Type().(*types.Signature)
	return ok && sig.Recv() == nil
}

// errorType is the universe error interface.
var errorType = types.Universe.Lookup("error").Type()

// isContext reports whether t is context.Context.
func isContext(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}
