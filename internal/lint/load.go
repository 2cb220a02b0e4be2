// Package loading: a small, deterministic substitute for
// golang.org/x/tools/go/packages built entirely on the standard
// library. Module packages are discovered by walking the tree, parsed
// with go/parser, and type-checked with go/types, because the
// analyzers read their syntax; imports inside the module resolve
// recursively through the loader itself. Standard library imports
// resolve through the "gc" importer from compiler export data in the
// local build cache, located by one `go list -export std` per loader,
// instead of type-checking GOROOT from source on every run.

package lint

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// A Package is one loaded, type-checked package.
type Package struct {
	// Path is the import path the package was loaded as.
	Path string
	// ModulePath is the module prefix from go.mod.
	ModulePath string
	Dir        string
	Fset       *token.FileSet
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info
}

// A Loader parses and type-checks packages of one module. It caches
// loaded packages, so shared dependencies type-check once.
type Loader struct {
	// Root is the module root directory (holding go.mod).
	Root string

	fset    *token.FileSet
	modpath string
	pkgs    map[string]*Package // by import path
	loading map[string]bool     // cycle detection
	std     types.ImporterFrom
}

// NewLoader returns a loader for the module rooted at root.
func NewLoader(root string) (*Loader, error) {
	mod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, fmt.Errorf("lint: %w", err)
	}
	modpath := ""
	for _, line := range strings.Split(string(mod), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			modpath = strings.TrimSpace(rest)
			break
		}
	}
	if modpath == "" {
		return nil, fmt.Errorf("lint: no module line in %s/go.mod", root)
	}
	exports, err := stdExports()
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	std, ok := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("lint: no export data for %q", path)
		}
		return os.Open(file)
	}).(types.ImporterFrom)
	if !ok {
		return nil, fmt.Errorf("lint: export-data importer unavailable")
	}
	return &Loader{
		Root:    root,
		fset:    fset,
		modpath: modpath,
		pkgs:    make(map[string]*Package),
		loading: make(map[string]bool),
		std:     std,
	}, nil
}

// stdExports maps the standard library packages to their compiler
// export data files, listed by one `go list -export std` of the go
// command in build.Default.GOROOT, which compiles any the build cache
// lacks. A package that fails to build is left out (-e) and fails only
// if imported. The importer's default lookup runs go list once per
// imported package instead, which costs a whole-tree run about two
// seconds.
func stdExports() (map[string]string, error) {
	goroot := build.Default.GOROOT
	cmd := exec.Command(filepath.Join(goroot, "bin", "go"), "list", "-e", "-export", "-f", "{{.ImportPath}}\t{{.Export}}", "std")
	cmd.Dir = goroot
	out, err := cmd.Output()
	if err != nil {
		var ee *exec.ExitError
		if errors.As(err, &ee) {
			return nil, fmt.Errorf("lint: go list -export std: %w: %s", err, ee.Stderr)
		}
		return nil, fmt.Errorf("lint: go list -export std: %w", err)
	}
	exports := make(map[string]string)
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		if path, file, ok := strings.Cut(line, "\t"); ok && file != "" {
			exports[path] = file
		}
	}
	return exports, nil
}

// ModulePath returns the module path from go.mod.
func (l *Loader) ModulePath() string { return l.modpath }

// Load resolves patterns to packages. Supported patterns: "./..."
// (every package under root), "./dir/..." (a subtree), and "./dir" (a
// single directory). Results are sorted by import path.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	seen := make(map[string]bool)
	var paths []string
	add := func(p string) {
		if !seen[p] {
			seen[p] = true
			paths = append(paths, p)
		}
	}
	for _, pat := range patterns {
		switch {
		case pat == "./..." || pat == "...":
			dirs, err := l.packageDirs(l.Root)
			if err != nil {
				return nil, err
			}
			for _, d := range dirs {
				add(l.pathFor(d))
			}
		case strings.HasSuffix(pat, "/..."):
			base := filepath.Join(l.Root, strings.TrimSuffix(pat, "/..."))
			dirs, err := l.packageDirs(base)
			if err != nil {
				return nil, err
			}
			for _, d := range dirs {
				add(l.pathFor(d))
			}
		default:
			add(l.pathFor(filepath.Join(l.Root, pat)))
		}
	}
	sort.Strings(paths)
	out := make([]*Package, 0, len(paths))
	for _, p := range paths {
		pkg, err := l.load(p)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	return out, nil
}

// LoadDirAs parses and type-checks the single directory dir as if it
// had the given import path. The lint test harness uses it to run
// fixture packages under the scoping path of the code they imitate
// (e.g. a testdata directory analyzed as "repro/internal/sim").
func (l *Loader) LoadDirAs(dir, asPath string) (*Package, error) {
	return l.check(asPath, dir)
}

// packageDirs returns the directories under base holding at least one
// non-test Go file, skipping testdata, hidden, and underscore trees.
func (l *Loader) packageDirs(base string) ([]string, error) {
	var out []string
	err := filepath.WalkDir(base, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != base && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(d.Name(), ".go") && !strings.HasSuffix(d.Name(), "_test.go") {
			dir := filepath.Dir(path)
			if len(out) == 0 || out[len(out)-1] != dir {
				out = append(out, dir)
			}
		}
		return nil
	})
	return out, err
}

// pathFor maps a directory to its import path inside the module.
func (l *Loader) pathFor(dir string) string {
	rel, err := filepath.Rel(l.Root, dir)
	if err != nil || rel == "." {
		return l.modpath
	}
	return l.modpath + "/" + filepath.ToSlash(rel)
}

// dirFor maps a module import path back to its directory.
func (l *Loader) dirFor(path string) string {
	if path == l.modpath {
		return l.Root
	}
	return filepath.Join(l.Root, filepath.FromSlash(strings.TrimPrefix(path, l.modpath+"/")))
}

// load type-checks the module package at the import path, loading its
// module dependencies first.
func (l *Loader) load(path string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("lint: import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)
	pkg, err := l.check(path, l.dirFor(path))
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = pkg
	return pkg, nil
}

// check parses dir's non-test files and type-checks them as path.
func (l *Loader) check(path, dir string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("lint: %w", err)
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		// Respect build constraints (//go:build lines and GOOS/GOARCH
		// filename suffixes) the way the go tool does; an excluded file
		// would otherwise poison the type-check with declarations the
		// build never sees.
		if match, err := build.Default.MatchFile(dir, name); err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		} else if !match {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: (*loaderImporter)(l)}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", path, err)
	}
	return &Package{
		Path:       path,
		ModulePath: l.modpath,
		Dir:        dir,
		Fset:       l.fset,
		Files:      files,
		Types:      tpkg,
		Info:       info,
	}, nil
}

// loaderImporter routes module-internal imports back through the
// loader and everything else to the standard-library export-data
// importer.
type loaderImporter Loader

func (li *loaderImporter) Import(path string) (*types.Package, error) {
	return li.ImportFrom(path, "", 0)
}

func (li *loaderImporter) ImportFrom(path, srcDir string, mode types.ImportMode) (*types.Package, error) {
	l := (*Loader)(li)
	if path == l.modpath || strings.HasPrefix(path, l.modpath+"/") {
		pkg, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.ImportFrom(path, srcDir, mode)
}
