package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	Path   string // import path, e.g. "corral/internal/netsim"
	Dir    string
	Module string // module path from go.mod, e.g. "corral"
	Fset   *token.FileSet
	Files  []*ast.File
	Types  *types.Package
	Info   *types.Info
}

// LoadConfig controls package loading.
type LoadConfig struct {
	// Dir is the working directory patterns are resolved against; it must
	// be inside a module. Empty means the process working directory.
	Dir string
	// Tests includes _test.go files. In-package test files are checked
	// together with their package; external (_test-suffixed package)
	// files are checked as their own package against that augmented
	// instance, mirroring `go test` compilation.
	Tests bool
}

// Load resolves go-style package patterns ("./...", "./internal/netsim")
// to type-checked packages. Only directories below the module root are
// supported; there are no external module dependencies to resolve
// (go.mod is dependency-free by design), so stdlib imports come from the
// source importer and module-local imports are loaded recursively from
// the tree itself. Every package path maps to exactly one canonical
// *types.Package instance, so cross-package type identity holds.
func Load(cfg LoadConfig, patterns ...string) ([]*Package, error) {
	dir := cfg.Dir
	if dir == "" {
		var err error
		dir, err = os.Getwd()
		if err != nil {
			return nil, err
		}
	}
	modDir, modPath, err := findModule(dir)
	if err != nil {
		return nil, err
	}
	ld := &loader{
		fset:      token.NewFileSet(),
		modDir:    modDir,
		modPath:   modPath,
		full:      map[string]*Package{},
		overrides: map[string]*types.Package{},
		loading:   map[string]bool{},
	}
	ld.std = importer.ForCompiler(ld.fset, "source", nil)

	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	dirs, err := expandPatterns(dir, patterns)
	if err != nil {
		return nil, err
	}

	var out []*Package
	for _, d := range dirs {
		ip, err := ld.importPath(d)
		if err != nil {
			return nil, err
		}
		names, testNames, extNames, err := goFilesIn(d)
		if err != nil {
			return nil, err
		}
		if !cfg.Tests {
			if len(names) == 0 {
				continue
			}
			p, err := ld.load(ip, d)
			if err != nil {
				return nil, err
			}
			p.Module = modPath
			out = append(out, p)
			continue
		}
		if len(names)+len(testNames) > 0 {
			// Augmented instance: package + in-package test files. Not
			// cached as the canonical instance — other packages must link
			// against the non-test build.
			aug, err := ld.checkFiles(ip, d, append(append([]string{}, names...), testNames...))
			if err != nil {
				return nil, err
			}
			aug.Module = modPath
			out = append(out, aug)
			if len(extNames) > 0 {
				ext, err := ld.forTest(ip, aug.Types).checkFiles(ip+"_test", d, extNames)
				if err != nil {
					return nil, err
				}
				ext.Module = modPath
				out = append(out, ext)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out, nil
}

// findModule walks up from dir to the enclosing go.mod and returns its
// directory and module path.
func findModule(dir string) (modDir, modPath string, err error) {
	d, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("go.mod in %s has no module directive", d)
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", fmt.Errorf("no go.mod found above %s", dir)
		}
		d = parent
	}
}

// expandPatterns resolves patterns to a sorted, de-duplicated list of
// directories containing Go files. A "..." pattern walks the tree the way
// the go tool does: it skips testdata and directories starting with "." or
// "_", and it never enters a nested module (a directory below the root
// that holds its own go.mod).
func expandPatterns(base string, patterns []string) ([]string, error) {
	seen := map[string]bool{}
	var dirs []string
	add := func(d string) {
		if !seen[d] {
			seen[d] = true
			dirs = append(dirs, d)
		}
	}
	for _, pat := range patterns {
		if rest, ok := strings.CutSuffix(pat, "..."); ok {
			root := filepath.Clean(filepath.Join(base, rest))
			err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
				if err != nil {
					return err
				}
				if !d.IsDir() {
					return nil
				}
				name := d.Name()
				if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
					return filepath.SkipDir
				}
				if path != root {
					if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
						return filepath.SkipDir
					}
				}
				if hasGoFiles(path) {
					add(path)
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
			continue
		}
		d := filepath.Join(base, pat)
		if fi, err := os.Stat(d); err != nil || !fi.IsDir() {
			return nil, fmt.Errorf("pattern %q: not a directory", pat)
		}
		add(d)
	}
	sort.Strings(dirs)
	return dirs, nil
}

func hasGoFiles(dir string) bool {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			return true
		}
	}
	return false
}

// goFilesIn splits a directory's Go files into non-test, in-package test,
// and external-package test files.
func goFilesIn(dir string) (names, testNames, extNames []string, err error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, nil, err
	}
	for _, e := range ents {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") {
			continue
		}
		path := filepath.Join(dir, n)
		if !strings.HasSuffix(n, "_test.go") {
			names = append(names, path)
			continue
		}
		ext, err := isExternalTest(path)
		if err != nil {
			return nil, nil, nil, err
		}
		if ext {
			extNames = append(extNames, path)
		} else {
			testNames = append(testNames, path)
		}
	}
	return names, testNames, extNames, nil
}

// isExternalTest reports whether the file declares a _test-suffixed
// package (checked as a separate package from the one under test).
func isExternalTest(path string) (bool, error) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, path, nil, parser.PackageClauseOnly)
	if err != nil {
		return false, err
	}
	return strings.HasSuffix(f.Name.Name, "_test"), nil
}

// loader type-checks packages, resolving module-local imports from the
// source tree and everything else (stdlib) via the source importer.
type loader struct {
	fset    *token.FileSet
	std     types.Importer
	modDir  string
	modPath string
	// full caches the canonical (non-test) instance per import path.
	full map[string]*Package
	// overrides substitutes a test-augmented instance (see forTest).
	overrides map[string]*types.Package
	loading   map[string]bool // import-cycle guard
}

// forTest returns the loader an external test package of path is checked
// with, the way `go test` and `go vet` build it: path resolves to its
// test-augmented instance aug, and every module package that imports path,
// directly or not, is re-checked against aug instead of the canonical
// build. Without the re-check, an external test that imports a dependent
// of path (internal/netsim_test importing runtime) sees two distinct
// netsim packages and fails to type-check. Packages that do not depend on
// path are shared with ld, so their types stay identical across both.
func (ld *loader) forTest(path string, aug *types.Package) *loader {
	view := &loader{
		fset:      ld.fset,
		std:       ld.std,
		modDir:    ld.modDir,
		modPath:   ld.modPath,
		full:      map[string]*Package{},
		overrides: map[string]*types.Package{path: aug},
		loading:   map[string]bool{},
	}
	memo := map[*types.Package]bool{}
	for p, pkg := range ld.full {
		if !importsPath(pkg.Types, path, memo) {
			view.full[p] = pkg
		}
	}
	return view
}

// importsPath reports whether pkg imports path, directly or transitively.
func importsPath(pkg *types.Package, path string, memo map[*types.Package]bool) bool {
	if v, ok := memo[pkg]; ok {
		return v
	}
	found := false
	for _, imp := range pkg.Imports() {
		if imp.Path() == path || importsPath(imp, path, memo) {
			found = true
			break
		}
	}
	memo[pkg] = found
	return found
}

// importPath maps a directory below the module root to its import path.
func (ld *loader) importPath(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	rel, err := filepath.Rel(ld.modDir, abs)
	if err != nil || strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("directory %s is outside module %s", dir, ld.modDir)
	}
	if rel == "." {
		return ld.modPath, nil
	}
	return ld.modPath + "/" + filepath.ToSlash(rel), nil
}

// dirOf inverts importPath for module-local paths.
func (ld *loader) dirOf(path string) string {
	return filepath.Join(ld.modDir, strings.TrimPrefix(strings.TrimPrefix(path, ld.modPath), "/"))
}

// Import implements types.Importer.
func (ld *loader) Import(path string) (*types.Package, error) {
	if p, ok := ld.overrides[path]; ok {
		return p, nil
	}
	if path == ld.modPath || strings.HasPrefix(path, ld.modPath+"/") {
		p, err := ld.load(path, ld.dirOf(path))
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return ld.std.Import(path)
}

// load returns the canonical non-test instance of a module-local
// package, checking it on first use.
func (ld *loader) load(path, dir string) (*Package, error) {
	if p, ok := ld.full[path]; ok {
		return p, nil
	}
	names, _, _, err := goFilesIn(dir)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	p, err := ld.checkFiles(path, dir, names)
	if err != nil {
		return nil, err
	}
	ld.full[path] = p
	return p, nil
}

// checkFiles parses and type-checks one package's files.
func (ld *loader) checkFiles(path, dir string, fileNames []string) (*Package, error) {
	if ld.loading[path] {
		return nil, fmt.Errorf("import cycle through %s", path)
	}
	ld.loading[path] = true
	defer delete(ld.loading, path)

	sort.Strings(fileNames)
	var files []*ast.File
	for _, fn := range fileNames {
		f, err := parser.ParseFile(ld.fset, fn, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: ld}
	tpkg, err := conf.Check(path, ld.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", path, err)
	}
	return &Package{
		Path:  path,
		Dir:   dir,
		Fset:  ld.fset,
		Files: files,
		Types: tpkg,
		Info:  info,
	}, nil
}
