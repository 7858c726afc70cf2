package analysis

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// writeTree materializes a miniature module on disk for loader tests.
func writeTree(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, src := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func TestLoadResolvesPatternsAndModulePaths(t *testing.T) {
	dir := writeTree(t, map[string]string{
		"go.mod":           "module example/mini\n\ngo 1.22\n",
		"root.go":          "package mini\n\nconst Root = 1\n",
		"internal/a/a.go":  "package a\n\nfunc A() int { return 1 }\n",
		"internal/b/b.go":  "package b\n\nimport \"example/mini/internal/a\"\n\nfunc B() int { return a.A() }\n",
		"testdata/skip.go": "package broken !!!\n",
	})
	pkgs, err := Load(LoadConfig{Dir: dir}, "./...")
	if err != nil {
		t.Fatal(err)
	}
	var paths []string
	for _, p := range pkgs {
		paths = append(paths, p.Path)
		if p.Module != "example/mini" {
			t.Errorf("%s: Module = %q, want example/mini", p.Path, p.Module)
		}
		if p.Types == nil || p.Info == nil || len(p.Files) == 0 {
			t.Errorf("%s: incomplete package", p.Path)
		}
	}
	want := []string{"example/mini", "example/mini/internal/a", "example/mini/internal/b"}
	if len(paths) != len(want) {
		t.Fatalf("paths = %v, want %v", paths, want)
	}
	for i := range want {
		if paths[i] != want[i] {
			t.Fatalf("paths = %v, want %v", paths, want)
		}
	}
}

// TestLoadTypeIdentity guards the canonical-instance invariant: a package
// imported by two others must be the same *types.Package, or cross-package
// assignments fail to type-check.
func TestLoadTypeIdentity(t *testing.T) {
	dir := writeTree(t, map[string]string{
		"go.mod":          "module example/mini\n\ngo 1.22\n",
		"internal/j/j.go": "package j\n\ntype Job struct{ ID int }\n",
		"internal/m/m.go": "package m\n\nimport \"example/mini/internal/j\"\n\nfunc Wrap(x *j.Job) *j.Job { return x }\n",
		"internal/u/u.go": "package u\n\nimport (\n\t\"example/mini/internal/j\"\n\t\"example/mini/internal/m\"\n)\n\nfunc Use() *j.Job { return m.Wrap(&j.Job{ID: 1}) }\n",
	})
	if _, err := Load(LoadConfig{Dir: dir}, "./..."); err != nil {
		t.Fatalf("Load: %v", err)
	}
}

func TestLoadWithTests(t *testing.T) {
	dir := writeTree(t, map[string]string{
		"go.mod":                  "module example/mini\n\ngo 1.22\n",
		"internal/a/a.go":         "package a\n\nfunc A() int { return 1 }\n",
		"internal/a/help_test.go": "package a\n\nfunc helper() int { return A() }\n",
		"internal/a/ext_test.go":  "package a_test\n\nimport \"example/mini/internal/a\"\n\nvar _ = a.A\n",
	})
	pkgs, err := Load(LoadConfig{Dir: dir, Tests: true}, "./...")
	if err != nil {
		t.Fatal(err)
	}
	var paths []string
	for _, p := range pkgs {
		paths = append(paths, p.Path)
	}
	want := map[string]bool{"example/mini/internal/a": true, "example/mini/internal/a_test": true}
	if len(paths) != 2 || !want[paths[0]] || !want[paths[1]] {
		t.Fatalf("paths = %v, want the package and its external test package", paths)
	}
}

// An external test package that imports a dependent of the package
// under test must see one instance of that package: the dependent is
// re-checked against the test-augmented build, as go test compiles it.
// Here n's export_test.go adds Fake, and n_test hands it to b, which only
// knows n.Policy — two n instances would make Fake not implement b's
// Policy. The root package imports b and sorts first, so b's canonical
// build is already cached when n_test is checked.
func TestLoadExternalTestImportsDependent(t *testing.T) {
	dir := writeTree(t, map[string]string{
		"go.mod":                    "module example/mini\n\ngo 1.22\n",
		"root.go":                   "package mini\n\nimport \"example/mini/internal/b\"\n\nvar _ b.Net\n",
		"internal/n/n.go":           "package n\n\ntype Flow struct{}\n\ntype Policy interface{ Allocate(*Flow) }\n",
		"internal/n/export_test.go": "package n\n\ntype Fake struct{}\n\nfunc (Fake) Allocate(*Flow) {}\n",
		"internal/b/b.go":           "package b\n\nimport \"example/mini/internal/n\"\n\ntype Net struct{ P n.Policy }\n",
		"internal/n/ext_test.go":    "package n_test\n\nimport (\n\t\"example/mini/internal/b\"\n\t\"example/mini/internal/n\"\n)\n\nvar _ = b.Net{P: n.Fake{}}\n",
	})
	pkgs, err := Load(LoadConfig{Dir: dir, Tests: true}, "./...")
	if err != nil {
		t.Fatal(err)
	}
	var paths []string
	for _, p := range pkgs {
		paths = append(paths, p.Path)
	}
	want := []string{"example/mini", "example/mini/internal/b", "example/mini/internal/n", "example/mini/internal/n_test"}
	if !slices.Equal(paths, want) {
		t.Fatalf("paths = %v, want %v", paths, want)
	}
}

func TestLoadOnRealRepoFindsAnnotatedSites(t *testing.T) {
	if testing.Short() {
		t.Skip("loads the whole module")
	}
	// The repo itself must stay corralvet-clean, test files included; this
	// is the same invariant CI enforces via `corralvet -tests ./...`. The
	// loader must visit every package of the module to make that claim.
	moduleDirs := goPackageDirs(t, "../..")
	for _, tests := range []bool{false, true} {
		pkgs, err := Load(LoadConfig{Dir: "../..", Tests: tests}, "./...")
		if err != nil {
			t.Fatal(err)
		}
		loaded := map[string]bool{}
		for _, p := range pkgs {
			dir, err := filepath.Abs(p.Dir)
			if err != nil {
				t.Fatal(err)
			}
			loaded[dir] = true
		}
		for _, dir := range moduleDirs {
			if !loaded[dir] {
				t.Errorf("tests=%v: loader skipped module package %s", tests, dir)
			}
		}
		diags := RunAnalyzers(pkgs, Analyzers())
		for _, d := range diags {
			t.Errorf("tests=%v: unexpected finding: %s", tests, d)
		}
	}
}

// goPackageDirs lists, as absolute paths, every directory of the module
// rooted at root that holds a Go file, by the go tool's rules for ./...:
// testdata and directories starting with "." or "_" are skipped, and so
// is any nested module.
func goPackageDirs(t *testing.T, root string) []string {
	t.Helper()
	root, err := filepath.Abs(root)
	if err != nil {
		t.Fatal(err)
	}
	var dirs []string
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if path != root {
			name := d.Name()
			if name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
		}
		if matches, _ := filepath.Glob(filepath.Join(path, "*.go")); len(matches) > 0 {
			dirs = append(dirs, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) < 10 {
		t.Fatalf("found only %d package directories under %s", len(dirs), root)
	}
	return dirs
}
