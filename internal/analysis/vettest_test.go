package analysis

// Test harness for the analyzers: fixtures are in-memory Go sources,
// type-checked for real (stdlib via the source importer, fake module
// dependencies via fixtureDeps), then run through RunAnalyzers so that
// suppression comments are honored exactly as in production.
//
// Expected findings are marked in the fixture itself: a comment
// `// want <check>` on a line asserts that exactly that check fires on
// that line. The harness fails on both missed and surplus diagnostics,
// so each fixture proves an analyzer fires on the violating form and
// stays silent on the corrected or annotated form.

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"sync"
	"testing"
)

// One fileset + source importer shared by all fixture tests: the source
// importer re-type-checks stdlib packages from source, which is too slow
// to repeat per test.
var (
	fixtureFset = token.NewFileSet()
	stdImporter types.Importer
	stdOnce     sync.Once
)

func sharedStdImporter() types.Importer {
	stdOnce.Do(func() {
		stdImporter = importer.ForCompiler(fixtureFset, "source", nil)
	})
	return stdImporter
}

// fixtureDeps are miniature stand-ins for the simulator packages the
// maporder receiver rule recognizes, so analyzer tests stay hermetic.
var fixtureDeps = map[string]string{
	"corral/internal/des": `package des
type Time float64
type Simulator struct{ now Time }
func (s *Simulator) Now() Time { return s.now }
func (s *Simulator) After(d Time, fn func()) {}
`,
	"corral/internal/netsim": `package netsim
type Flow struct{}
type Network struct{}
func (n *Network) Start(src, dst int, bytes float64) *Flow { return nil }
`,
	"corral/internal/pool": `package pool
func For(n int, fn func(i int) error) error { return nil }
`,
}

type fixtureImporter struct {
	std  types.Importer
	pkgs map[string]*types.Package
}

func (im *fixtureImporter) Import(path string) (*types.Package, error) {
	if p, ok := im.pkgs[path]; ok {
		return p, nil
	}
	return im.std.Import(path)
}

// checkFixture type-checks one in-memory source file as the package with
// the given import path.
func checkFixture(t *testing.T, path, src string) *Package {
	t.Helper()
	im := &fixtureImporter{std: sharedStdImporter(), pkgs: map[string]*types.Package{}}
	for depPath, depSrc := range fixtureDeps {
		if !strings.Contains(src, fmt.Sprintf("%q", depPath)) {
			continue
		}
		f, err := parser.ParseFile(fixtureFset, depPath+"/dep.go", depSrc, parser.ParseComments)
		if err != nil {
			t.Fatalf("parsing dep %s: %v", depPath, err)
		}
		conf := types.Config{Importer: im}
		p, err := conf.Check(depPath, fixtureFset, []*ast.File{f}, nil)
		if err != nil {
			t.Fatalf("type-checking dep %s: %v", depPath, err)
		}
		im.pkgs[depPath] = p
	}

	fileName := strings.ReplaceAll(path, "/", "_") + "_fixture.go"
	f, err := parser.ParseFile(fixtureFset, fileName, src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parsing fixture: %v", err)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: im}
	tpkg, err := conf.Check(path, fixtureFset, []*ast.File{f}, info)
	if err != nil {
		t.Fatalf("type-checking fixture: %v", err)
	}
	return &Package{
		Path:   path,
		Module: "corral",
		Fset:   fixtureFset,
		Files:  []*ast.File{f},
		Types:  tpkg,
		Info:   info,
	}
}

// wantsIn extracts `// want <check>` markers as line -> expected checks.
func wantsIn(pkg *Package) map[int][]string {
	out := map[int][]string{}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				rest, ok := strings.CutPrefix(text, "want ")
				if !ok {
					continue
				}
				line := pkg.Fset.Position(c.Pos()).Line
				out[line] = append(out[line], strings.Fields(rest)...)
			}
		}
	}
	return out
}

// runFixture analyzes src under the given analyzer (at import path
// "corral/internal/fixture" unless overridden via pathOverride) and
// asserts the diagnostics match the fixture's `// want` markers exactly.
func runFixture(t *testing.T, a *Analyzer, src string, pathOverride ...string) {
	t.Helper()
	path := "corral/internal/fixture"
	if len(pathOverride) > 0 {
		path = pathOverride[0]
	}
	pkg := checkFixture(t, path, src)
	diags := RunAnalyzers([]*Package{pkg}, []*Analyzer{a})
	want := wantsIn(pkg)

	got := map[int][]string{}
	for _, d := range diags {
		got[d.Pos.Line] = append(got[d.Pos.Line], d.Check)
	}
	for line, checks := range want {
		for _, c := range checks {
			if !remove(got, line, c) {
				t.Errorf("line %d: expected %s diagnostic, none reported", line, c)
			}
		}
	}
	for line, checks := range got {
		for _, c := range checks {
			t.Errorf("line %d: unexpected %s diagnostic", line, c)
		}
	}
	if t.Failed() {
		for _, d := range diags {
			t.Logf("reported: %s", d)
		}
	}
}

// remove deletes one occurrence of check at line from got, reporting
// whether it was present.
func remove(got map[int][]string, line int, check string) bool {
	for i, c := range got[line] {
		if c == check {
			got[line] = append(got[line][:i], got[line][i+1:]...)
			if len(got[line]) == 0 {
				delete(got, line)
			}
			return true
		}
	}
	return false
}
