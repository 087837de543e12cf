package analysis

import (
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// The golden harness: each directory under testdata/src is one
// package exercising one analyzer (plus the shared suppression
// machinery). Expected diagnostics are written in the source as
//
//	flagged code // want "regexp"
//
// and the harness requires an exact match: every diagnostic must hit
// a want on its line, every want must be hit.

// goldenAnalyzers maps testdata package name to the analyzers run
// over it.
var goldenAnalyzers = map[string][]*Analyzer{
	"nondet":      {NondeterminismAnalyzer},
	"gocontain":   {GoroutinesAnalyzer},
	"hotpathtest": {HotpathAnalyzer},
	"copycheck":   {CopyHygieneAnalyzer},
	// The dependency-only fake sim package for copycheck gets no
	// analyzers of its own.
	"sim": {},
}

// loadTestdata parses and type-checks every package under
// testdata/src, resolving inter-testdata imports (import "sim") from
// the loaded set, and attaches the compiler's escape analysis. Each
// package carries the import path the go command gives its directory,
// which the compiler's reports name.
func loadTestdata(t *testing.T) map[string]*Package {
	t.Helper()
	root := filepath.Join("testdata", "src")
	entries, err := os.ReadDir(root)
	if err != nil {
		t.Fatalf("reading %s: %v", root, err)
	}
	fset, imp := newFileSetImporter()
	pkgs := make(map[string]*Package)
	var load func(name string) *Package
	load = func(name string) *Package {
		if p, ok := pkgs[name]; ok {
			return p
		}
		dir := filepath.Join(root, name)
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil || len(files) == 0 {
			t.Fatalf("no sources in %s: %v", dir, err)
		}
		sort.Strings(files)
		names := make([]string, len(files))
		for i, f := range files {
			names[i] = filepath.Base(f)
		}
		// Resolve the testdata-internal import first (the only
		// single-element import path these files use besides stdlib
		// ones, which the source importer handles).
		for _, f := range files {
			src, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			if name != "sim" && strings.Contains(string(src), `"sim"`) {
				imp.local["sim"] = load("sim").Types
			}
		}
		pkg, err := checkFiles(fset, imp, "valora/internal/analysis/"+filepath.ToSlash(dir), dir, names)
		if err != nil {
			t.Fatalf("type-checking testdata package %s: %v", name, err)
		}
		pkgs[name] = pkg
		return pkg
	}
	for _, e := range entries {
		if e.IsDir() {
			load(e.Name())
		}
	}
	all := make([]*Package, 0, len(pkgs))
	for _, p := range pkgs {
		all = append(all, p)
	}
	if err := attachEscapes(".", all); err != nil {
		t.Fatal(err)
	}
	return pkgs
}

// wantRe is the marker syntax of expected diagnostics in testdata
// sources.
var wantRe = regexp.MustCompile(`// want "((?:[^"\\]|\\.)*)"`)

// wants collects the // want "regexp" expectations per file:line.
type wantKey struct {
	file string
	line int
}

func collectWants(t *testing.T, pkg *Package) map[wantKey][]*regexp.Regexp {
	t.Helper()
	wants := make(map[wantKey][]*regexp.Regexp)
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				for _, m := range wantRe.FindAllStringSubmatch(c.Text, -1) {
					pos := pkg.Fset.Position(c.Pos())
					re, err := regexp.Compile(m[1])
					if err != nil {
						t.Fatalf("%s: bad want regexp %q: %v", pos, m[1], err)
					}
					k := wantKey{pos.Filename, pos.Line}
					wants[k] = append(wants[k], re)
				}
			}
		}
	}
	return wants
}

func TestGolden(t *testing.T) {
	pkgs := loadTestdata(t)
	for name, pkg := range pkgs {
		analyzers, ok := goldenAnalyzers[name]
		if !ok {
			t.Errorf("testdata package %s has no goldenAnalyzers entry", name)
			continue
		}
		if len(analyzers) == 0 {
			continue
		}
		t.Run(name, func(t *testing.T) {
			diags, err := runPackage(pkg, analyzers, false)
			if err != nil {
				t.Fatal(err)
			}
			wants := collectWants(t, pkg)
			matched := make(map[wantKey][]bool)
			for k, res := range wants {
				matched[k] = make([]bool, len(res))
			}
			for _, d := range diags {
				k := wantKey{d.Pos.Filename, d.Pos.Line}
				hit := false
				for i, re := range wants[k] {
					if !matched[k][i] && re.MatchString(d.Message) {
						matched[k][i] = true
						hit = true
						break
					}
				}
				if !hit {
					t.Errorf("unexpected diagnostic %s", d)
				}
			}
			for k, res := range wants {
				for i, re := range res {
					if !matched[k][i] {
						t.Errorf("%s:%d: expected diagnostic matching %q, got none", k.file, k.line, re)
					}
				}
			}
		})
	}
}

// TestSuiteCleanOnRepo is the self-test the CI job relies on: the
// production tree must be clean under the full suite, so a regression
// in either the code or the analyzers shows up in `go test` as well
// as in the dedicated valora-vet invocation.
func TestSuiteCleanOnRepo(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	pkgs, err := LoadPackages("../..", "./...")
	if err != nil {
		t.Fatalf("loading module packages: %v", err)
	}
	if len(pkgs) == 0 {
		t.Fatal("loader returned no packages")
	}
	for _, pkg := range pkgs {
		diags, err := RunPackage(pkg, All())
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range diags {
			t.Errorf("%s", d)
		}
	}
}
