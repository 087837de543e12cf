// Package analysis is valora's static-analysis suite: a small,
// dependency-free framework in the shape of golang.org/x/tools'
// go/analysis (which the offline build cannot vendor) plus the four
// project-specific analyzers cmd/valora-vet runs in CI.
//
// The suite exists because the repo's whole evidence chain — every
// BENCH_serving.json record, every "verified bit-identical" claim —
// rests on the simulator being deterministic and its hot paths staying
// allocation-free. Both properties are trivially easy to break with an
// innocent-looking change (a map range feeding an ordering, a
// time.Now leaking wall-clock into virtual time, a Sprintf on the
// per-iteration path), so they are enforced mechanically rather than
// by reviewer vigilance.
//
// Three comment annotations drive the suite:
//
//	//valora:hotpath
//	    on a function declaration: the body must not allocate
//	    (checked statically by the hotpath analyzer and at runtime by
//	    the AllocsPerRun gates in allocgate_test.go).
//
//	//valora:parallel <reason>
//	    at file level: the file owns goroutine parallelism (the
//	    worker pool that drains independent instances); go statements and
//	    multi-case selects are allowed here and only here. The reason
//	    is mandatory.
//
//	//valora:allow <analyzer> -- <reason>
//	    on (or immediately above) a flagged line: suppress one
//	    analyzer's diagnostic with a written justification. Bare
//	    suppressions — no "-- reason" — are themselves reported as
//	    errors, so CI fails on any unexplained exemption.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// Diagnostic is one finding: a position and a message, tagged with the
// analyzer that produced it.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Pass carries one package's parsed and type-checked state through an
// analyzer run.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	// PkgPath is the package's import path ("valora/internal/sim").
	PkgPath string

	diags []Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Analyzer is one check: a name (the token //valora:allow suppressions
// reference), documentation, an optional package scope, and the run
// function.
type Analyzer struct {
	Name string
	Doc  string
	// Scope, when non-nil, restricts the analyzer to packages for
	// which it returns true; the driver skips the rest. The golden
	// harness bypasses it (testdata packages are always in scope).
	Scope func(pkgPath string) bool
	Run   func(*Pass) error
}

// simPackages are the determinism-critical simulation packages: the
// nondeterminism and goroutine-containment analyzers apply only here
// (bench drivers and the tiling search measure wall-clock time on
// purpose; examples and cmd are user-facing shells).
var simPackages = map[string]bool{
	"valora/internal/sim":      true,
	"valora/internal/sched":    true,
	"valora/internal/serving":  true,
	"valora/internal/registry": true,
	"valora/internal/workload": true,
	"valora/internal/lora":     true,
	"valora/internal/metrics":  true,
}

// SimScope is the Scope function of the determinism analyzers.
func SimScope(pkgPath string) bool { return simPackages[pkgPath] }

// All returns the suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{
		NondeterminismAnalyzer,
		GoroutinesAnalyzer,
		HotpathAnalyzer,
		CopyHygieneAnalyzer,
	}
}

// analyzerNames reports the valid //valora:allow targets.
func analyzerNames() map[string]bool {
	names := make(map[string]bool)
	for _, a := range All() {
		names[a.Name] = true
	}
	return names
}

// ---- annotations ----

const (
	hotpathMarker  = "valora:hotpath"
	parallelMarker = "valora:parallel"
	allowMarker    = "valora:allow"
)

// commentMarker extracts the marker payload from one comment line:
// ("valora:allow", "nondeterminism -- reason") for
// "//valora:allow nondeterminism -- reason". Returns "" when the
// comment carries no valora marker.
func commentMarker(c *ast.Comment) (marker, rest string) {
	text := strings.TrimPrefix(c.Text, "//")
	text = strings.TrimSpace(text)
	for _, m := range []string{allowMarker, parallelMarker, hotpathMarker} {
		if strings.HasPrefix(text, m) {
			rest = strings.TrimSpace(strings.TrimPrefix(text, m))
			return m, rest
		}
	}
	return "", ""
}

// IsHotpath reports whether fn carries the //valora:hotpath
// annotation in its doc comment.
func IsHotpath(fn *ast.FuncDecl) bool {
	if fn.Doc == nil {
		return false
	}
	for _, c := range fn.Doc.List {
		if m, _ := commentMarker(c); m == hotpathMarker {
			return true
		}
	}
	return false
}

// ParallelFile reports whether f carries a //valora:parallel
// annotation anywhere in its comments, and whether that annotation has
// the mandatory reason. pos is the annotation's position (for
// reporting a bare one).
func ParallelFile(f *ast.File) (annotated, hasReason bool, pos token.Pos) {
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if m, rest := commentMarker(c); m == parallelMarker {
				return true, rest != "", c.Pos()
			}
		}
	}
	return false, false, token.NoPos
}

// ---- suppressions ----

// suppression is one parsed //valora:allow comment.
type suppression struct {
	analyzer string
	reason   string
	file     string
	line     int
	pos      token.Pos
}

// collectSuppressions parses every //valora:allow comment in the
// files. Malformed ones (no analyzer, unknown analyzer, missing
// "-- reason") are returned as error diagnostics — a suppression
// without a written justification fails CI by design.
func collectSuppressions(fset *token.FileSet, files []*ast.File) (sups []suppression, errs []Diagnostic) {
	valid := analyzerNames()
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m, rest := commentMarker(c)
				if m != allowMarker {
					continue
				}
				pos := fset.Position(c.Pos())
				name, reason, found := strings.Cut(rest, "--")
				name = strings.TrimSpace(name)
				reason = strings.TrimSpace(reason)
				switch {
				case name == "":
					errs = append(errs, Diagnostic{Analyzer: "suppression", Pos: pos,
						Message: "//valora:allow names no analyzer (want \"//valora:allow <analyzer> -- <reason>\")"})
				case !valid[name]:
					errs = append(errs, Diagnostic{Analyzer: "suppression", Pos: pos,
						Message: fmt.Sprintf("//valora:allow names unknown analyzer %q", name)})
				case !found || reason == "":
					errs = append(errs, Diagnostic{Analyzer: "suppression", Pos: pos,
						Message: fmt.Sprintf("bare //valora:allow %s: a suppression must justify itself (\"//valora:allow %s -- <reason>\")", name, name)})
				default:
					sups = append(sups, suppression{analyzer: name, reason: reason,
						file: pos.Filename, line: pos.Line, pos: c.Pos()})
				}
			}
		}
	}
	return sups, errs
}

// ApplySuppressions drops diagnostics covered by a //valora:allow
// comment on the same or the immediately preceding line, and returns
// the survivors plus error diagnostics for malformed and unused
// suppressions (an exemption that no longer suppresses anything is
// stale and must be deleted, not carried along).
func ApplySuppressions(fset *token.FileSet, files []*ast.File, diags []Diagnostic) []Diagnostic {
	sups, errs := collectSuppressions(fset, files)
	used := make([]bool, len(sups))
	var kept []Diagnostic
	for _, d := range diags {
		suppressed := false
		for i, s := range sups {
			if s.analyzer == d.Analyzer && s.file == d.Pos.Filename &&
				(s.line == d.Pos.Line || s.line == d.Pos.Line-1) {
				used[i] = true
				suppressed = true
			}
		}
		if !suppressed {
			kept = append(kept, d)
		}
	}
	for i, s := range sups {
		if !used[i] {
			errs = append(errs, Diagnostic{Analyzer: "suppression", Pos: fset.Position(s.pos),
				Message: fmt.Sprintf("unused suppression for %s: nothing on this or the next line is flagged; delete it", s.analyzer)})
		}
	}
	kept = append(kept, errs...)
	sortDiagnostics(kept)
	return kept
}

// sortDiagnostics orders by (file, line, column, analyzer) so output
// is stable across runs.
func sortDiagnostics(diags []Diagnostic) {
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
		return a.Analyzer < b.Analyzer
	})
}

// RunPackage runs every applicable analyzer over one loaded package
// and returns the post-suppression diagnostics. The parallel-file
// annotation is validated here (a bare //valora:parallel is an error
// even in a package no analyzer scopes to).
func RunPackage(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	return runPackage(pkg, analyzers, true)
}

// runPackage is RunPackage with scope control: the golden harness
// runs analyzers over testdata packages that are deliberately outside
// every production scope.
func runPackage(pkg *Package, analyzers []*Analyzer, useScope bool) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, f := range pkg.Files {
		if annotated, hasReason, pos := ParallelFile(f); annotated && !hasReason {
			diags = append(diags, Diagnostic{Analyzer: "suppression", Pos: pkg.Fset.Position(pos),
				Message: "bare //valora:parallel: state why this file owns goroutine parallelism (\"//valora:parallel <reason>\")"})
		}
	}
	for _, a := range analyzers {
		if useScope && a.Scope != nil && !a.Scope(pkg.Path) {
			continue
		}
		pass := &Pass{
			Analyzer: a,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
			PkgPath:  pkg.Path,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("analysis %s on %s: %w", a.Name, pkg.Path, err)
		}
		diags = append(diags, pass.diags...)
	}
	return ApplySuppressions(pkg.Fset, pkg.Files, diags), nil
}

// wantRe is exposed for the golden harness: the marker syntax of
// expected diagnostics in testdata sources.
var wantRe = regexp.MustCompile(`// want "((?:[^"\\]|\\.)*)"`)
