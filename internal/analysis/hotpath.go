package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
)

// HotpathAnalyzer checks that functions annotated //valora:hotpath do
// not allocate. These are the per-iteration functions of the serving
// engine — Pool.Require, the queue push/pop pair, Timeline.Refresh,
// VaLoRAPolicy.Decide, TenantQueue.Pop, Prefetcher.Observe — whose
// zero-alloc discipline keeps a replay's cost flat per request.
//
// Heap allocation is the compiler's decision, so the analyzer asks the
// compiler: every `escapes to heap` and `moved to heap:` line that
// `go build -gcflags=-m` reports inside a hotpath body is a finding
// (closures, map construction, interface boxing, escaping &T{} and
// locals). Two allocations the compiler does not report are checked on
// the syntax: any fmt call (the memoized-Sprintf bug class; fmt
// allocates inside itself) and append to a fresh local slice (growth
// is a runtime growslice). Cold/error paths inside a hot function may
// allocate behind a justified //valora:allow, and the runtime
// allocation gates in allocgate_test.go pin the steady path to zero.
var HotpathAnalyzer = &Analyzer{
	Name: "hotpath",
	Doc:  "forbids allocation (compiler-reported heap escapes, fmt, fresh-slice append) in //valora:hotpath functions",
	Run:  runHotpath,
}

func runHotpath(pass *Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !IsHotpath(fn) {
				continue
			}
			checkHotpathBody(pass, fn)
			for _, e := range pass.escapes {
				if fn.Body.Pos() <= e.pos && e.pos < fn.Body.End() {
					pass.Reportf(e.pos, "%s in hotpath %s (compiler escape analysis)", e.msg, fn.Name.Name)
				}
			}
		}
	}
	return nil
}

// freshLocalSlices collects local slice variables whose declaration
// cannot carry pre-grown capacity: `var x []T`, `x := []T{}` and
// `x := make([]T, n)` (two-argument make). Appending to those grows a
// new backing array on the hot path; appending to reused scratch
// (struct fields, parameters, `buf[:0]` resliced from either, or
// make with an explicit capacity) does not.
func freshLocalSlices(pass *Pass, fn *ast.FuncDecl) map[types.Object]bool {
	fresh := make(map[types.Object]bool)
	mark := func(id *ast.Ident, rhs ast.Expr) {
		obj := pass.Info.Defs[id]
		if obj == nil {
			return
		}
		if _, ok := obj.Type().Underlying().(*types.Slice); !ok {
			return
		}
		switch r := ast.Unparen(rhs).(type) {
		case nil:
			fresh[obj] = true // var x []T
		case *ast.CompositeLit:
			fresh[obj] = true // x := []T{...}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(r.Fun).(*ast.Ident); ok && id.Name == "make" {
				if _, isBuiltin := pass.Info.Uses[id].(*types.Builtin); isBuiltin && len(r.Args) < 3 {
					fresh[obj] = true // make([]T, n) without capacity
				}
			}
		}
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok != token.DEFINE || len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, lhs := range n.Lhs {
				if id, ok := lhs.(*ast.Ident); ok {
					mark(id, n.Rhs[i])
				}
			}
		case *ast.DeclStmt:
			if gd, ok := n.Decl.(*ast.GenDecl); ok {
				for _, spec := range gd.Specs {
					if vs, ok := spec.(*ast.ValueSpec); ok && len(vs.Values) == 0 {
						for _, id := range vs.Names {
							mark(id, nil)
						}
					}
				}
			}
		}
		return true
	})
	return fresh
}

// checkHotpathBody applies the two syntactic rules: fmt calls and
// appends to fresh local slices.
func checkHotpathBody(pass *Pass, fn *ast.FuncDecl) {
	fresh := freshLocalSlices(pass, fn)
	name := fn.Name.Name
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "append" {
			if _, isBuiltin := pass.Info.Uses[id].(*types.Builtin); isBuiltin {
				if root, ok := ast.Unparen(call.Args[0]).(*ast.Ident); ok {
					if obj := pass.Info.Uses[root]; obj != nil && fresh[obj] {
						pass.Reportf(call.Pos(),
							"append to fresh local slice %s in hotpath %s grows a new backing array; reuse a scratch buffer (field or parameter, resliced [:0])", root.Name, name)
					}
				}
			}
		}
		if callee := calleeFunc(pass, call); callee != nil && callee.Pkg() != nil && callee.Pkg().Path() == "fmt" {
			pass.Reportf(call.Pos(), "fmt.%s in hotpath %s allocates (the memoized-Sprintf bug class)", callee.Name(), name)
		}
		return true
	})
}

// ---- the compiler's escape analysis ----

// escape is one heap allocation the compiler reported, resolved to a
// position in the analyzed package's file set.
type escape struct {
	pos token.Pos
	msg string
}

// compilerLine is one `file:line:col: message` line of `go build
// -gcflags=-m` output. file is empty for the compiler's own generated
// wrappers, which report `<autogenerated>:line: message` and have no
// source to map back to.
type compilerLine struct {
	file      string
	line, col int
	msg       string
}

var compilerLineRe = regexp.MustCompile(`^(?:<autogenerated>:\d+|(.+?):(\d+):(\d+)): (.+)$`)

// parseCompilerOutput parses `go build -gcflags=-m` output: `# pkg`
// headers and position-prefixed diagnostics. Any other line is an
// error, so a toolchain whose -m text this parser does not know fails
// the check instead of passing it.
func parseCompilerOutput(out string) ([]compilerLine, error) {
	var lines []compilerLine
	for text := range strings.Lines(out) {
		text = strings.TrimSuffix(text, "\n")
		if strings.HasPrefix(text, "# ") {
			continue
		}
		m := compilerLineRe.FindStringSubmatch(text)
		if m == nil {
			return nil, fmt.Errorf("unparseable compiler output line %q", text)
		}
		cl := compilerLine{file: m[1], msg: m[4]}
		if cl.file != "" {
			cl.line, _ = strconv.Atoi(m[2])
			cl.col, _ = strconv.Atoi(m[3])
		}
		lines = append(lines, cl)
	}
	return lines, nil
}

// isHeapEscape reports whether an -m message is a heap allocation.
func isHeapEscape(msg string) bool {
	return strings.HasSuffix(msg, " escapes to heap") || strings.HasPrefix(msg, "moved to heap: ")
}

// attachEscapes runs `go build -gcflags=-m` once, from dir, over the
// packages that hold //valora:hotpath functions, and records on each
// the compiler's heap-allocation reports in its files. -trimpath makes
// the reported file names import-path based ("valora/internal/lora/
// memory.go") rather than relative to whichever directory first filled
// the build cache, which replays the diagnostics on later runs.
func attachEscapes(dir string, pkgs []*Package) error {
	type target struct {
		pkg *Package
		tf  *token.File
	}
	files := make(map[string]target)
	args := []string{"build", "-trimpath", "-o", os.DevNull, "-gcflags=-m"}
	for _, pkg := range pkgs {
		if !hasHotpath(pkg) {
			continue
		}
		abs, err := filepath.Abs(pkg.Dir)
		if err != nil {
			return err
		}
		args = append(args, abs)
		for _, f := range pkg.Files {
			tf := pkg.Fset.File(f.Pos())
			files[pkg.Path+"/"+filepath.Base(tf.Name())] = target{pkg, tf}
		}
	}
	if len(files) == 0 {
		return nil
	}
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	if err != nil {
		return fmt.Errorf("go build -gcflags=-m: %v: %s", err, out)
	}
	lines, err := parseCompilerOutput(string(out))
	if err != nil {
		return fmt.Errorf("go build -gcflags=-m: %w", err)
	}
	for _, cl := range lines {
		t, ok := files[cl.file]
		if !ok || !isHeapEscape(cl.msg) {
			continue
		}
		if cl.line < 1 || cl.line > t.tf.LineCount() {
			return fmt.Errorf("go build -gcflags=-m: %s:%d is past the end of the parsed file", cl.file, cl.line)
		}
		t.pkg.escapes = append(t.pkg.escapes, escape{t.tf.LineStart(cl.line) + token.Pos(cl.col-1), cl.msg})
	}
	return nil
}

// hasHotpath reports whether any function of pkg is //valora:hotpath.
func hasHotpath(pkg *Package) bool {
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && IsHotpath(fn) {
				return true
			}
		}
	}
	return false
}
