package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// HotpathAnalyzer checks that functions annotated //valora:hotpath do
// not allocate: no closure literals, no fmt calls, no interface
// boxing, no append to a fresh (uncapacitated) local slice, and no map
// construction. These are the per-iteration functions of the serving
// engine — Pool.Require, the queue push/pop pair, Timeline.Refresh,
// VaLoRAPolicy.Decide, TenantQueue.Pop, Prefetcher.Observe — whose
// zero-alloc discipline PR 2 bought the 374k req/s replay rate; the
// memoized-Sprintf class of regression (a Sprintf per adapter lookup
// on the hot path) is exactly what this rule catches at review time
// instead of in a profile. The static rule is necessarily
// conservative: cold/error paths inside a hot function may allocate
// behind a justified //valora:allow, and the runtime AllocsPerRun
// gates in allocgate_test.go pin the steady path to zero.
var HotpathAnalyzer = &Analyzer{
	Name: "hotpath",
	Doc:  "forbids allocation (closures, fmt, boxing, fresh-slice append, map construction) in //valora:hotpath functions",
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

func checkHotpathBody(pass *Pass, fn *ast.FuncDecl) {
	fresh := freshLocalSlices(pass, fn)
	escaped := make(map[types.Object]bool)
	name := fn.Name.Name
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			pass.Reportf(n.Pos(), "closure literal in hotpath %s allocates per call", name)
			return false // its body is the closure's problem, one flag is enough
		case *ast.CompositeLit:
			if t := pass.Info.TypeOf(n); t != nil {
				if _, ok := t.Underlying().(*types.Map); ok {
					pass.Reportf(n.Pos(), "map literal in hotpath %s allocates", name)
				}
			}
		case *ast.CallExpr:
			checkHotpathCall(pass, fn, n, fresh, escaped, name)
		case *ast.AssignStmt:
			checkBoxingAssign(pass, n, name)
		}
		return true
	})
}

func checkHotpathCall(pass *Pass, fn *ast.FuncDecl, call *ast.CallExpr, fresh, escaped map[types.Object]bool, name string) {
	// Builtins: append to fresh local slices and make(map) allocate.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := pass.Info.Uses[id].(*types.Builtin); isBuiltin {
			switch id.Name {
			case "append":
				if root, ok := ast.Unparen(call.Args[0]).(*ast.Ident); ok {
					if obj := pass.Info.Uses[root]; obj != nil && fresh[obj] {
						pass.Reportf(call.Pos(),
							"append to fresh local slice %s in hotpath %s grows a new backing array; reuse a scratch buffer (field or parameter, resliced [:0])", root.Name, name)
					}
				}
			case "make":
				if t := pass.Info.TypeOf(call); t != nil {
					if _, ok := t.Underlying().(*types.Map); ok {
						pass.Reportf(call.Pos(), "make(map) in hotpath %s allocates", name)
					}
				}
			}
			return
		}
	}

	// fmt is wholesale allocation: formatting state, boxing, string
	// building.
	if callee := calleeFunc(pass, call); callee != nil && callee.Pkg() != nil && callee.Pkg().Path() == "fmt" {
		pass.Reportf(call.Pos(), "fmt.%s in hotpath %s allocates (the memoized-Sprintf bug class)", callee.Name(), name)
		return
	}

	// Conversion to an interface type boxes the operand.
	if tv, ok := pass.Info.Types[call.Fun]; ok && tv.IsType() {
		if types.IsInterface(tv.Type) && len(call.Args) == 1 {
			if at := pass.Info.TypeOf(call.Args[0]); at != nil && !types.IsInterface(at) && !isNil(pass, call.Args[0]) {
				pass.Reportf(call.Pos(), "conversion to interface in hotpath %s boxes its operand", name)
			}
		}
		return
	}

	// Concrete arguments passed to interface parameters box.
	sig, ok := pass.Info.TypeOf(call.Fun).(*types.Signature)
	if !ok || call.Ellipsis.IsValid() {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		if sig.Variadic() && i >= params.Len()-1 {
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		} else if i < params.Len() {
			pt = params.At(i).Type()
		}
		if pt == nil || !types.IsInterface(pt) {
			continue
		}
		if at := pass.Info.TypeOf(arg); at != nil && !types.IsInterface(at) && !isNil(pass, arg) {
			pass.Reportf(arg.Pos(), "argument boxes into interface parameter in hotpath %s", name)
			reportEscapedLocal(pass, fn, arg, escaped, name)
		}
	}
}

// reportEscapedLocal flags, at its declaration, a local whose address
// arg passes to an interface parameter (errors.As(err, &ce)). The
// local then moves to the heap on every call, even when the call
// itself sits on a cold branch, so an allow on the call's line must
// not hide it. escaped holds the locals already flagged.
func reportEscapedLocal(pass *Pass, fn *ast.FuncDecl, arg ast.Expr, escaped map[types.Object]bool, name string) {
	addr, ok := ast.Unparen(arg).(*ast.UnaryExpr)
	if !ok || addr.Op != token.AND {
		return
	}
	id, ok := ast.Unparen(addr.X).(*ast.Ident)
	if !ok {
		return
	}
	v, ok := pass.Info.Uses[id].(*types.Var)
	if !ok || v.IsField() || v.Pos() < fn.Body.Pos() || v.Pos() >= fn.Body.End() || escaped[v] {
		return
	}
	escaped[v] = true
	pass.Reportf(v.Pos(), "local %s moves to the heap on every call of hotpath %s: its address boxes into an interface parameter", id.Name, name)
}

// checkBoxingAssign flags assignments storing a concrete value into an
// interface-typed location.
func checkBoxingAssign(pass *Pass, as *ast.AssignStmt, name string) {
	if len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i, lhs := range as.Lhs {
		lt := pass.Info.TypeOf(lhs)
		rt := pass.Info.TypeOf(as.Rhs[i])
		if lt == nil || rt == nil || !types.IsInterface(lt) || types.IsInterface(rt) || isNil(pass, as.Rhs[i]) {
			continue
		}
		pass.Reportf(as.Pos(), "assignment boxes a concrete value into an interface in hotpath %s", name)
	}
}

func isNil(pass *Pass, e ast.Expr) bool {
	tv, ok := pass.Info.Types[ast.Unparen(e)]
	return ok && tv.IsNil()
}
