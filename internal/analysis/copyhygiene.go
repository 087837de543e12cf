package analysis

import (
	"go/ast"
	"go/types"
)

// CopyHygieneAnalyzer extends vet's copylocks idea to this repo's
// identity-bearing simulation state. Two families of types must never
// be copied by value:
//
//   - anything holding a sync primitive (Mutex, RWMutex, WaitGroup,
//     Once, Cond, sync.Map, sync.Pool), where a copy silently forks
//     the lock;
//   - sim.Timeline and lora.Pool, whose intrusive heap indices and
//     LRU list pointers keep referring to the original after a copy —
//     the copy looks healthy and corrupts bookkeeping at a distance.
//
// It also enforces ownership of the engine clock: a goroutine may only
// call methods on a sim.Timeline it received as its own (a parameter
// of the spawned function), never on one captured from the enclosing
// scope — a goroutine's inputs arrive through its own feeds, not
// through another goroutine's timeline.
var CopyHygieneAnalyzer = &Analyzer{
	Name: "copyhygiene",
	Doc:  "flags by-value copies of lock-bearing types, sim.Timeline and lora.Pool, and Timeline use from non-owning goroutines",
	Run:  runCopyHygiene,
}

// syncNoCopy names the sync types that make a struct uncopyable.
var syncNoCopy = map[string]bool{
	"Mutex": true, "RWMutex": true, "WaitGroup": true,
	"Once": true, "Cond": true, "Map": true, "Pool": true,
}

// namedNoCopy lists this repo's identity-bearing types by (package
// name, type name). Matching on the package's short name rather than
// the full import path lets the golden testdata model them with a
// local package of the same name.
var namedNoCopy = map[[2]string]bool{
	{"sim", "Timeline"}: true,
	{"lora", "Pool"}:    true,
}

type copyChecker struct {
	pass  *Pass
	cache map[types.Type]bool
}

// noCopy reports whether t must not be copied by value, looking
// through named types, structs and arrays (a pointer, slice, map or
// interface to a nocopy type is fine — that is the sanctioned way to
// hold one).
func (c *copyChecker) noCopy(t types.Type) bool {
	if t == nil {
		return false
	}
	if v, ok := c.cache[t]; ok {
		return v
	}
	c.cache[t] = false // cycle guard; cycles only arise through pointers anyway
	result := false
	if named, ok := t.(*types.Named); ok {
		obj := named.Obj()
		if obj != nil && obj.Pkg() != nil {
			key := [2]string{obj.Pkg().Name(), obj.Name()}
			if obj.Pkg().Path() == "sync" && syncNoCopy[obj.Name()] {
				result = true
			} else if namedNoCopy[key] {
				result = true
			}
		}
		if !result {
			result = c.noCopy(named.Underlying())
		}
	} else {
		switch u := t.(type) {
		case *types.Struct:
			for i := 0; i < u.NumFields() && !result; i++ {
				result = c.noCopy(u.Field(i).Type())
			}
		case *types.Array:
			result = c.noCopy(u.Elem())
		}
	}
	c.cache[t] = result
	return result
}

// describe names t for diagnostics.
func describe(t types.Type) string {
	if named, ok := t.(*types.Named); ok && named.Obj() != nil && named.Obj().Pkg() != nil {
		return named.Obj().Pkg().Name() + "." + named.Obj().Name()
	}
	return t.String()
}

func runCopyHygiene(pass *Pass) error {
	c := &copyChecker{pass: pass, cache: make(map[types.Type]bool)}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				c.checkSignature(n)
			case *ast.AssignStmt:
				c.checkAssign(n)
			case *ast.RangeStmt:
				if n.Value != nil {
					if t := pass.Info.TypeOf(n.Value); c.noCopy(t) {
						pass.Reportf(n.Value.Pos(), "range copies %s elements by value", describe(t))
					}
				}
			case *ast.CallExpr:
				c.checkCallArgs(n)
			case *ast.ReturnStmt:
				for _, res := range n.Results {
					if isFreshValue(res) {
						continue
					}
					if t := pass.Info.TypeOf(res); c.noCopy(t) {
						pass.Reportf(res.Pos(), "return copies %s by value", describe(t))
					}
				}
			case *ast.GoStmt:
				c.checkGoOwnership(n)
			}
			return true
		})
	}
	return nil
}

// isFreshValue reports expressions that construct a new value rather
// than copying an existing one — composite literals are how a nocopy
// type is legitimately initialized.
func isFreshValue(e ast.Expr) bool {
	_, ok := ast.Unparen(e).(*ast.CompositeLit)
	return ok
}

func (c *copyChecker) checkSignature(fn *ast.FuncDecl) {
	check := func(fl *ast.FieldList, what string) {
		if fl == nil {
			return
		}
		for _, field := range fl.List {
			if t := c.pass.Info.TypeOf(field.Type); c.noCopy(t) {
				c.pass.Reportf(field.Pos(), "%s passes %s by value; use a pointer", what, describe(t))
			}
		}
	}
	check(fn.Recv, "receiver")
	check(fn.Type.Params, "parameter")
	check(fn.Type.Results, "result")
}

func (c *copyChecker) checkAssign(as *ast.AssignStmt) {
	if len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i, rhs := range as.Rhs {
		if isFreshValue(rhs) {
			continue
		}
		// Assigning to the blank identifier discards the copy; it
		// cannot fork a lock or an intrusive list.
		if id, ok := as.Lhs[i].(*ast.Ident); ok && id.Name == "_" {
			continue
		}
		if t := c.pass.Info.TypeOf(rhs); c.noCopy(t) {
			// Only flag when the RHS reads an existing value (ident,
			// deref, selector, index) — calls cannot return a nocopy
			// value without their own declaration being flagged first.
			switch ast.Unparen(rhs).(type) {
			case *ast.Ident, *ast.StarExpr, *ast.SelectorExpr, *ast.IndexExpr:
				c.pass.Reportf(as.Pos(), "assignment copies %s by value", describe(t))
			}
		}
	}
}

func (c *copyChecker) checkCallArgs(call *ast.CallExpr) {
	if tv, ok := c.pass.Info.Types[call.Fun]; ok && tv.IsType() {
		return // conversion, not a call
	}
	for _, arg := range call.Args {
		if isFreshValue(arg) {
			continue
		}
		if t := c.pass.Info.TypeOf(arg); c.noCopy(t) {
			c.pass.Reportf(arg.Pos(), "call passes %s by value", describe(t))
		}
	}
}

// isTimeline reports whether t is (a pointer to) sim.Timeline.
func isTimeline(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj() == nil || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Pkg().Name() == "sim" && named.Obj().Name() == "Timeline"
}

// checkGoOwnership flags sim.Timeline methods invoked from a spawned
// goroutine on a timeline captured from the enclosing scope. A
// timeline handed in as the goroutine function's own parameter is
// owned; a free variable is another goroutine's state.
func (c *copyChecker) checkGoOwnership(g *ast.GoStmt) {
	reportCapturedTimelineCalls := func(body ast.Node, owned func(types.Object) bool) {
		ast.Inspect(body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			recvT := c.pass.Info.TypeOf(sel.X)
			if recvT == nil || !isTimeline(recvT) {
				return true
			}
			if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok {
				obj := c.pass.Info.Uses[id]
				if obj != nil && owned(obj) {
					return true
				}
			}
			c.pass.Reportf(call.Pos(),
				"sim.Timeline method called from a goroutine that does not own it: hand the goroutine its own timeline or feed")
			return true
		})
	}

	if lit, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit); ok {
		owned := func(obj types.Object) bool {
			return obj.Pos() >= lit.Pos() && obj.Pos() <= lit.End()
		}
		reportCapturedTimelineCalls(lit.Body, owned)
		return
	}
	// Direct `go tl.Method()` on a captured timeline.
	if sel, ok := ast.Unparen(g.Call.Fun).(*ast.SelectorExpr); ok {
		if t := c.pass.Info.TypeOf(sel.X); t != nil && isTimeline(t) {
			c.pass.Reportf(g.Call.Pos(),
				"sim.Timeline method called from a goroutine that does not own it: hand the goroutine its own timeline or feed")
		}
	}
}
