package analysis

import (
	"go/ast"
	"go/types"
)

// CopyHygieneAnalyzer enforces ownership of the engine clock: a
// goroutine may only call methods on a sim.Timeline it received as its
// own (a parameter of the spawned function), never on one captured
// from the enclosing scope — a goroutine's inputs arrive through its
// own feeds, not through another goroutine's timeline.
//
// By-value copies of sim.Timeline, lora.Pool and lock-bearing types
// are `go vet`'s job: both types carry a noCopy marker, so vet's
// copylocks check flags every copy.
var CopyHygieneAnalyzer = &Analyzer{
	Name: "copyhygiene",
	Doc:  "flags sim.Timeline use from goroutines that do not own it (copies are go vet's copylocks)",
	Run:  runCopyHygiene,
}

func runCopyHygiene(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				checkGoOwnership(pass, g)
			}
			return true
		})
	}
	return nil
}

// isTimeline reports whether t is (a pointer to) sim.Timeline.
// Matching on the package's short name rather than the full import
// path lets the golden testdata model it with a local package of the
// same name.
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
func checkGoOwnership(pass *Pass, g *ast.GoStmt) {
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
			recvT := pass.Info.TypeOf(sel.X)
			if recvT == nil || !isTimeline(recvT) {
				return true
			}
			if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok {
				obj := pass.Info.Uses[id]
				if obj != nil && owned(obj) {
					return true
				}
			}
			pass.Reportf(call.Pos(),
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
		if t := pass.Info.TypeOf(sel.X); t != nil && isTimeline(t) {
			pass.Reportf(g.Call.Pos(),
				"sim.Timeline method called from a goroutine that does not own it: hand the goroutine its own timeline or feed")
		}
	}
}
