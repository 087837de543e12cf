package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// NondeterminismAnalyzer flags the three ways nondeterminism has
// historically crept into discrete-event simulators like this one:
//
//   - wall-clock reads (time.Now / time.Since) leaking into virtual
//     time — the engine's clock is the Timeline, never the host's;
//   - the global math/rand top-level functions, whose stream is shared
//     process-wide and order-dependent — draws must come from a seeded
//     *rand.Rand;
//   - ranging over a map where the loop body feeds an ordering,
//     selection, float accumulation, or slice append that escapes the
//     loop — Go randomizes map iteration order per range, so any
//     order-sensitive fold over one is a different answer every run.
//
// Commutative folds over maps (integer sums, map-to-map copies) are
// deliberately not flagged: reordering them is unobservable.
var NondeterminismAnalyzer = &Analyzer{
	Name:  "nondeterminism",
	Doc:   "flags wall-clock reads, global math/rand, and order-sensitive map iteration in simulation packages",
	Scope: SimScope,
	Run:   runNondeterminism,
}

// seededRandConstructors are the math/rand entry points that build
// explicitly seeded generators — the allowed way in.
var seededRandConstructors = map[string]bool{
	"New":       true,
	"NewSource": true,
	"NewZipf":   true,
}

func runNondeterminism(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkForbiddenCall(pass, n)
			case *ast.RangeStmt:
				if isMapRange(pass, n) {
					checkMapRangeBody(pass, n)
				}
			}
			return true
		})
	}
	return nil
}

// calleeFunc resolves a call's target to a *types.Func when it is a
// plain (possibly package-qualified) function or method reference.
func calleeFunc(pass *Pass, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := pass.Info.Uses[id].(*types.Func)
	return fn
}

func checkForbiddenCall(pass *Pass, call *ast.CallExpr) {
	fn := calleeFunc(pass, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	switch fn.Pkg().Path() {
	case "time":
		if fn.Name() == "Now" || fn.Name() == "Since" {
			pass.Reportf(call.Pos(),
				"wall-clock time.%s in simulation code: virtual time must come from the engine clock (sim.Timeline.Now / Server.Now)", fn.Name())
		}
	case "math/rand", "math/rand/v2":
		// Methods on *rand.Rand are fine — they carry their own seeded
		// state. Package-level functions draw from the shared global
		// stream.
		if fn.Type().(*types.Signature).Recv() == nil && !seededRandConstructors[fn.Name()] {
			pass.Reportf(call.Pos(),
				"global %s.%s draws from the process-wide stream: use a seeded *rand.Rand", fn.Pkg().Name(), fn.Name())
		}
	}
}

func isMapRange(pass *Pass, rng *ast.RangeStmt) bool {
	tv, ok := pass.Info.Types[rng.X]
	if !ok || tv.Type == nil {
		return false
	}
	_, isMap := tv.Type.Underlying().(*types.Map)
	return isMap
}

// checkMapRangeBody looks for order-sensitive effects escaping the
// range body. "Escaping" means the target object is declared outside
// the range statement, so its final value survives the loop and can
// depend on iteration order.
func checkMapRangeBody(pass *Pass, rng *ast.RangeStmt) {
	loopVars := rangeLoopVars(pass, rng)

	escapes := func(e ast.Expr) bool { return escapesRange(pass, e, rng) }

	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			checkMapRangeAssign(pass, rng, n, loopVars, escapes)
		case *ast.ReturnStmt:
			// Returning a value derived from the loop variables selects
			// one map element by iteration order ("first match wins" —
			// but the map decides what comes first). Constant returns
			// (return true / return nil early exits) are order-
			// independent and stay silent.
			for _, res := range n.Results {
				if usesAny(pass, res, loopVars) {
					pass.Reportf(n.Pos(),
						"return inside a map range depends on the loop variable: which element wins is decided by randomized map order")
					break
				}
			}
		}
		return true
	})
}

// rangeLoopVars collects the objects of the range's key/value
// variables.
func rangeLoopVars(pass *Pass, rng *ast.RangeStmt) map[types.Object]bool {
	vars := make(map[types.Object]bool)
	for _, e := range []ast.Expr{rng.Key, rng.Value} {
		if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
			if obj := pass.Info.Defs[id]; obj != nil {
				vars[obj] = true
			} else if obj := pass.Info.Uses[id]; obj != nil {
				vars[obj] = true // "=" range form reusing an outer var
			}
		}
	}
	return vars
}

// escapesRange reports whether the expression's root object is
// declared outside the range statement (so mutations to it survive
// the loop). Selectors and index expressions escape through their
// root: s.field and buf[i] outlive the loop body whenever s and buf
// do.
func escapesRange(pass *Pass, e ast.Expr, rng *ast.RangeStmt) bool {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			obj := pass.Info.Uses[x]
			if obj == nil {
				obj = pass.Info.Defs[x]
			}
			if obj == nil {
				return false
			}
			return obj.Pos() < rng.Pos() || obj.Pos() > rng.End()
		case *ast.SelectorExpr:
			// A selector always reaches state beyond the loop variable
			// unless its root is the loop variable itself.
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return false
		}
	}
}

// usesAny reports whether the expression references any of the given
// objects.
func usesAny(pass *Pass, e ast.Expr, objs map[types.Object]bool) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := pass.Info.Uses[id]; obj != nil && objs[obj] {
				found = true
				return false
			}
		}
		return !found
	})
	return found
}

func isFloat(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

func checkMapRangeAssign(pass *Pass, rng *ast.RangeStmt, as *ast.AssignStmt, loopVars map[types.Object]bool, escapes func(ast.Expr) bool) {
	switch as.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
		// Compound float accumulation: float addition is not
		// associative, so the folded value depends on map order.
		// Integer folds commute and stay silent.
		for _, lhs := range as.Lhs {
			if t := pass.Info.TypeOf(lhs); t != nil && isFloat(t) && escapes(lhs) {
				pass.Reportf(as.Pos(),
					"float accumulation in map-range order: float addition is not associative, so the result depends on randomized map order (iterate a deterministic key order instead)")
				return
			}
		}
	case token.ASSIGN:
		for i, lhs := range as.Lhs {
			if !escapes(lhs) {
				continue
			}
			var rhs ast.Expr
			if len(as.Rhs) == len(as.Lhs) {
				rhs = as.Rhs[i]
			} else {
				rhs = as.Rhs[0]
			}
			if isBuiltinCall(pass, rhs, "append") {
				pass.Reportf(as.Pos(),
					"slice append in map-range order: the slice's element order is randomized per run (collect and sort, or iterate a deterministic key order)")
				return
			}
			// A keyed write (out[k] = v) lands each element in its own
			// slot regardless of visit order — order-independent.
			if idx, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok && usesAny(pass, idx.Index, loopVars) {
				continue
			}
			if usesAny(pass, rhs, loopVars) {
				pass.Reportf(as.Pos(),
					"selection escaping a map range: the surviving value depends on randomized map order (order the candidates deterministically or make the fold total)")
				return
			}
		}
	}
}

// isBuiltinCall reports whether e is a call to the named builtin.
func isBuiltinCall(pass *Pass, e ast.Expr, name string) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, isBuiltin := pass.Info.Uses[id].(*types.Builtin)
	return isBuiltin
}
