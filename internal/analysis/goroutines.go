package analysis

import (
	"go/ast"
)

// GoroutinesAnalyzer enforces goroutine containment: in the
// simulation packages, `go` statements and selects with more than one
// communication case are only allowed in files that explicitly own
// parallelism via a //valora:parallel annotation (the worker pool
// that drains independent instances). Everything outside those files
// must be single-threaded: the determinism contract of sharded runs is
// that goroutine interleaving is never observable, and a stray
// goroutine or racing select elsewhere makes it observable.
var GoroutinesAnalyzer = &Analyzer{
	Name:  "goroutines",
	Doc:   "restricts go statements and multi-case selects to //valora:parallel files in simulation packages",
	Scope: SimScope,
	Run:   runGoroutines,
}

func runGoroutines(pass *Pass) error {
	for _, f := range pass.Files {
		annotated, hasReason, _ := ParallelFile(f)
		if annotated && hasReason {
			continue // this file owns parallelism, with a written reason
		}
		// A bare annotation is reported by the driver; treat the file
		// as unannotated so its concurrency is still flagged.
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				pass.Reportf(n.Pos(),
					"go statement outside a //valora:parallel file: concurrency outside the parallel drain breaks the determinism contract")
			case *ast.SelectStmt:
				comm := 0
				for _, clause := range n.Body.List {
					if c, ok := clause.(*ast.CommClause); ok && c.Comm != nil {
						comm++
					}
				}
				if comm > 1 {
					pass.Reportf(n.Pos(),
						"select with %d communication cases outside a //valora:parallel file: which ready case fires is scheduler-dependent", comm)
				}
			}
			return true
		})
	}
	return nil
}
