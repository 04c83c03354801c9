package lint

import (
	"go/ast"
	"go/types"
)

// locksAnalyzer keeps shared state on the typed atomics (atomic.Int64,
// Uint64, Bool, Pointer), which the go toolchain already guards: each
// carries a noCopy marker, so go vet's copylocks reports every by-value
// copy, and none can be read or written as a plain variable, so a field
// never mixes atomic and plain access. Two forms escape both guarantees,
// and this analyzer forbids them:
//
//   - calls to the sync/atomic package-level functions
//     (atomic.AddInt64(&s.n, 1)): the field they address is a plain
//     integer that other code may read, write or copy without the atomic
//     path;
//   - atomic.Value, the one sync/atomic type copylocks does not know.
var locksAnalyzer = &Analyzer{
	Name: "locks",
	Doc:  "forbids the sync/atomic package-level functions and atomic.Value; shared state uses the typed atomics",
}

func init() { locksAnalyzer.Run = runLocks }

func runLocks(p *Package, _ *World) []Diagnostic {
	var diags []Diagnostic
	for _, f := range p.Files {
		if testSupport(f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if obj := calleeObj(p, n); fromPkg(obj, "sync/atomic") {
					diags = report(diags, p, locksAnalyzer, n.Pos(),
						"atomic.%s works on a plain variable that other code can read, write or copy without it; use a typed atomic (atomic.Int64, atomic.Bool, ...)", obj.Name())
				}
			case *ast.SelectorExpr:
				if tn, ok := p.Info.Uses[n.Sel].(*types.TypeName); ok && tn.Pkg() != nil &&
					tn.Pkg().Path() == "sync/atomic" && tn.Name() == "Value" {
					diags = report(diags, p, locksAnalyzer, n.Pos(),
						"atomic.Value copies without a go vet warning; use atomic.Pointer")
				}
			}
			return true
		})
	}
	return diags
}
