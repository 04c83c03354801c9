package lint

import (
	"go/ast"
	"go/types"
)

// determinismAnalyzer enforces bit-reproducibility: the differential tests
// that prove the fast-forward engine correct compare entire simulation
// states, so any hidden entropy source — wall clocks, the global math/rand
// stream, map iteration order — silently invalidates them.
//
// Scope: the twl facade and every twl/internal/ package, skipping files that
// import "testing" (conformance-suite helpers). Rules:
//
//   - no calls to time.Now or time.Since; the sanctioned wall-clock access
//     point is internal/clock, which stores time.Now as a function value
//     instead of calling it and so never trips this rule.
//   - no use of math/rand's global source (package-level functions other
//     than the New*/constructor family); simulations draw from internal/rng.
//   - no map iteration whose body leaks the iteration order: appending to
//     an outer slice (unless the very next statement restores a total order
//     with sort.Ints/sort.Strings/sort.Float64s/slices.Sort), assigning to
//     outer variables (conditionally — order-dependent selection like
//     argmax — or unconditionally, last-iteration-wins), printing, or
//     sending on a channel. Writes to outer maps indexed by the loop key
//     stay order-independent and pass; so do commutative op-assignments
//     (x += v).
var determinismAnalyzer = &Analyzer{
	Name: "determinism",
	Doc:  "forbids wall clocks, global math/rand, and map-iteration-order leaks in simulation packages",
}

func init() { determinismAnalyzer.Run = runDeterminism }

func runDeterminism(p *Package, _ *World) []Diagnostic {
	if !internalScope(p.Path) {
		return nil
	}
	var diags []Diagnostic
	for _, f := range p.Files {
		if testSupport(f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				diags = clockAndRandCalls(diags, p, n)
			case *ast.RangeStmt:
				if t := p.Info.TypeOf(n.X); t != nil {
					if _, ok := t.Underlying().(*types.Map); ok {
						diags = mapRangeBody(diags, p, f, n)
					}
				}
			}
			return true
		})
	}
	return diags
}

// clockAndRandCalls flags wall-clock reads and global math/rand draws.
func clockAndRandCalls(diags []Diagnostic, p *Package, call *ast.CallExpr) []Diagnostic {
	obj := calleeObj(p, call)
	if obj == nil {
		return diags
	}
	switch {
	case pkgFunc(obj, "time", "Now"):
		diags = report(diags, p, determinismAnalyzer, call.Pos(),
			"wall-clock read time.Now breaks bit-reproducibility; route it through internal/clock")
	case pkgFunc(obj, "time", "Since"):
		diags = report(diags, p, determinismAnalyzer, call.Pos(),
			"time.Since reads the wall clock implicitly; route it through internal/clock")
	case fromPkg(obj, "math/rand") || fromPkg(obj, "math/rand/v2"):
		// Constructors (New, NewSource, NewZipf, NewPCG, …) build explicitly
		// seeded generators; everything else draws from the global source.
		if len(obj.Name()) < 3 || obj.Name()[:3] != "New" {
			diags = report(diags, p, determinismAnalyzer, call.Pos(),
				"global math/rand source is shared mutable state; use internal/rng with an explicit seed")
		}
	}
	return diags
}

// mapRangeBody walks the body of a range-over-map looking for statements
// that leak the (randomized) iteration order into results.
func mapRangeBody(diags []Diagnostic, p *Package, f *ast.File, rng *ast.RangeStmt) []Diagnostic {
	body := rng.Body
	loopVars := map[types.Object]bool{}
	for _, e := range []ast.Expr{rng.Key, rng.Value} {
		if id, ok := e.(*ast.Ident); ok && id != nil {
			if obj := p.Info.Defs[id]; obj != nil {
				loopVars[obj] = true
			}
		}
	}
	// outer reports whether the lvalue chain is rooted at a variable declared
	// outside the loop body (and not a loop variable).
	outer := func(e ast.Expr) bool {
		id := rootIdent(e)
		if id == nil {
			return false
		}
		obj := p.Info.ObjectOf(id)
		if obj == nil || loopVars[obj] {
			return false
		}
		if _, ok := obj.(*types.Var); !ok {
			return false
		}
		return obj.Pos() < body.Pos() || obj.Pos() >= body.End()
	}
	// keyIndexed reports an index expression into an outer map/slice whose
	// index is the loop key — distinct keys, order-independent.
	keyObj := func() types.Object {
		if id, ok := rng.Key.(*ast.Ident); ok {
			return p.Info.Defs[id]
		}
		return nil
	}()
	keyIndexed := func(e ast.Expr) bool {
		ix, ok := ast.Unparen(e).(*ast.IndexExpr)
		if !ok || keyObj == nil {
			return false
		}
		id, ok := ast.Unparen(ix.Index).(*ast.Ident)
		return ok && p.Info.ObjectOf(id) == keyObj
	}

	var visit func(n ast.Node, cond bool)
	visit = func(n ast.Node, cond bool) {
		switch n := n.(type) {
		case nil:
			return
		case *ast.IfStmt:
			visit(n.Init, cond)
			visit(n.Body, true)
			visit(n.Else, true)
			return
		case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
			ast.Inspect(n, func(m ast.Node) bool {
				if stmt, ok := m.(ast.Stmt); ok && m != n {
					visit(stmt, true)
					return false
				}
				return true
			})
			return
		case *ast.AssignStmt:
			diags = mapRangeAssign(diags, p, f, rng, n, cond, outer, keyIndexed)
			return
		case *ast.IncDecStmt:
			// x++ accumulates commutatively, like x += 1.
			return
		case *ast.SendStmt:
			diags = report(diags, p, determinismAnalyzer, n.Pos(),
				"channel send inside range over map leaks iteration order")
			return
		case *ast.ExprStmt:
			if call, ok := n.X.(*ast.CallExpr); ok {
				if obj := calleeObj(p, call); fromPkg(obj, "fmt") {
					switch obj.Name() {
					case "Print", "Printf", "Println", "Fprint", "Fprintf", "Fprintln":
						diags = report(diags, p, determinismAnalyzer, n.Pos(),
							"output written inside range over map appears in iteration order")
					}
				}
			}
			return
		case *ast.BlockStmt:
			for _, s := range n.List {
				visit(s, cond)
			}
			return
		case *ast.ForStmt:
			visit(n.Body, cond)
			return
		case *ast.RangeStmt:
			// A nested range is scanned independently by the outer Inspect
			// when it ranges over a map; as a body statement its writes are
			// still order-tainted by the enclosing map range.
			visit(n.Body, cond)
			return
		case ast.Stmt:
			return
		}
	}
	for _, s := range body.List {
		visit(s, false)
	}
	return diags
}

// mapRangeAssign classifies one assignment inside a map-range body.
func mapRangeAssign(diags []Diagnostic, p *Package, f *ast.File, rng *ast.RangeStmt,
	as *ast.AssignStmt, cond bool, outer, keyIndexed func(ast.Expr) bool) []Diagnostic {
	for i, lhs := range as.Lhs {
		if !outer(lhs) || keyIndexed(lhs) {
			continue
		}
		// x = append(x, …): allowed only when a total-order sort of x
		// immediately follows the loop.
		if isSelfAppend(p, as, i) {
			if !sortedAfter(p, f, rng, lhs) {
				diags = report(diags, p, determinismAnalyzer, as.Pos(),
					"append inside range over map records iteration order; sort the result immediately after the loop (sort.Ints/sort.Strings/sort.Float64s/slices.Sort) or iterate sorted keys")
			}
			continue
		}
		if as.Tok.IsOperator() && as.Tok.String() != "=" && as.Tok.String() != ":=" {
			// Op-assignments (+=, *=, |=, …) accumulate; order-independent
			// for the integer arithmetic this codebase uses them for.
			continue
		}
		if cond {
			diags = report(diags, p, determinismAnalyzer, as.Pos(),
				"conditional write to outer variable inside range over map selects by iteration order; iterate sorted keys instead")
		} else {
			diags = report(diags, p, determinismAnalyzer, as.Pos(),
				"write to outer variable inside range over map keeps the last-iterated value; iterate sorted keys instead")
		}
	}
	return diags
}

// isSelfAppend reports the `x = append(x, …)` shape at LHS index i.
func isSelfAppend(p *Package, as *ast.AssignStmt, i int) bool {
	if len(as.Rhs) != len(as.Lhs) || i >= len(as.Rhs) {
		return false
	}
	call, ok := ast.Unparen(as.Rhs[i]).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "append" {
		return false
	}
	if obj, ok := p.Info.Uses[id]; !ok || obj != types.Universe.Lookup("append") {
		return false
	}
	if len(call.Args) == 0 {
		return false
	}
	dst := rootIdent(as.Lhs[i])
	src := rootIdent(call.Args[0])
	return dst != nil && src != nil && p.Info.ObjectOf(dst) == p.Info.ObjectOf(src)
}

// sortedAfter reports whether the statement immediately following the range
// loop applies a total-order sort to the appended slice.
func sortedAfter(p *Package, f *ast.File, rng *ast.RangeStmt, lhs ast.Expr) bool {
	target := rootIdent(lhs)
	if target == nil {
		return false
	}
	var next ast.Stmt
	ast.Inspect(f, func(n ast.Node) bool {
		block, ok := n.(*ast.BlockStmt)
		if !ok {
			return true
		}
		for i, s := range block.List {
			if s == ast.Stmt(rng) {
				if i+1 < len(block.List) {
					next = block.List[i+1]
				}
				return false
			}
		}
		return true
	})
	if next == nil {
		return false
	}
	expr, ok := next.(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := expr.X.(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return false
	}
	obj := calleeObj(p, call)
	total := pkgFunc(obj, "sort", "Ints") || pkgFunc(obj, "sort", "Strings") ||
		pkgFunc(obj, "sort", "Float64s") || pkgFunc(obj, "slices", "Sort")
	if !total {
		return false
	}
	arg := rootIdent(call.Args[0])
	return arg != nil && p.Info.ObjectOf(arg) == p.Info.ObjectOf(target)
}
