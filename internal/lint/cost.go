package lint

import (
	"go/ast"
	"go/types"
)

// costAnalyzer flags call statements that silently discard a returned
// wl.Cost or error in non-test code. Dropped costs corrupt the performance
// accounting (Figure 9 sums every request's cost); dropped errors hide
// failures the simulator is supposed to surface. Explicitly assigning to _
// is the sanctioned way to state "this result is intentionally unused".
//
// Writer-convention exemptions (the errcheck defaults, narrowed): fmt
// printing to stdout, fmt.Fprint* to os.Stdout/os.Stderr, and writes into
// in-memory sinks (strings.Builder, bytes.Buffer) whose Write methods are
// documented never to fail.
var costAnalyzer = &Analyzer{
	Name: "cost",
	Doc:  "forbids discarding returned wl.Cost values and errors outside tests",
}

func init() { costAnalyzer.Run = runCost }

func runCost(p *Package, _ *World) []Diagnostic {
	var diags []Diagnostic
	for _, f := range p.Files {
		if testSupport(f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			var call *ast.CallExpr
			switch n := n.(type) {
			case *ast.ExprStmt:
				call, _ = n.X.(*ast.CallExpr)
			case *ast.DeferStmt:
				call = n.Call
			case *ast.GoStmt:
				call = n.Call
			default:
				return true
			}
			if call == nil || exemptCall(p, call) {
				return true
			}
			for _, kind := range discarded(p, call) {
				diags = report(diags, p, costAnalyzer, call.Pos(),
					"call discards its %s result; consume it or assign to _ explicitly", kind)
			}
			return true
		})
	}
	return diags
}

// discarded lists which contract-relevant result kinds the call drops.
func discarded(p *Package, call *ast.CallExpr) []string {
	tv, ok := p.Info.Types[call]
	if !ok {
		return nil
	}
	var kinds []string
	add := func(t types.Type) {
		switch {
		case isWLNamed(t, "Cost"):
			kinds = append(kinds, "wl.Cost")
		case types.Identical(t, types.Universe.Lookup("error").Type()):
			kinds = append(kinds, "error")
		}
	}
	switch t := tv.Type.(type) {
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			add(t.At(i).Type())
		}
	default:
		add(t)
	}
	return kinds
}

// exemptCall covers the writer conventions where ignoring the error is
// idiomatic and safe.
func exemptCall(p *Package, call *ast.CallExpr) bool {
	obj := calleeObj(p, call)
	if obj == nil {
		return false
	}
	// fmt printing to stdout.
	if fromPkg(obj, "fmt") {
		switch obj.Name() {
		case "Print", "Printf", "Println":
			return true
		case "Fprint", "Fprintf", "Fprintln":
			return len(call.Args) > 0 && (stdStream(p, call.Args[0]) || memSink(p, call.Args[0]))
		}
	}
	// In-memory sinks never fail.
	if fn, ok := obj.(*types.Func); ok {
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			if memSinkType(sig.Recv().Type()) {
				return true
			}
		}
	}
	return false
}

// stdStream matches the os.Stdout / os.Stderr identifiers.
func stdStream(p *Package, e ast.Expr) bool {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	obj := p.Info.Uses[sel.Sel]
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "os" &&
		(obj.Name() == "Stdout" || obj.Name() == "Stderr")
}

// memSink reports an argument whose type is an in-memory writer.
func memSink(p *Package, e ast.Expr) bool {
	t := p.Info.TypeOf(e)
	return t != nil && memSinkType(t)
}

// memSinkType matches *strings.Builder and *bytes.Buffer.
func memSinkType(t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	if ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	path, name := named.Obj().Pkg().Path(), named.Obj().Name()
	return (path == "strings" && name == "Builder") || (path == "bytes" && name == "Buffer")
}
