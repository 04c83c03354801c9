package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// report appends a finding of analyzer a at pos.
func report(diags []Diagnostic, p *Package, a *Analyzer, pos token.Pos, format string, args ...any) []Diagnostic {
	return append(diags, newDiag(p.Fset, pos, p.Path, a.Name, format, args...))
}

// calleeObj resolves the object a call expression invokes, looking through
// parentheses. It returns nil for indirect calls and conversions.
func calleeObj(p *Package, call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return p.Info.Uses[fun]
	case *ast.SelectorExpr:
		if sel := p.Info.Selections[fun]; sel != nil {
			return sel.Obj() // method or field
		}
		return p.Info.Uses[fun.Sel] // package-qualified function
	}
	return nil
}

// pkgFunc reports whether obj is the package-level function pkgPath.name.
func pkgFunc(obj types.Object, pkgPath, name string) bool {
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	fn, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	return fn.Pkg().Path() == pkgPath && fn.Name() == name && fn.Type().(*types.Signature).Recv() == nil
}

// fromPkg reports whether obj is any package-level function of pkgPath.
func fromPkg(obj types.Object, pkgPath string) bool {
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() == nil && fn.Pkg().Path() == pkgPath
}

// rootIdent walks to the base identifier of an lvalue chain
// (d.cur[la].x → d); nil when the base is not a plain identifier.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// internalScope reports whether the package is simulation code the
// determinism contract covers: the twl facade and everything under
// twl/internal/.
func internalScope(path string) bool {
	return path == "twl" || strings.HasPrefix(path, "twl/internal/")
}

// lookupInterface fetches a named interface's underlying *types.Interface
// from pkg.
func lookupInterface(pkg *types.Package, name string) *types.Interface {
	if pkg == nil {
		return nil
	}
	obj := pkg.Scope().Lookup(name)
	if obj == nil {
		return nil
	}
	iface, _ := obj.Type().Underlying().(*types.Interface)
	return iface
}

// isWLNamed reports whether t is the named type wl.<name>, matching by path
// and name so it holds across independently checked instances of wl.
func isWLNamed(t types.Type, name string) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == wlPath && obj.Name() == name
}
