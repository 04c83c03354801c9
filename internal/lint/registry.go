package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// registryAnalyzer enforces the scheme-registry contract: every
// twl/internal/wl/<name> package that exports a type implementing wl.Scheme
// must register it (wl.Register, or Registry.Add/MustAdd) — an unregistered
// scheme compiles but is unreachable from the cmd tools and the experiment
// grids, which select schemes by name. (That every scheme's bulk writes are
// invariant-checkable needs no rule: wl.Scheme carries CheckInvariants.)
var registryAnalyzer = &Analyzer{
	Name: "registry",
	Doc:  "schemes must be registered",
}

func init() { registryAnalyzer.Run = runRegistry }

func runRegistry(p *Package, w *World) []Diagnostic {
	if !isSchemePkg(p.Path) || callsRegister(p) {
		return nil
	}
	scheme := lookupInterface(w.wlContract(p), "Scheme")
	if scheme == nil {
		return nil // wl package shape changed; the build would have caught real breakage
	}

	var diags []Diagnostic
	scope := p.Types.Scope()
	for _, name := range scope.Names() {
		obj, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || obj.IsAlias() {
			continue
		}
		named, ok := obj.Type().(*types.Named)
		if !ok {
			continue
		}
		if _, isIface := named.Underlying().(*types.Interface); isIface {
			continue
		}
		if obj.Exported() && (types.Implements(named, scheme) || types.Implements(types.NewPointer(named), scheme)) {
			diags = report(diags, p, registryAnalyzer, obj.Pos(),
				"package %s exports scheme %s but never calls wl.Register; unregistered schemes are unreachable by name", p.Path, name)
		}
	}
	return diags
}

// isSchemePkg matches twl/internal/wl/<single-segment> scheme packages.
func isSchemePkg(path string) bool {
	rest, ok := strings.CutPrefix(path, wlPath+"/")
	return ok && rest != "" && !strings.Contains(rest, "/")
}

// callsRegister reports whether any file in p calls wl.Register or a
// Registry Add/MustAdd method.
func callsRegister(p *Package) bool {
	found := false
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || found {
				return !found
			}
			obj := calleeObj(p, call)
			if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != wlPath {
				return true
			}
			switch obj.Name() {
			case "Register", "Add", "MustAdd":
				found = true
			}
			return !found
		})
	}
	return found
}
