package lint

import (
	"go/ast"
	"go/types"
)

// decoratorAnalyzer enforces the interception-completeness contract
// (DESIGN.md "Decorator composition"): a named struct type that embeds the
// wl.Scheme interface and declares its own Write method is a decorator — it
// interposes on the per-request write path. Such a type must itself declare
// every method that serves a path around Write: CheckInvariants, Snapshot,
// Restore, WriteRun and WriteSweep. The embedded wl.Scheme promotes all of
// them but WriteSweep, so the decorator always satisfies the interfaces; an
// undeclared one is a silent bypass — the embedded scheme's method serves
// that path directly, skipping whatever the decorator's Write interposes (a
// bulk write that dodges failure handling, a checkpoint that drops
// decorator state, paranoid mode that never sees the decorator's
// invariants). Likewise a decorator that declares Read must declare ReadN,
// or bulk reads bypass it. One diagnostic per undeclared method; a
// decorator that wants pass-through for one path declares the method and
// forwards it to the embedded scheme, so the choice is visible in code.
var decoratorAnalyzer = &Analyzer{
	Name: "decorator",
	Doc:  "a type embedding wl.Scheme that overrides Write must declare every check, snapshot and bulk-write method, and ReadN beside Read",
}

func init() { decoratorAnalyzer.Run = runDecorator }

// interceptIfaces are the wl interfaces whose methods serve paths around
// Write; a decorator must declare each of their methods.
var interceptIfaces = []string{"Checker", "Snapshotter", "RunWriter", "SweepWriter"}

func runDecorator(p *Package, w *World) []Diagnostic {
	if !internalScope(p.Path) {
		return nil
	}
	wlPkg := w.wlContract(p)
	var required []string
	for _, name := range interceptIfaces {
		iface := lookupInterface(wlPkg, name)
		if iface == nil {
			return nil // wl package shape changed; the build would have caught real breakage
		}
		for i := 0; i < iface.NumMethods(); i++ {
			required = append(required, iface.Method(i).Name())
		}
	}

	var diags []Diagnostic
	for _, f := range p.Files {
		if testSupport(f) {
			continue
		}
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				obj, ok := p.Info.Defs[ts.Name].(*types.TypeName)
				if !ok || obj.IsAlias() {
					continue
				}
				named, ok := obj.Type().(*types.Named)
				if !ok {
					continue
				}
				st, ok := named.Underlying().(*types.Struct)
				if !ok || !embedsScheme(st) {
					continue
				}
				declared := declaredMethods(named)
				if !declared["Write"] {
					continue
				}
				name := named.Obj().Name()
				for _, m := range required {
					if !declared[m] {
						diags = report(diags, p, decoratorAnalyzer, obj.Pos(),
							"decorator %s embeds wl.Scheme and overrides Write but does not declare %s; the embedded scheme's method serves that path without the decorator's interception", name, m)
					}
				}
				if declared["Read"] && !declared["ReadN"] {
					diags = report(diags, p, decoratorAnalyzer, obj.Pos(),
						"decorator %s overrides Read but does not declare ReadN; the embedded scheme's ReadN serves bulk reads without the decorator's interception", name)
				}
			}
		}
	}
	return diags
}

// embedsScheme reports whether the struct has an embedded field of the
// wl.Scheme interface type itself (not a concrete scheme).
func embedsScheme(st *types.Struct) bool {
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if f.Embedded() && isWLNamed(f.Type(), "Scheme") {
			return true
		}
	}
	return false
}

// declaredMethods returns the names of the methods the named type declares
// itself, on either receiver. Methods promoted from the embedded scheme do
// not count: a method the decorator does not declare interposes on nothing.
func declaredMethods(named *types.Named) map[string]bool {
	m := make(map[string]bool, named.NumMethods())
	for i := 0; i < named.NumMethods(); i++ {
		m[named.Method(i).Name()] = true
	}
	return m
}
