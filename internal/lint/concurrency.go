package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

// concurrencyAnalyzer enforces the goroutine and lock discipline the
// array-scale roadmap items (sharded simulation service, full-size device
// geometry) depend on. Two rules:
//
//  1. Join discipline: every `go` statement must have a reachable join —
//     a sync.WaitGroup the goroutine Done()s and the spawn site (or the
//     WaitGroup's owner) Wait()s, or a done channel the goroutine
//     sends on / closes and the spawn site receives from or returns. A
//     goroutine with neither outlives the computation that spawned it:
//     a leaked worker keeps mutating simulation state after the grid
//     believes the cell is finished.
//  2. Guarded fields: a struct field or package-level var annotated
//     `//twl:guardedby <mutex>` may only be touched in a critical section
//     of the named sibling mutex — the enclosing function must Lock (or
//     RLock) that mutex before the access, or carry a `//twl:locked
//     <mutex>` annotation stating its caller already holds it. A name that
//     is not a sibling sync.Mutex or sync.RWMutex (a typo, a renamed
//     mutex) is itself a finding: it would guard nothing. Typed atomics
//     need no annotation: they have no plain access to confine, and the
//     locks rule and go vet's copylocks police the rest.
//
// Scope: every package of the module (the worker pools live in the twl
// facade and the cmd tools, not just internal/), skipping test-support
// files.
var concurrencyAnalyzer = &Analyzer{
	Name: "concurrency",
	Doc:  "goroutines must join, and //twl:guardedby fields stay inside their critical sections",
}

func init() { concurrencyAnalyzer.Run = runConcurrency }

func runConcurrency(p *Package, _ *World) []Diagnostic {
	guards, diags := collectGuards(p)
	for _, f := range p.Files {
		if testSupport(f) {
			continue
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			diags = walkFuncBody(diags, p, guards, fd, fd.Body)
		}
	}
	return diags
}

// guardInfo describes one //twl:guardedby annotation.
type guardInfo struct {
	guarded types.Object // the annotated field or package var
	guard   types.Object // the named mutex
	name    string       // the guard name as written ("mu")
}

// guardSet indexes the package's guardedby annotations by guarded object.
type guardSet map[types.Object]*guardInfo

// guardComment extracts the name following the //twl:guardedby directive
// from a field or value-spec comment group ("" when absent). Like Go's own
// //go: directives, the marker must start the comment — prose that merely
// mentions the annotation does not count.
func guardComment(groups ...*ast.CommentGroup) string {
	const marker = "//twl:guardedby"
	for _, cg := range groups {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			if strings.HasPrefix(c.Text, marker) {
				fields := strings.Fields(c.Text[len(marker):])
				if len(fields) > 0 {
					return fields[0]
				}
			}
		}
	}
	return ""
}

// lockedNames extracts the names following the //twl:locked directive from
// the doc comment of fn — the declaration that the caller already holds
// those locks. Function literals cannot carry one. Directive position only,
// same as guardComment.
func lockedNames(fn ast.Node) map[string]bool {
	fd, ok := fn.(*ast.FuncDecl)
	if !ok || fd.Doc == nil {
		return nil
	}
	const marker = "//twl:locked"
	var names map[string]bool
	for _, c := range fd.Doc.List {
		if strings.HasPrefix(c.Text, marker) {
			for _, n := range strings.Fields(c.Text[len(marker):]) {
				if names == nil {
					names = map[string]bool{}
				}
				names[n] = true
			}
		}
	}
	return names
}

// collectGuards finds every //twl:guardedby annotation in the package:
// struct fields whose guard is a sibling field, and package-level vars
// whose guard is another package-level var. An annotation whose name does
// not resolve to a mutex is reported and guards nothing.
func collectGuards(p *Package) (guardSet, []Diagnostic) {
	gs := guardSet{}
	var diags []Diagnostic
	add := func(id *ast.Ident, guard types.Object, name, sibling string) {
		obj := p.Info.Defs[id]
		if obj == nil {
			return
		}
		if v, ok := guard.(*types.Var); !ok || !isSync(v.Type(), "Mutex", "RWMutex") {
			diags = report(diags, p, concurrencyAnalyzer, id.Pos(),
				"%s is annotated //twl:guardedby %s, but %s is not a sync.Mutex or sync.RWMutex %s; the annotation guards nothing",
				id.Name, name, name, sibling)
			return
		}
		gs[obj] = &guardInfo{guarded: obj, guard: guard, name: name}
	}
	for _, f := range p.Files {
		if testSupport(f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.StructType:
				for _, fld := range n.Fields.List {
					if name := guardComment(fld.Doc, fld.Comment); name != "" {
						guard := resolveSiblingField(p, n, name)
						for _, id := range fld.Names {
							add(id, guard, name, "sibling field")
						}
					}
				}
			case *ast.GenDecl:
				if n.Tok != token.VAR {
					return true
				}
				for _, spec := range n.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok {
						continue
					}
					name := guardComment(vs.Doc, vs.Comment)
					if name == "" {
						name = guardComment(n.Doc)
					}
					if name == "" {
						continue
					}
					for _, id := range vs.Names {
						if obj := p.Info.Defs[id]; obj != nil && obj.Parent() == p.Types.Scope() {
							add(id, p.Types.Scope().Lookup(name), name, "package var")
						}
					}
				}
			}
			return true
		})
	}
	return gs, diags
}

// resolveSiblingField finds the field named name in the same struct
// declaration (the guard mutex of a //twl:guardedby annotation).
func resolveSiblingField(p *Package, st *ast.StructType, name string) types.Object {
	for _, fld := range st.Fields.List {
		for _, id := range fld.Names {
			if id.Name == name {
				return p.Info.Defs[id]
			}
		}
	}
	return nil
}

// walkFuncBody applies both rules to one function body. Nested function
// literals recurse with their own body as the enclosing scope — a closure
// that touches guarded state must lock for itself (it may run on another
// goroutine), and a go statement inside a closure is joined or not relative
// to that closure.
func walkFuncBody(diags []Diagnostic, p *Package, guards guardSet, fn ast.Node, body *ast.BlockStmt) []Diagnostic {
	locked := lockedNames(fn)
	lockPositions := collectLockCalls(p, body)

	var walk func(n ast.Node)
	walk = func(n ast.Node) {
		switch n := n.(type) {
		case nil:
			return
		case *ast.FuncLit:
			diags = walkFuncBody(diags, p, guards, n, n.Body)
			return
		case *ast.GoStmt:
			diags = checkGoStmt(diags, p, n, fn, body)
			// The spawned closure still gets rule 2 treatment as its own
			// function scope; the call arguments evaluate in this one.
			if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
				diags = walkFuncBody(diags, p, guards, lit, lit.Body)
			}
			for _, arg := range n.Call.Args {
				walk(arg)
			}
			return
		case *ast.SelectorExpr:
			diags = checkGuardedAccess(diags, p, guards, n, locked, lockPositions)
			walk(n.X)
			return
		case *ast.Ident:
			diags = checkGuardedIdent(diags, p, guards, n, locked, lockPositions)
			return
		}
		ast.Inspect(n, func(m ast.Node) bool {
			if m == n {
				return true
			}
			walk(m)
			return false
		})
	}
	for _, s := range body.List {
		walk(s)
	}
	return diags
}

// lockCall resolves a call expression to the mutex object it locks:
// X.Lock() / X.RLock() where X is a field selection or identifier of a
// sync.Mutex/sync.RWMutex. Non-lock calls return nil.
func lockCall(p *Package, call *ast.CallExpr) types.Object {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	if sel.Sel.Name != "Lock" && sel.Sel.Name != "RLock" {
		return nil
	}
	s := p.Info.Selections[sel]
	if s == nil {
		return nil
	}
	fn, ok := s.Obj().(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return nil
	}
	return lvalueObj(p, sel.X)
}

// lvalueObj resolves the object a field-selection or identifier chain
// denotes: the selected field for x.mu, the identifier's object otherwise.
func lvalueObj(p *Package, e ast.Expr) types.Object {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		return p.Info.ObjectOf(x)
	case *ast.SelectorExpr:
		if s := p.Info.Selections[x]; s != nil && s.Kind() == types.FieldVal {
			return s.Obj()
		}
		return p.Info.Uses[x.Sel]
	}
	return nil
}

// lockEntry records one Lock/RLock call directly inside a function body
// (nested closures keep their own entries).
type lockEntry struct {
	obj types.Object
	pos token.Pos
}

// collectLockCalls lists the Lock/RLock calls lexically inside body,
// excluding nested function literals — a Lock taken by a nested closure
// does not protect the enclosing function's accesses.
func collectLockCalls(p *Package, body *ast.BlockStmt) []lockEntry {
	var locks []lockEntry
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			if obj := lockCall(p, n); obj != nil {
				locks = append(locks, lockEntry{obj, n.Pos()})
			}
		}
		return true
	})
	return locks
}

// checkGuardedAccess applies rule 2 to a field selection.
func checkGuardedAccess(diags []Diagnostic, p *Package, guards guardSet, sel *ast.SelectorExpr, locked map[string]bool, locks []lockEntry) []Diagnostic {
	s := p.Info.Selections[sel]
	if s == nil || s.Kind() != types.FieldVal {
		return diags
	}
	gi := guards[s.Obj()]
	if gi == nil {
		return diags
	}
	return checkGuardUse(diags, p, gi, sel.Pos(), locked, locks)
}

// checkGuardedIdent applies rule 2 to a bare identifier use (package-level
// guarded vars).
func checkGuardedIdent(diags []Diagnostic, p *Package, guards guardSet, id *ast.Ident, locked map[string]bool, locks []lockEntry) []Diagnostic {
	obj := p.Info.Uses[id]
	if obj == nil {
		return diags
	}
	if v, ok := obj.(*types.Var); ok && v.IsField() {
		// A bare identifier resolving to a struct field can only be a
		// composite-literal key (real field accesses are selector
		// expressions, handled in checkGuardedAccess); constructing a fresh
		// value is not an access to live shared state.
		return diags
	}
	gi := guards[obj]
	if gi == nil {
		return diags
	}
	return checkGuardUse(diags, p, gi, id.Pos(), locked, locks)
}

// checkGuardUse validates one use of a guarded object at pos: it needs a
// preceding Lock/RLock of the guard in the same function (or a //twl:locked
// declaration).
func checkGuardUse(diags []Diagnostic, p *Package, gi *guardInfo, pos token.Pos, locked map[string]bool, locks []lockEntry) []Diagnostic {
	if locked[gi.name] {
		return diags
	}
	for _, l := range locks {
		if l.pos < pos && l.obj == gi.guard {
			return diags
		}
	}
	return report(diags, p, concurrencyAnalyzer, pos,
		"%s is annotated //twl:guardedby %s but accessed outside the critical section; lock %s first or mark the enclosing function //twl:locked %s",
		gi.guarded.Name(), gi.name, gi.name, gi.name)
}

// checkGoStmt applies rule 1 to one go statement; fn/body is the enclosing
// function.
func checkGoStmt(diags []Diagnostic, p *Package, g *ast.GoStmt, fn ast.Node, body *ast.BlockStmt) []Diagnostic {
	lit, isLit := ast.Unparen(g.Call.Fun).(*ast.FuncLit)
	if joinedGoroutine(p, g, lit, isLit, fn, body) {
		return diags
	}
	return report(diags, p, concurrencyAnalyzer, g.Pos(),
		"goroutine launched without a reachable join (WaitGroup Done/Wait or a done channel); a leaked goroutine outlives the computation that spawned it")
}

// joinedGoroutine reports whether the go statement has join evidence.
func joinedGoroutine(p *Package, g *ast.GoStmt, lit *ast.FuncLit, isLit bool, fn ast.Node, body *ast.BlockStmt) bool {
	if !isLit {
		// A named function's body is opaque here; accept the spawn when the
		// join handshake is passed in — a channel or *sync.WaitGroup
		// argument — and flag it otherwise.
		for _, arg := range g.Call.Args {
			t := p.Info.TypeOf(arg)
			if t == nil {
				continue
			}
			if _, isChan := t.Underlying().(*types.Chan); isChan {
				return true
			}
			if ptr, ok := t.(*types.Pointer); ok {
				t = ptr.Elem()
			}
			if isSync(t, "WaitGroup") {
				return true
			}
		}
		return false
	}

	joined := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if joined {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			// wg.Done() — the WaitGroup side of a join.
			if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Done" {
				if s := p.Info.Selections[sel]; s != nil {
					if m, ok := s.Obj().(*types.Func); ok && m.Pkg() != nil && m.Pkg().Path() == "sync" {
						if wgObj := lvalueObj(p, sel.X); wgObj != nil {
							if declaredOutside(wgObj, body) || waitsOn(p, body, wgObj) {
								joined = true
							}
						}
					}
				}
			}
			// close(ch) — the done-channel side of a join.
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "close" && len(n.Args) == 1 {
				if obj := p.Info.Uses[id]; obj == types.Universe.Lookup("close") {
					if ch := lvalueObj(p, n.Args[0]); ch != nil {
						if declaredOutside(ch, body) || receivesFrom(p, body, ch) {
							joined = true
						}
					}
				}
			}
		case *ast.SendStmt:
			if ch := lvalueObj(p, n.Chan); ch != nil {
				if declaredOutside(ch, body) || receivesFrom(p, body, ch) {
					joined = true
				}
			}
		}
		return !joined
	})
	return joined
}

// isSync reports whether t is one of the named types of package sync.
func isSync(t types.Type, names ...string) bool {
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != "sync" {
		return false
	}
	return slices.Contains(names, named.Obj().Name())
}

// declaredOutside reports whether obj is declared outside the enclosing
// function body — a parameter, receiver field, or package variable. Such a
// join handle is owned elsewhere; the owner is responsible for waiting.
func declaredOutside(obj types.Object, body *ast.BlockStmt) bool {
	return obj.Pos() < body.Pos() || obj.Pos() >= body.End()
}

// waitsOn reports whether body contains a Wait() call on the same
// WaitGroup object, outside nested function literals other than the
// goroutine's own.
func waitsOn(p *Package, body *ast.BlockStmt, wg types.Object) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Wait" {
			return true
		}
		if s := p.Info.Selections[sel]; s != nil {
			if m, ok := s.Obj().(*types.Func); ok && m.Pkg() != nil && m.Pkg().Path() == "sync" {
				if lvalueObj(p, sel.X) == wg {
					found = true
				}
			}
		}
		return !found
	})
	return found
}

// receivesFrom reports whether body receives from, ranges over, or returns
// the channel object — any of which hands the join to a live consumer.
func receivesFrom(p *Package, body *ast.BlockStmt, ch types.Object) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && lvalueObj(p, n.X) == ch {
				found = true
			}
		case *ast.RangeStmt:
			if lvalueObj(p, n.X) == ch {
				found = true
			}
		case *ast.ReturnStmt:
			for _, r := range n.Results {
				if lvalueObj(p, r) == ch {
					found = true
				}
			}
		}
		return !found
	})
	return found
}
