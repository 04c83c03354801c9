package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// snapshotAnalyzer enforces the checkpoint-completeness contract
// (DESIGN.md "Checkpoint format"): a type that declares a Snapshot method
// with the wl.Snapshotter shape (func (T) Snapshot(io.Writer) error) is a
// persisted type, and every one of its fields must either be written out by
// Snapshot (directly or through a helper method on the same type) or carry
// a "snap:" comment stating why it is exempt (derived state, construction
// input, state checkpointed by another layer). A field that is neither is
// mutable state the checkpoint silently drops — the resumed run diverges
// from the uninterrupted one in ways the differential tests may only catch
// for the schemes and workloads they happen to cover.
//
// Types that only inherit Snapshot through an embedded field are not
// re-checked: the promoted method cannot see the outer type's fields, so
// the outer type either has no state of its own or must declare its own
// Snapshot.
var snapshotAnalyzer = &Analyzer{
	Name: "snapshot",
	Doc:  "every field of a persisted type must be written by Snapshot or carry a snap: comment",
}

func init() { snapshotAnalyzer.Run = runSnapshot }

func runSnapshot(p *Package, _ *World) []Diagnostic {
	var diags []Diagnostic
	for _, f := range p.Files {
		if testSupport(f) {
			continue
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Name.Name != "Snapshot" || fd.Recv == nil {
				continue
			}
			fn, ok := p.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			sig := fn.Type().(*types.Signature)
			if !snapshotterShape(sig) {
				continue
			}
			recv := sig.Recv().Type()
			if ptr, ok := recv.(*types.Pointer); ok {
				recv = ptr.Elem()
			}
			named, ok := recv.(*types.Named)
			if !ok {
				continue
			}
			st, ok := named.Underlying().(*types.Struct)
			if !ok {
				continue
			}
			covered := fieldsUsedBy(p, named, fd)
			diags = checkPersistedStruct(diags, p, named, st, covered)
		}
	}
	return diags
}

// snapshotterShape matches func(io.Writer) error — the Snapshot half of the
// wl.Snapshotter contract.
func snapshotterShape(sig *types.Signature) bool {
	if sig.Params().Len() != 1 || sig.Results().Len() != 1 {
		return false
	}
	if !types.Identical(sig.Results().At(0).Type(), types.Universe.Lookup("error").Type()) {
		return false
	}
	named, ok := sig.Params().At(0).Type().(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Pkg().Path() == "io" && named.Obj().Name() == "Writer"
}

// fieldsUsedBy collects the struct fields referenced from the Snapshot
// method, following calls into other methods of the same named type (a
// Snapshot split across unexported helpers still counts), and returns them
// keyed by field object.
func fieldsUsedBy(p *Package, named *types.Named, snapshot *ast.FuncDecl) map[types.Object]bool {
	methods := methodDecls(p, named)
	covered := map[types.Object]bool{}
	visited := map[*ast.FuncDecl]bool{}
	queue := []*ast.FuncDecl{snapshot}
	for len(queue) > 0 {
		fd := queue[0]
		queue = queue[1:]
		if fd.Body == nil || visited[fd] {
			continue
		}
		visited[fd] = true
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			s := p.Info.Selections[sel]
			if s == nil {
				return true
			}
			switch s.Kind() {
			case types.FieldVal:
				covered[s.Obj()] = true
			case types.MethodVal, types.MethodExpr:
				if m, ok := methods[s.Obj()]; ok {
					queue = append(queue, m)
				}
			}
			return true
		})
	}
	return covered
}

// methodDecls indexes the package's method declarations whose receiver is
// the given named type, keyed by their types.Func object.
func methodDecls(p *Package, named *types.Named) map[types.Object]*ast.FuncDecl {
	out := map[types.Object]*ast.FuncDecl{}
	for _, f := range p.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Recv == nil {
				continue
			}
			fn, ok := p.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			recv := fn.Type().(*types.Signature).Recv().Type()
			if ptr, ok := recv.(*types.Pointer); ok {
				recv = ptr.Elem()
			}
			if r, ok := recv.(*types.Named); ok && r.Obj() == named.Obj() {
				out[fn] = fd
			}
		}
	}
	return out
}

// checkPersistedStruct walks the struct declaration's fields in source form
// (the comments live on the AST) and reports every field that is neither
// covered by Snapshot nor annotated with a snap: comment.
func checkPersistedStruct(diags []Diagnostic, p *Package, named *types.Named, st *types.Struct, covered map[types.Object]bool) []Diagnostic {
	astStruct := structDecl(p, named)
	if astStruct == nil {
		return diags // declared via a type alias or in another package
	}
	i := 0 // flattened field index, aligned with st.Field ordering
	for _, fld := range astStruct.Fields.List {
		n := len(fld.Names)
		if n == 0 {
			n = 1 // embedded field
		}
		for j := 0; j < n; j++ {
			if i >= st.NumFields() {
				return diags
			}
			obj := st.Field(i)
			i++
			if covered[obj] || snapExempt(fld) {
				continue
			}
			diags = report(diags, p, snapshotAnalyzer, obj.Pos(),
				"field %s of persisted type %s is neither written by Snapshot nor marked with a snap: comment; its state is silently dropped on checkpoint", obj.Name(), named.Obj().Name())
		}
	}
	return diags
}

// structDecl finds the *ast.StructType of the named type's declaration in p.
func structDecl(p *Package, named *types.Named) *ast.StructType {
	pos := named.Obj().Pos()
	for _, f := range p.Files {
		if pos < f.Pos() || pos >= f.End() {
			continue
		}
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok || ts.Name.Pos() != pos {
					continue
				}
				st, _ := ts.Type.(*ast.StructType)
				return st
			}
		}
	}
	return nil
}

// snapExempt reports whether the field declaration carries a snap: comment
// (doc comment or trailing line comment) sanctioning its exclusion from the
// checkpoint.
func snapExempt(fld *ast.Field) bool {
	for _, cg := range []*ast.CommentGroup{fld.Doc, fld.Comment} {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			if strings.Contains(c.Text, "snap:") {
				return true
			}
		}
	}
	return false
}
