package schemes

import (
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"twl/internal/wl"
	"twl/internal/wl/wltest"
)

// TestNames pins the table's order: the paper's figures present the
// schemes this way, and perfbench's attack_grid iterates this list.
func TestNames(t *testing.T) {
	want := []string{"BWL", "SR", "TWL_ap", "TWL_swp", "NOWL", "TWL_rand", "WRL", "StartGap", "OD3P", "RBSG", "SR2"}
	if got := Names(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
}

// TestNamesUnique: no two entries share a name or alias, compared the way
// Lookup compares them, so every spelling resolves to one scheme.
func TestNamesUnique(t *testing.T) {
	owner := map[string]string{}
	for _, e := range table {
		for _, key := range append([]string{e.Name}, e.Aliases...) {
			k := strings.ToLower(key)
			if prev, ok := owner[k]; ok {
				t.Errorf("%q of %s is already taken by %s", key, e.Name, prev)
			}
			owner[k] = e.Name
		}
	}
}

// TestBuildEveryEntry: every entry builds a bare scheme (no decorator
// layer) that reports the entry's name.
func TestBuildEveryEntry(t *testing.T) {
	for _, name := range Names() {
		s, err := Build(name, wltest.NewDevice(t, 256, 1), 1)
		if err != nil {
			t.Fatalf("Build(%q): %v", name, err)
		}
		if s.Name() != name {
			t.Errorf("Build(%q).Name() = %q", name, s.Name())
		}
		if _, ok := s.(wl.Unwrapper); ok {
			t.Errorf("Build(%q) returned a decorated scheme", name)
		}
	}
}

// TestTableCoversSchemePackages: every package that declares an exported
// scheme type — one with a WriteRun method — under internal/wl (and the
// TWL engine in internal/core) has a table entry that builds it, so a
// scheme cannot be added, or an entry dropped, without it being reachable
// by name.
func TestTableCoversSchemePackages(t *testing.T) {
	built := map[string]bool{}
	for _, name := range Names() {
		s, err := Build(name, wltest.NewDevice(t, 256, 1), 1)
		if err != nil {
			t.Fatal(err)
		}
		typ := reflect.TypeOf(s)
		if typ.Kind() == reflect.Pointer {
			typ = typ.Elem()
		}
		built[typ.PkgPath()] = true
	}
	dirs, err := filepath.Glob(filepath.Join("..", "wl", "*"))
	if err != nil {
		t.Fatal(err)
	}
	dirs = append(dirs, filepath.Join("..", "core"))
	declared := map[string]bool{}
	for _, dir := range dirs {
		if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
			continue
		}
		scheme := exportedWriteRunType(t, dir)
		if scheme == "" {
			continue
		}
		pkg := "twl/internal/" + filepath.ToSlash(strings.TrimPrefix(dir, ".."+string(filepath.Separator)))
		declared[pkg] = true
		if !built[pkg] {
			t.Errorf("%s declares scheme type %s, but no table entry builds it", pkg, scheme)
		}
	}
	// The converse keeps the source scan honest: a scan that found nothing
	// would pass the check above vacuously.
	for pkg := range built {
		if !declared[pkg] {
			t.Errorf("the table builds a scheme of %s, but the source scan found no scheme type there", pkg)
		}
	}
}

// exportedWriteRunType returns the name of an exported type that the
// non-test files of dir give a WriteRun method, or "" when there is none.
func exportedWriteRunType(t *testing.T, dir string) string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv == nil || fn.Name.Name != "WriteRun" {
				continue
			}
			recv := fn.Recv.List[0].Type
			if star, ok := recv.(*ast.StarExpr); ok {
				recv = star.X
			}
			if id, ok := recv.(*ast.Ident); ok && id.IsExported() {
				return id.Name
			}
		}
	}
	return ""
}

// TestLookup: names and aliases resolve in any case, and the entry handed
// out is a copy.
func TestLookup(t *testing.T) {
	for q, want := range map[string]string{
		"TWL_swp": "TWL_swp", "twl": "TWL_swp", "TWL": "TWL_swp",
		"sg": "StartGap", "Start-Gap": "StartGap", "startgap": "StartGap",
		"sr": "SR", "SR2": "SR2",
	} {
		e, ok := Lookup(q)
		if !ok || e.Name != want {
			t.Errorf("Lookup(%q) = %q, %v; want %q", q, e.Name, ok, want)
		}
	}
	if _, ok := Lookup("no-such-scheme"); ok {
		t.Error("Lookup accepted an unknown name")
	}
	e, _ := Lookup("StartGap")
	e.Aliases[0] = "changed"
	e.Name = "changed"
	if again, _ := Lookup("start-gap"); again.Name != "StartGap" || again.Aliases[0] != "start-gap" {
		t.Errorf("changing a looked-up entry changed the table: %+v", again)
	}
}

// TestBuildErrors: an unknown name wraps ErrUnknownScheme and lists the
// known names; a factory error is wrapped with the canonical name.
func TestBuildErrors(t *testing.T) {
	_, err := Build("bogus", wltest.NewDevice(t, 256, 1), 1)
	if !errors.Is(err, wl.ErrUnknownScheme) || !strings.Contains(err.Error(), "TWL_swp") {
		t.Errorf("unknown name: %v, want ErrUnknownScheme listing the known names", err)
	}
	// The two-level outer remap needs a power-of-two page count.
	_, err = Build("sr2", wltest.NewDevice(t, 300, 1), 1)
	if !errors.Is(err, wl.ErrBadConfig) || !strings.Contains(err.Error(), "building SR2") {
		t.Errorf("factory error: %v, want ErrBadConfig wrapped with the name SR2", err)
	}
}
