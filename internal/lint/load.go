package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os/exec"
	"path/filepath"
	"sort"
)

// Package is one type-checked package under analysis: the parsed files, the
// type information, and the metadata the analyzers key their scope rules on.
type Package struct {
	// Path is the import path ("twl/internal/wl/startgap"); fixture packages
	// loaded from a directory get a synthetic path.
	Path string
	// Dir is the directory holding the files.
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// testSupport reports whether file is test infrastructure: _test.go files are
// never loaded, but non-test files that import "testing" (conformance-suite
// helpers like internal/wl/wltest) count as test code for the analyzers that
// only police production paths.
func testSupport(file *ast.File) bool {
	for _, imp := range file.Imports {
		if imp.Path.Value == `"testing"` {
			return true
		}
	}
	return false
}

// Loader parses and type-checks packages. All packages share one FileSet and
// one source importer, so identical imports resolve to identical type
// objects (the importer caches) and cross-package type comparisons work.
// Loading is sequential: the shared importer is not safe for concurrent
// use.
type Loader struct {
	fset *token.FileSet
	imp  types.Importer
}

// NewLoader returns a loader with a fresh FileSet and source importer.
func NewLoader() *Loader {
	fset := token.NewFileSet()
	return &Loader{fset: fset, imp: importer.ForCompiler(fset, "source", nil)}
}

// listedPackage is the subset of `go list -json` output the loader needs.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
}

// list enumerates the non-test packages matching patterns via the go
// command — the module-aware package discovery go/build alone cannot do.
func list(patterns []string) ([]listedPackage, error) {
	args := append([]string{"list", "-json=ImportPath,Dir,GoFiles"}, patterns...)
	cmd := exec.Command("go", args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %v: %v\n%s", patterns, err, stderr.String())
	}
	var pkgs []listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("decoding go list output: %v", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// Load lists, parses and type-checks the packages matching patterns, in a
// deterministic order.
func (l *Loader) Load(patterns []string) ([]*Package, error) {
	metas, err := list(patterns)
	if err != nil {
		return nil, err
	}
	sort.Slice(metas, func(i, j int) bool { return metas[i].ImportPath < metas[j].ImportPath })
	pkgs := make([]*Package, 0, len(metas))
	for _, m := range metas {
		if len(m.GoFiles) == 0 {
			continue
		}
		files := make([]string, len(m.GoFiles))
		for i, f := range m.GoFiles {
			files[i] = filepath.Join(m.Dir, f)
		}
		p, err := l.check(m.ImportPath, m.Dir, files)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// LoadDir parses and type-checks every .go file directly inside dir as one
// package under the synthetic import path. Fixture packages under testdata/
// (invisible to go list by design) load through this path.
func (l *Loader) LoadDir(dir, path string) (*Package, error) {
	names, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		return nil, err
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("no .go files in %s", dir)
	}
	return l.check(path, dir, names)
}

// check parses the named files and runs the type checker over them.
func (l *Loader) check(path, dir string, filenames []string) (*Package, error) {
	files := make([]*ast.File, 0, len(filenames))
	for _, name := range filenames {
		f, err := parser.ParseFile(l.fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("parsing %s: %v", name, err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: l.imp}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %v", path, err)
	}
	return &Package{Path: path, Dir: dir, Fset: l.fset, Files: files, Types: tpkg, Info: info}, nil
}
