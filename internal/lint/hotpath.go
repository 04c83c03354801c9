package lint

import (
	"bufio"
	"bytes"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// hotpathAnalyzer holds every function annotated //twl:hotpath to zero heap
// allocations: a lifetime cell serves 10^8–10^9 writes through these bulk
// paths, so one allocation per call is a measurable slowdown nobody asked
// for. The compiler's escape analysis is the source of truth: NewWorld
// compiles the packages that declare hot functions once with -gcflags=-m,
// and every heap message inside a hot function's line range is a finding.
// Escape analysis reports an inlined callee's allocation at the call line,
// so an allocating helper small enough to inline counts against its hot
// caller; a //go:noinline cold-path helper (wl.Scratch) keeps its make at
// its own line, outside the hot function.
var hotpathAnalyzer = &Analyzer{
	Name: "hotpath",
	Doc:  "functions annotated //twl:hotpath must not heap-allocate",
}

func init() { hotpathAnalyzer.Run = runHotpath }

func runHotpath(p *Package, w *World) []Diagnostic {
	var diags []Diagnostic
	for _, fd := range hotFuncs(p) {
		tf := p.Fset.File(fd.Pos())
		file, err := filepath.Abs(tf.Name())
		if err != nil {
			file = tf.Name()
		}
		start, end := tf.Line(fd.Pos()), tf.Line(fd.End())
		// "(*Device).WriteN": the full name without the package path.
		name := strings.ReplaceAll(p.Info.Defs[fd.Name].(*types.Func).FullName(), p.Types.Path()+".", "")
		for _, e := range w.heap {
			if e.line < start || e.line > end || !printedAs(e.file, file) {
				continue
			}
			diags = report(diags, p, hotpathAnalyzer, tf.LineStart(e.line)+token.Pos(e.col-1),
				"heap allocation in //twl:hotpath function %s: %s; hot paths must not allocate (grow buffers in a //go:noinline helper such as wl.Scratch)",
				name, e.msg)
		}
	}
	return diags
}

// hotFuncs lists the package's //twl:hotpath functions, skipping
// test-support files. Like //go: directives, the marker must start a line
// of the doc comment; prose that merely mentions it does not count.
func hotFuncs(p *Package) []*ast.FuncDecl {
	var hot []*ast.FuncDecl
	for _, f := range p.Files {
		if testSupport(f) {
			continue
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Doc == nil {
				continue
			}
			for _, c := range fd.Doc.List {
				if strings.HasPrefix(c.Text, "//twl:hotpath") {
					hot = append(hot, fd)
					break
				}
			}
		}
	}
	return hot
}

// escapeDiag is one parsed escape-analysis line: an allocation the compiler
// placed on the heap.
type escapeDiag struct {
	file      string // as the go command printed it
	line, col int
	msg       string
}

// heapEscapes compiles the packages that declare //twl:hotpath functions
// with -gcflags=-m, in one go build, and returns the heap-allocation
// messages. The build cache replays the compiler's output for unchanged
// packages, so repeated runs are cheap.
func heapEscapes(pkgs []*Package) ([]escapeDiag, error) {
	var dirs []string
	for _, p := range pkgs {
		if len(hotFuncs(p)) == 0 {
			continue
		}
		dir := p.Dir
		if !filepath.IsAbs(dir) {
			// A bare relative path would be taken as an import path by the
			// go tool; anchor it as a filesystem path.
			dir = "." + string(filepath.Separator) + dir
		}
		dirs = append(dirs, dir)
	}
	if len(dirs) == 0 {
		return nil, nil
	}
	sort.Strings(dirs)
	cmd := exec.Command("go", append([]string{"build", "-gcflags=-m"}, dirs...)...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go build -gcflags=-m: %v\n%s", err, stderr.String())
	}
	var out []escapeDiag
	sc := bufio.NewScanner(&stderr)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		if d, ok := parseEscapeLine(sc.Text()); ok && heapMessage(d.msg) {
			out = append(out, d)
		}
	}
	return out, sc.Err()
}

// heapMessage reports whether an escape-analysis message describes a heap
// allocation (as opposed to inlining decisions, "does not escape" results,
// or parameter leak summaries).
func heapMessage(msg string) bool {
	return strings.HasSuffix(msg, "escapes to heap") || strings.HasPrefix(msg, "moved to heap")
}

// parseEscapeLine splits "file.go:12:34: message".
func parseEscapeLine(line string) (escapeDiag, bool) {
	i := strings.Index(line, ".go:")
	if i < 0 {
		return escapeDiag{}, false
	}
	parts := strings.SplitN(line[i+len(".go:"):], ":", 3)
	if len(parts) != 3 {
		return escapeDiag{}, false
	}
	ln, err1 := strconv.Atoi(parts[0])
	col, err2 := strconv.Atoi(parts[1])
	if err1 != nil || err2 != nil {
		return escapeDiag{}, false
	}
	return escapeDiag{file: line[:i+len(".go")], line: ln, col: col, msg: strings.TrimSpace(parts[2])}, true
}

// printedAs reports whether the go command's path printed names the
// absolute file path abs. The go command shortens paths relative to the
// directory of the build that compiled the package, and its build cache
// replays that text verbatim to builds run from any other directory (after
// `go test ./internal/lint`, a root-level build prints "../pcm/pcm.go"),
// so a relative path is matched by its trailing elements once the leading
// "../" steps are dropped.
func printedAs(printed, abs string) bool {
	rel := filepath.Clean(printed)
	for strings.HasPrefix(rel, ".."+string(filepath.Separator)) {
		rel = rel[len(".."+string(filepath.Separator)):]
	}
	return rel == abs || strings.HasSuffix(abs, string(filepath.Separator)+rel)
}
