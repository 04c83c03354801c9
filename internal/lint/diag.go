package lint

import (
	"fmt"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Diagnostic is one finding: which analyzer fired, in which package, where,
// and why.
type Diagnostic struct {
	Analyzer string `json:"analyzer"`
	Package  string `json:"package"`
	Pos      string `json:"pos"` // file:line:col
	Message  string `json:"message"`
}

// String renders the go-vet-style "pos: [analyzer] message" line.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Analyzer, d.Message)
}

// newDiag builds a Diagnostic at pos, shortening absolute paths to be
// relative to the working directory so golden files and CI logs are stable.
func newDiag(fset *token.FileSet, pos token.Pos, pkgPath, analyzer, format string, args ...any) Diagnostic {
	p := fset.Position(pos)
	return Diagnostic{
		Analyzer: analyzer,
		Package:  pkgPath,
		Pos:      fmt.Sprintf("%s:%d:%d", relPath(p.Filename), p.Line, p.Column),
		Message:  fmt.Sprintf(format, args...),
	}
}

// relPath shortens an absolute file path to be relative to the working
// directory when it sits beneath it.
func relPath(name string) string {
	wd, err := os.Getwd()
	if err != nil {
		return name
	}
	rel, err := filepath.Rel(wd, name)
	if err != nil || strings.HasPrefix(rel, "..") {
		return name
	}
	return rel
}

// posKey is the numeric decomposition of a "file:line:col" position, so
// diagnostics sort by real line numbers instead of lexicographically
// (where "x.go:10" would sort before "x.go:9").
type posKey struct {
	file      string
	line, col int
}

func parsePos(pos string) posKey {
	k := posKey{file: pos}
	rest := pos
	if i := strings.LastIndexByte(rest, ':'); i >= 0 {
		if col, err := strconv.Atoi(rest[i+1:]); err == nil {
			k.col = col
			rest = rest[:i]
			if j := strings.LastIndexByte(rest, ':'); j >= 0 {
				if line, err := strconv.Atoi(rest[j+1:]); err == nil {
					k.line = line
					rest = rest[:j]
				}
			}
			k.file = rest
		}
	}
	return k
}

// less orders two position keys by (file, line, col).
func (k posKey) less(o posKey) bool {
	if k.file != o.file {
		return k.file < o.file
	}
	if k.line != o.line {
		return k.line < o.line
	}
	return k.col < o.col
}

// sortDiags orders findings by (package, position, analyzer, message) — the
// stable order the CLI, the JSON mode and the golden fixtures all rely on.
// Findings arrive package by package and analyzer by analyzer, the budget
// phase's last; this sort is what makes `twlint -json` output
// position-ordered.
func sortDiags(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		if ds[i].Package != ds[j].Package {
			return ds[i].Package < ds[j].Package
		}
		ki, kj := parsePos(ds[i].Pos), parsePos(ds[j].Pos)
		if ki != kj {
			return ki.less(kj)
		}
		if ds[i].Analyzer != ds[j].Analyzer {
			return ds[i].Analyzer < ds[j].Analyzer
		}
		return ds[i].Message < ds[j].Message
	})
}
