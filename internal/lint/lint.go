// Package lint is the project's static-analysis framework: a driver that
// loads and type-checks packages once (shared FileSet, shared source
// importer), runs every analyzer over each package in one sequential pass,
// and sorts the findings into a stable (package, position) order.
// cmd/twlint is a thin CLI over this package; the analyzers and their
// golden-fixture tests live here so other tools can reuse the same
// contracts.
//
// The suite machine-checks the contracts the simulator's correctness claims
// rest on but neither the compiler nor go vet can see (DESIGN.md "Static
// contracts"). There is no exception file: a finding is cleared by changing
// the code or the analyzer.
//
//   - determinism: simulation packages must not read wall clocks
//     (time.Now/time.Since outside internal/clock), draw from the global
//     math/rand source, or leak map iteration order into results.
//   - registry: every internal/wl/<name> package exporting a scheme must
//     register it with wl.Register.
//   - cost: call sites must not silently discard a returned wl.Cost or
//     error in non-test code; dropped costs corrupt Figure 9, dropped
//     errors hide failures.
//   - locks: no sync/atomic package-level function calls and no
//     atomic.Value — shared state lives in the typed atomics, whose
//     by-value copies go vet's copylocks already reports.
//   - snapshot: every field of a type declaring a Snapshot(io.Writer) error
//     method must be written by Snapshot (checkpointed) or carry a snap:
//     comment explaining its exemption — unpersisted mutable state breaks
//     the bit-identical-resume guarantee.
//   - decorator: a named struct type embedding the wl.Scheme interface that
//     declares its own Write must declare CheckInvariants, Snapshot,
//     Restore, WriteRun and WriteSweep itself, and ReadN if it declares
//     Read — otherwise the embedded scheme's promoted methods serve those
//     paths without the decorator's interception.
//   - concurrency: goroutines must have a reachable join (WaitGroup,
//     done-channel), and fields annotated //twl:guardedby must only be
//     touched inside the named lock's critical section (or via the declared
//     atomic methods).
//   - hotpath: functions annotated //twl:hotpath have their escape-analysis
//     output (go build -gcflags=-m) diffed against the committed
//     twlint.budget file — a new heap allocation in a hot path is a lint
//     failure, not a silent performance regression.
//
// Built entirely on the stdlib go/ast, go/parser, go/token and go/types
// packages (module policy: no external dependencies).
package lint

import (
	"fmt"
	"go/types"
)

// Analyzer is one static-analysis pass. Run sees a single package plus the
// world (cross-package context) and returns its findings; the driver handles
// sorting and output.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(p *Package, w *World) []Diagnostic
}

// Analyzers is the full AST/type-based suite in the order DESIGN.md
// documents them. The hotpath allocation-budget check is not listed here:
// it is driven by the compiler's escape analysis, not the type-checked AST,
// and runs as a separate phase (see CheckBudget).
var Analyzers = []*Analyzer{
	determinismAnalyzer,
	registryAnalyzer,
	costAnalyzer,
	locksAnalyzer,
	snapshotAnalyzer,
	decoratorAnalyzer,
	concurrencyAnalyzer,
}

// World is the cross-package context shared by all analyzers over one run:
// the wl contract types, resolved once.
type World struct {
	// wl is the wl package as seen by importers. Packages other than wl
	// itself resolve wl types through the shared importer, so identity
	// comparisons against these hold.
	wl *types.Package
}

// wlContract resolves the wl package's contract types from the viewpoint of
// p: the wl package's own declarations when p IS twl/internal/wl (its
// self-checked types differ from the imported ones), the shared imported
// package otherwise.
func (w *World) wlContract(p *Package) *types.Package {
	if p.Types.Path() == wlPath {
		return p.Types
	}
	return w.wl
}

const wlPath = "twl/internal/wl"

// NewWorld resolves the cross-package context: the imported view of the wl
// contract package. Fixture runs that never touch wl-dependent analyzers
// still resolve it — the module always contains it.
func NewWorld(l *Loader) (*World, error) {
	wlPkg, err := l.imp.Import(wlPath)
	if err != nil {
		return nil, fmt.Errorf("importing %s: %v", wlPath, err)
	}
	return &World{wl: wlPkg}, nil
}

// Options configures a Run.
type Options struct {
	// BudgetPath names the committed hotpath allocation-budget file; empty
	// skips the budget phase entirely.
	BudgetPath string
	// UpdateBudget rewrites BudgetPath from the observed escape analysis
	// instead of diffing against it.
	UpdateBudget bool
}

// Run loads the packages matching patterns and applies the full suite —
// every AST analyzer to each package in turn, then the hotpath
// allocation-budget phase if configured — returning the findings in stable
// (package, position) order.
func Run(patterns []string, opts Options) ([]Diagnostic, error) {
	l := NewLoader()
	pkgs, err := l.Load(patterns)
	if err != nil {
		return nil, err
	}
	w, err := NewWorld(l)
	if err != nil {
		return nil, err
	}
	var diags []Diagnostic
	for _, p := range pkgs {
		for _, a := range Analyzers {
			diags = append(diags, a.Run(p, w)...)
		}
	}
	if opts.BudgetPath != "" {
		bd, err := CheckBudget(pkgs, opts.BudgetPath, opts.UpdateBudget)
		if err != nil {
			return nil, err
		}
		diags = append(diags, bd...)
	}
	sortDiags(diags)
	return diags, nil
}
