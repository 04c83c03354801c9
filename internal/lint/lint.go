// Package lint is the project's static-analysis framework: a driver that
// loads and type-checks packages once (shared FileSet, shared source
// importer), fans the analysis phase out across worker goroutines — one
// package at a time per worker — and merges the findings into a stable
// (package, position) order. cmd/twlint is a thin CLI over this package;
// the analyzers and their golden-fixture tests live here so other tools can
// reuse the same contracts.
//
// The suite machine-checks the contracts the simulator's correctness claims
// rest on but the compiler cannot see (DESIGN.md "Static contracts"):
//
//   - determinism: simulation packages must not read wall clocks
//     (time.Now/time.Since outside internal/clock), draw from the global
//     math/rand source, or leak map iteration order into results.
//   - registry: every internal/wl/<name> package exporting a scheme must
//     register it with wl.Register.
//   - cost: call sites must not silently discard a returned wl.Cost or
//     error in non-test code; dropped costs corrupt Figure 9, dropped
//     errors hide failures.
//   - locks: structs carrying sync or sync/atomic state must not be copied
//     by value, and a field accessed through sync/atomic must not also be
//     accessed as a plain variable.
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
//     done-channel), go-closures must not capture their loop variable, and
//     fields annotated //twl:guardedby must only be touched inside the
//     named lock's critical section (or via the declared atomic methods).
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
	"runtime"
	"sync"
)

// Analyzer is one static-analysis pass. Run sees a single package plus the
// world (cross-package context) and returns its findings; the driver handles
// allowlist filtering, sorting and output. Run must be safe for concurrent
// invocation on distinct packages — the driver analyzes packages in
// parallel, and any analyzer-local mutable state must live inside Run.
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
// every loaded package (the registry analyzer reasons about the whole
// module) and the wl contract types resolved once. It is read-only during
// the parallel analysis phase, except for the allowlist's internally
// synchronized used-entry tracking.
type World struct {
	Pkgs  []*Package
	Allow *Allowlist
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
func NewWorld(l *Loader, pkgs []*Package, allow *Allowlist) (*World, error) {
	wlPkg, err := l.imp.Import(wlPath)
	if err != nil {
		return nil, fmt.Errorf("importing %s: %v", wlPath, err)
	}
	return &World{Pkgs: pkgs, Allow: allow, wl: wlPkg}, nil
}

// Options configures a Run.
type Options struct {
	// Allow is the parsed allowlist; nil grants no exceptions.
	Allow *Allowlist
	// AllowLax disables stale-allowlist reporting (strict is the default):
	// a run over a subset of the module cannot judge whether an entry for
	// an unloaded package is dead.
	AllowLax bool
	// BudgetPath names the committed hotpath allocation-budget file; empty
	// skips the budget phase entirely.
	BudgetPath string
	// UpdateBudget rewrites BudgetPath from the observed escape analysis
	// instead of diffing against it.
	UpdateBudget bool
}

// Run loads the packages matching patterns and applies the full suite —
// the AST analyzers in parallel across packages, then the hotpath
// allocation-budget phase if configured — returning the allowlist-filtered
// findings in stable (package, position) order.
func Run(patterns []string, opts Options) ([]Diagnostic, error) {
	l := NewLoader()
	pkgs, err := l.Load(patterns)
	if err != nil {
		return nil, err
	}
	w, err := NewWorld(l, pkgs, opts.Allow)
	if err != nil {
		return nil, err
	}
	diags := RunAnalyzers(pkgs, w)
	if opts.BudgetPath != "" {
		bd, err := CheckBudget(pkgs, opts.BudgetPath, opts.UpdateBudget)
		if err != nil {
			return nil, err
		}
		diags = append(diags, bd...)
	}
	if !opts.AllowLax {
		loaded := make(map[string]bool, len(pkgs))
		for _, p := range pkgs {
			loaded[p.Path] = true
		}
		diags = append(diags, opts.Allow.Unused(loaded)...)
	}
	sortDiags(diags)
	return diags, nil
}

// RunAnalyzers applies the AST/type-based suite to already-loaded packages,
// analyzing up to GOMAXPROCS packages concurrently. Findings land in a
// per-package slot indexed before the goroutines start, so the merged
// result is independent of scheduling; sortDiags then fixes the final
// order.
func RunAnalyzers(pkgs []*Package, w *World) []Diagnostic {
	perPkg := make([][]Diagnostic, len(pkgs))
	workers := runtime.GOMAXPROCS(0)
	if workers > len(pkgs) {
		workers = len(pkgs)
	}
	if workers <= 1 {
		for i, p := range pkgs {
			perPkg[i] = analyzePackage(p, w)
		}
	} else {
		var (
			wg   sync.WaitGroup
			mu   sync.Mutex
			next int
		)
		grab := func() int {
			mu.Lock()
			defer mu.Unlock()
			i := next
			next++
			return i
		}
		for n := 0; n < workers; n++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := grab()
					if i >= len(pkgs) {
						return
					}
					perPkg[i] = analyzePackage(pkgs[i], w)
				}
			}()
		}
		wg.Wait()
	}
	var diags []Diagnostic
	for _, ds := range perPkg {
		diags = append(diags, ds...)
	}
	sortDiags(diags)
	return diags
}

// analyzePackage applies every analyzer to one package.
func analyzePackage(p *Package, w *World) []Diagnostic {
	var diags []Diagnostic
	for _, a := range Analyzers {
		diags = append(diags, a.Run(p, w)...)
	}
	return diags
}
