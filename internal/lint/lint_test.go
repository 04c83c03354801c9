package lint

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files from current analyzer output")

// fixtures maps each analyzer to its fixture package. The synthetic import
// paths matter: determinism only covers packages under twl/internal/.
var fixtures = []struct {
	analyzer *Analyzer
	dir      string
	path     string
}{
	{determinismAnalyzer, "fixdet", "twl/internal/fixdet"},
	{costAnalyzer, "fixcost", "twl/internal/fixcost"},
	{locksAnalyzer, "fixlocks", "twl/internal/fixlocks"},
	{snapshotAnalyzer, "fixsnap", "twl/internal/fixsnap"},
	{decoratorAnalyzer, "fixdec", "twl/internal/fixdec"},
	{concurrencyAnalyzer, "fixconc", "twl/internal/fixconc"},
	{hotpathAnalyzer, "fixhot", "twl/internal/fixhot"},
}

// loadFixture type-checks one fixture package and builds the analysis world
// around it.
func loadFixture(t *testing.T, l *Loader, dir, path string) (*Package, *World) {
	t.Helper()
	p, err := l.LoadDir(filepath.Join("testdata", "src", dir), path)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWorld(l, []*Package{p})
	if err != nil {
		t.Fatal(err)
	}
	return p, w
}

func render(diags []Diagnostic) string {
	sortDiags(diags)
	var b strings.Builder
	for _, d := range diags {
		b.WriteString(d.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// checkGolden compares got against the golden file, rewriting it first under
// -update.
func checkGolden(t *testing.T, golden, got string) {
	t.Helper()
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("diagnostics diverge from %s:\ngot:\n%swant:\n%s", golden, got, want)
	}
	if got == "" {
		t.Error("fixture produced no findings; the check cannot be proven to fire")
	}
}

// TestAnalyzersMatchGolden proves every analyzer fires on its fixture and
// that the exact set of findings — positions and messages — is pinned by a
// golden file. Run with -update to regenerate after intentional changes.
func TestAnalyzersMatchGolden(t *testing.T) {
	l := NewLoader()
	for _, fx := range fixtures {
		t.Run(fx.analyzer.Name, func(t *testing.T) {
			p, w := loadFixture(t, l, fx.dir, fx.path)
			checkGolden(t, filepath.Join("testdata", fx.dir+".golden"), render(fx.analyzer.Run(p, w)))
		})
	}
}

// TestSortDiagsNumeric pins the (package, position) order twlint prints
// findings in: positions compare by numeric line/column, not string order,
// and package groups stay contiguous whatever order the analyzers reported
// in.
func TestSortDiagsNumeric(t *testing.T) {
	ds := []Diagnostic{
		{Analyzer: "a", Package: "pkg/b", Pos: "x.go:9:2", Message: "m"},
		{Analyzer: "a", Package: "pkg/a", Pos: "x.go:10:1", Message: "m"},
		{Analyzer: "a", Package: "pkg/a", Pos: "x.go:9:30", Message: "m"},
		{Analyzer: "a", Package: "pkg/a", Pos: "x.go:9:4", Message: "m"},
		{Analyzer: "b", Package: "pkg/a", Pos: "x.go:9:4", Message: "m"},
	}
	sortDiags(ds)
	var got []string
	for _, d := range ds {
		got = append(got, d.Package+" "+d.Pos+" "+d.Analyzer)
	}
	want := []string{
		"pkg/a x.go:9:4 a",
		"pkg/a x.go:9:4 b",
		"pkg/a x.go:9:30 a",
		"pkg/a x.go:10:1 a",
		"pkg/b x.go:9:2 a",
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order[%d] = %q, want %q (full: %v)", i, got[i], want[i], got)
		}
	}
}

// TestPrintedAsReplayedPaths: the go command replays a cached compile's
// output with paths relative to the directory of the build that ran it, so
// the hotpath rule must recognize a hot function's file in every form a
// build from another directory prints, without taking a same-named file
// elsewhere for it.
func TestPrintedAsReplayedPaths(t *testing.T) {
	abs := filepath.FromSlash("/m/internal/pcm/pcm.go")
	for _, printed := range []string{"internal/pcm/pcm.go", "../pcm/pcm.go", "../../internal/pcm/pcm.go", "pcm.go", "./pcm.go", "/m/internal/pcm/pcm.go"} {
		if !printedAs(filepath.FromSlash(printed), abs) {
			t.Errorf("printedAs(%q, %q) = false, want true", printed, abs)
		}
	}
	for _, printed := range []string{"../wl/pcm.go", "internal/pcm/x.go", "ternal/pcm/pcm.go", "/n/internal/pcm/pcm.go"} {
		if printedAs(filepath.FromSlash(printed), abs) {
			t.Errorf("printedAs(%q, %q) = true, want false", printed, abs)
		}
	}
}

// TestCleanTree is the self-test the Makefile's lint target relies on: the
// repository's own packages produce zero findings, hot paths included.
func TestCleanTree(t *testing.T) {
	if testing.Short() {
		t.Skip("loads, type-checks and escape-analyzes the whole module")
	}
	diags, err := Run([]string{"twl/..."})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("unexpected finding on clean tree: %v", d)
	}
}
