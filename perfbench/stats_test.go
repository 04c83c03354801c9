package main

import (
	"errors"
	"math"
	"testing"

	"twl"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	for _, tc := range []struct {
		p    float64
		want float64
	}{
		{0.01, 1}, {0.1, 1}, {0.5, 5}, {0.9, 9}, {0.95, 10}, {1, 10},
	} {
		if got := percentile(xs, tc.p); got != tc.want {
			t.Errorf("percentile(1..10, %g) = %g, want %g", tc.p, got, tc.want)
		}
	}
	if xs[0] != 10 {
		t.Error("percentile sorted its input in place")
	}
	if got := median([]float64{3}); got != 3 {
		t.Errorf("median of one sample = %g", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no samples is not NaN")
	}
}

// A partial last round runs some cells twice; each cell still counts once,
// at its mean, so the cost is that of one round.
func TestGridCostCountsEachCellOnce(t *testing.T) {
	first := []cellOutcome{
		{res: twl.LifetimeResult{DemandWrites: 100}},
		{res: twl.LifetimeResult{DemandWrites: 300}},
		{err: errors.New("panic")},
		{res: twl.LifetimeResult{DemandWrites: 50}, err: mismatchf("did not repeat")},
	}
	costs := []cellCost{
		{wall: 3000, user: 2000, runs: 2}, // ran twice: mean 1500 / 1000
		{wall: 900, user: 600, runs: 1},
		{},
		{wall: 70, user: 70, runs: 1},
	}
	wall, user, writes, done := gridCost(first, costs)
	if wall != 2400 || user != 1600 || writes != 400 || done != 2 {
		t.Errorf("gridCost = wall %g, user %g, writes %d, done %d; want 2400, 1600, 400, 2", wall, user, writes, done)
	}
}

func TestTailSampleCounts(t *testing.T) {
	for _, tc := range []struct {
		n    int
		p    float64
		tail int
		ok   bool
	}{
		{200, 0.95, 10, true},
		{199, 0.95, 9, false},
		{240, 0.95, 12, true},
		{20, 0.5, 10, true},
		{19, 0.5, 9, false},
		{1, 0.95, 0, false},
	} {
		if got := tailSamples(tc.n, tc.p); got != tc.tail {
			t.Errorf("tailSamples(%d, %g) = %d, want %d", tc.n, tc.p, got, tc.tail)
		}
		if err := checkTail(tc.n, tc.p); (err == nil) != tc.ok {
			t.Errorf("checkTail(%d, %g) = %v, want ok=%v", tc.n, tc.p, err, tc.ok)
		}
	}
	// The single-cell phase's sample count supports its p95.
	if err := checkTail(hitSamples, 0.95); err != nil {
		t.Errorf("hitSamples: %v", err)
	}
}

func TestTallyCountsEachOutcomeOnce(t *testing.T) {
	var tl tally
	tl.record("ok", guard(func() error { return nil }))
	tl.record("panics", guard(func() error { panic("index out of range") }))
	tl.record("errors", guard(func() error { return errors.New("bad config") }))
	tl.record("wrong", guard(func() error { return mismatchf("got 1, want 2") }))
	if tl.attempted != 4 || tl.failed != 3 || tl.mismatched != 1 {
		t.Fatalf("attempted %d failed %d mismatched %d, want 4 3 1", tl.attempted, tl.failed, tl.mismatched)
	}
	if got := tl.share(); got != 0.75 {
		t.Errorf("failed_share = %g, want 0.75", got)
	}
	if len(tl.notes) != 3 {
		t.Errorf("%d failure notes, want 3", len(tl.notes))
	}
	var empty tally
	if empty.share() != 0 {
		t.Error("share of nothing attempted is not 0")
	}
}

func TestGuardRecoversPanicAsOneError(t *testing.T) {
	calls := 0
	err := guard(func() error {
		calls++
		var s []int
		_ = s[3]
		return nil
	})
	if err == nil || calls != 1 {
		t.Fatalf("guard = %v after %d calls, want one recovered panic", err, calls)
	}
	var m *mismatchError
	if errors.As(err, &m) {
		t.Error("a panic was classified as a wrong result")
	}
}

func TestGridKeepsEveryCell(t *testing.T) {
	cfg, err := loadConfig("attack_grid")
	if err != nil {
		t.Fatal(err)
	}
	cells := gridCells("attack_grid", cfg)
	if want := 4 * 11; len(cells) != want {
		t.Fatalf("attack_grid has %d cells, want %d", len(cells), want)
	}
	seen := map[string]bool{}
	for _, c := range cells {
		seen[c.name] = true
	}
	for _, name := range []string{"RBSG/random", "RBSG/scan", "TWL_swp/inconsistent"} {
		if !seen[name] {
			t.Errorf("attack_grid lacks %s", name)
		}
	}
	pcfg, err := loadConfig("parsec_grid")
	if err != nil {
		t.Fatal(err)
	}
	if got := len(gridCells("parsec_grid", pcfg)); got != 4*13 {
		t.Errorf("parsec_grid has %d cells, want 52", got)
	}
}
