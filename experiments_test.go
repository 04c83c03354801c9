package twl

import (
	"math"
	"testing"

	"twl/internal/sim"
	"twl/internal/wl"
)

// The experiment tests run at SmallSystem scale so the whole suite stays
// fast; they assert the qualitative shapes the paper reports (who wins,
// what collapses), while EXPERIMENTS.md records the DefaultSystem numbers.
// SmallSystem's endurance sits on the rising part of the lifetime-vs-
// endurance curve (TWL_swp × inconsistent reads 0.650 there and 0.839 at
// 10× endurance), so the TestRunFig*Shapes tests check orderings only, not
// values. TestDefaultSystemOnFlatCurve checks that DefaultSystem, where the
// headline numbers come from, sits where that curve has flattened.

func TestRunTable2ShapeAndCalibration(t *testing.T) {
	rows, err := RunTable2(SmallSystem(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 13 {
		t.Fatalf("%d rows, want 13", len(rows))
	}
	for _, r := range rows {
		// Computed ideal lifetime must match the paper's within 10%
		// (streamcluster's reported bandwidth is coarsely rounded).
		if math.Abs(r.IdealYears-r.PaperIdealYears)/r.PaperIdealYears > 0.10 {
			t.Errorf("%s: ideal %v vs paper %v", r.Benchmark, r.IdealYears, r.PaperIdealYears)
		}
		// Simulated NOWL lifetime must match the paper's within 2× (the
		// trace calibration targets it; finite-size effects add noise).
		if r.NoWLYears < r.PaperNoWLYears/2 || r.NoWLYears > r.PaperNoWLYears*2 {
			t.Errorf("%s: NoWL %v vs paper %v", r.Benchmark, r.NoWLYears, r.PaperNoWLYears)
		}
	}
}

// TestDefaultSystemOnFlatCurve: at DefaultSystem, TWL_swp × inconsistent
// (0.762) lands within 0.05 of the same cell at 10× endurance (0.789), so
// the Figure 6 headline reflects the scheme rather than the endurance
// scaling.
func TestDefaultSystemOnFlatCurve(t *testing.T) {
	sys := DefaultSystem(1)
	base, err := RunAttackCell(sys, "TWL_swp", AttackInconsistent, LifetimeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	sys.MeanEndurance *= 10
	high, err := RunAttackCell(sys, "TWL_swp", AttackInconsistent, LifetimeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if d := math.Abs(high.Normalized - base.Normalized); d > 0.05 {
		t.Errorf("normalized lifetime %.4f at DefaultSystem, %.4f at 10x endurance: differs by %.4f > 0.05",
			base.Normalized, high.Normalized, d)
	}
}

func TestRunFig6Shapes(t *testing.T) {
	res, err := RunFig6(SmallSystem(1), DefaultFig6Config())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.IdealYears-6.6)/6.6 > 0.05 {
		t.Fatalf("ideal years %v, want ~6.6 (Section 5.2)", res.IdealYears)
	}
	cell := func(scheme, mode string) float64 { return res.Cells[scheme][mode].Normalized }

	// NOWL dies almost immediately under the repeat attack.
	if v := cell("NOWL", "repeat"); v > 0.01 {
		t.Errorf("NOWL repeat normalized %v, want ~0 (worn out quickly)", v)
	}
	// BWL collapses under the inconsistent attack: far below its own other
	// attacks and far below SR's inconsistent cell (the paper's headline).
	bwlInc := cell("BWL", "inconsistent")
	if bwlInc > 0.5*cell("BWL", "scan") {
		t.Errorf("BWL inconsistent %v not far below its scan %v", bwlInc, cell("BWL", "scan"))
	}
	if bwlInc > 0.5*cell("SR", "inconsistent") {
		t.Errorf("BWL inconsistent %v not far below SR's %v", bwlInc, cell("SR", "inconsistent"))
	}
	// TWL_swp is immune: its inconsistent lifetime is on par with its other
	// attacks (within 30%) and above SR's.
	twlInc := cell("TWL_swp", "inconsistent")
	if twlInc < 0.7*cell("TWL_swp", "random") {
		t.Errorf("TWL_swp inconsistent %v far below its random %v; not attack-immune",
			twlInc, cell("TWL_swp", "random"))
	}
	if twlInc <= cell("SR", "inconsistent") {
		t.Errorf("TWL_swp inconsistent %v not above SR %v", twlInc, cell("SR", "inconsistent"))
	}
	// Gmean ordering: TWL_swp best; TWL_swp ≥ TWL_ap (SWP improvement);
	// both TWL variants above SR and NOWL.
	if res.Gmean["TWL_swp"] < res.Gmean["TWL_ap"] {
		t.Errorf("TWL_swp gmean %v below TWL_ap %v", res.Gmean["TWL_swp"], res.Gmean["TWL_ap"])
	}
	for _, other := range []string{"BWL", "SR", "NOWL"} {
		if res.Gmean["TWL_swp"] <= res.Gmean[other] {
			t.Errorf("TWL_swp gmean %v not above %s %v", res.Gmean["TWL_swp"], other, res.Gmean[other])
		}
	}
	// TWL_swp clears the 3-year server-replacement floor under every attack.
	for _, m := range res.Modes {
		if y := res.Cells["TWL_swp"][m.String()].Years; y < MinimumLifetimeYears {
			t.Errorf("TWL_swp %s lifetime %vy below the 3-year floor", m, y)
		}
	}
}

func TestRunFig7Shapes(t *testing.T) {
	cfg := Fig7Config{
		Intervals:            []int{1, 4, 32, 128},
		RequestsPerBenchmark: 60000,
		Benchmarks:           []string{"canneal", "vips", "streamcluster"},
		BandwidthBytesPerSec: Fig6AttackBandwidth,
	}
	pts, err := RunFig7(SmallSystem(1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 4 {
		t.Fatalf("%d points, want 4", len(pts))
	}
	// Panel (a): swap/write ratio decreases roughly in proportion to the
	// interval; near 1/2 at interval 1 (Case 1/4 of the model).
	if pts[0].SwapWriteRatio < 0.3 || pts[0].SwapWriteRatio > 0.55 {
		t.Errorf("ratio at interval 1 = %v, want ~0.5", pts[0].SwapWriteRatio)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].SwapWriteRatio >= pts[i-1].SwapWriteRatio {
			t.Errorf("ratio not decreasing: %v", pts)
		}
	}
	// At interval 32 the extra writes are in the low single digits of a
	// percent (paper: ~2.2%).
	if pts[2].SwapWriteRatio > 0.05 {
		t.Errorf("ratio at interval 32 = %v, want a few percent", pts[2].SwapWriteRatio)
	}
	// Panel (b): every interval's scan lifetime is positive and the chosen
	// interval (32) meets the 3-year requirement.
	for _, p := range pts {
		if p.ScanLifetimeYears <= 0 {
			t.Errorf("interval %d: non-positive lifetime", p.Interval)
		}
	}
	if pts[2].ScanLifetimeYears < MinimumLifetimeYears {
		t.Errorf("interval 32 scan lifetime %v below 3-year floor", pts[2].ScanLifetimeYears)
	}
}

func TestRunFig8Shapes(t *testing.T) {
	cfg := Fig8Config{
		Schemes:    []string{"BWL", "SR", "TWL_swp", "NOWL"},
		Benchmarks: []string{"canneal", "vips"},
	}
	res, err := RunFig8(SmallSystem(1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("%d rows", len(res.Rows))
	}
	// The PV-aware schemes clearly beat SR; SR clearly beats NOWL; SR sits
	// in the uniform-leveling band (weakest-page bound).
	if res.Mean["TWL_swp"] <= res.Mean["SR"] || res.Mean["BWL"] <= res.Mean["SR"] {
		t.Errorf("PV-aware means %v/%v not above SR %v",
			res.Mean["TWL_swp"], res.Mean["BWL"], res.Mean["SR"])
	}
	if res.Mean["SR"] < 0.3 || res.Mean["SR"] > 0.65 {
		t.Errorf("SR mean %v outside the uniform-leveling band", res.Mean["SR"])
	}
	if res.Mean["NOWL"] > 0.1 {
		t.Errorf("NOWL mean %v, want ~0.04", res.Mean["NOWL"])
	}
	if res.Mean["TWL_swp"] < 0.5 {
		t.Errorf("TWL mean %v, want the high-lifetime band", res.Mean["TWL_swp"])
	}
}

func TestRunFig9Shapes(t *testing.T) {
	cfg := Fig9Config{
		Schemes:    []string{"BWL", "SR", "TWL_swp"},
		Benchmarks: []string{"canneal", "vips", "streamcluster"},
		Requests:   150000,
	}
	res, err := RunFig9(SmallSystem(1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		for s, v := range row.Normalized {
			if v < 1 || v > 1.2 {
				t.Errorf("%s/%s normalized time %v outside [1, 1.2]", row.Benchmark, s, v)
			}
		}
	}
	// BWL pays the most (per-write filter probes); TWL and SR are small.
	if res.Mean["BWL"] <= res.Mean["TWL_swp"] {
		t.Errorf("BWL overhead %v not above TWL %v", res.Mean["BWL"], res.Mean["TWL_swp"])
	}
	if res.Mean["TWL_swp"] > 1.05 {
		t.Errorf("TWL overhead %v above 5%%; paper reports ~1.9%%", res.Mean["TWL_swp"])
	}
	// vips (most memory-bound) shows the largest TWL overhead (paper: 2.7%).
	var vips, sc float64
	for _, row := range res.Rows {
		switch row.Benchmark {
		case "vips":
			vips = row.Normalized["TWL_swp"]
		case "streamcluster":
			sc = row.Normalized["TWL_swp"]
		}
	}
	if vips <= sc {
		t.Errorf("TWL overhead on vips %v not above streamcluster %v", vips, sc)
	}
}

func TestHardwareCostMatchesSection54(t *testing.T) {
	hc := HardwareCost()
	if hc.TotalBits != 80 {
		t.Errorf("total bits %d, want 80", hc.TotalBits)
	}
	if math.Abs(hc.StorageRatio-80.0/32768) > 1e-12 {
		t.Errorf("storage ratio %v, want 80/32768", hc.StorageRatio)
	}
	if hc.Logic.TotalGates != 840 {
		t.Errorf("gates %d, want 840", hc.Logic.TotalGates)
	}
}

func TestExperimentConfigValidation(t *testing.T) {
	sys := SmallSystem(1)
	if _, err := RunFig6(sys, Fig6Config{}); err == nil {
		t.Error("empty Fig6Config accepted")
	}
	if _, err := RunFig7(sys, Fig7Config{Intervals: []int{1}}); err == nil {
		t.Error("Fig7Config without requests accepted")
	}
	if _, err := RunFig8(sys, Fig8Config{}); err == nil {
		t.Error("empty Fig8Config accepted")
	}
	if _, err := RunFig9(sys, Fig9Config{Schemes: []string{"SR"}}); err == nil {
		t.Error("Fig9Config without requests accepted")
	}
}

func TestExperimentsDeterministic(t *testing.T) {
	sys := SmallSystem(42)
	cfg := Fig6Config{
		Schemes:              []string{"TWL_swp"},
		Modes:                []AttackMode{AttackInconsistent},
		BandwidthBytesPerSec: Fig6AttackBandwidth,
	}
	a, err := RunFig6(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunFig6(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	va := a.Cells["TWL_swp"]["inconsistent"].Normalized
	vb := b.Cells["TWL_swp"]["inconsistent"].Normalized
	if va != vb {
		t.Fatalf("same seed produced %v then %v", va, vb)
	}
}

func TestRunRetirementExtendsLifetime(t *testing.T) {
	sys := SmallSystem(3)
	sys.MeanEndurance = 2000 // keep the run-to-exhaustion fast
	res, err := RunRetirement(sys, DefaultRetirementConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Scheme != "TWL_swp" || res.Mode != AttackInconsistent {
		t.Fatalf("unexpected cell %s/%v", res.Scheme, res.Mode)
	}
	// The spare pool must carry the run past the first failure...
	if res.Result.RetiredPages == 0 {
		t.Fatal("no pages retired")
	}
	if res.FirstFailureWrites == 0 || res.Result.DemandWrites <= res.FirstFailureWrites {
		t.Fatalf("no extension: first failure at %d, final %d",
			res.FirstFailureWrites, res.Result.DemandWrites)
	}
	if res.ExtensionRatio <= 1 {
		t.Fatalf("ExtensionRatio = %v, want > 1", res.ExtensionRatio)
	}
	if res.FinalYears <= res.FirstFailureYears {
		t.Fatalf("years did not extend: %v -> %v", res.FirstFailureYears, res.FinalYears)
	}
	// ...and the run must end by capacity exhaustion, not the demand cap.
	if res.Result.Capped {
		t.Fatal("run hit the demand cap instead of exhausting capacity")
	}
	if res.Result.FailCause != ErrCapacityExhausted {
		t.Fatalf("FailCause = %v, want ErrCapacityExhausted", res.Result.FailCause)
	}
	// Curve sanity: one point per retirement, monotone in demand writes.
	if len(res.Curve) != res.Result.RetiredPages {
		t.Fatalf("curve has %d points, %d pages retired", len(res.Curve), res.Result.RetiredPages)
	}
	for i := 1; i < len(res.Curve); i++ {
		if res.Curve[i].DemandWrites < res.Curve[i-1].DemandWrites {
			t.Fatalf("curve not monotone at %d", i)
		}
	}
	if res.MeanGapWrites <= 0 {
		t.Fatalf("MeanGapWrites = %v", res.MeanGapWrites)
	}
	// 3% of 512 pages = 15 spares -> plenty of gaps for the accel estimate.
	if len(res.Curve) >= 4 && res.Accel == 0 {
		t.Fatal("Accel not computed despite enough retirement events")
	}
}

func TestRunRetirementDeterministic(t *testing.T) {
	sys := SmallSystem(9)
	sys.MeanEndurance = 2000
	cfg := DefaultRetirementConfig()
	a, err := RunRetirement(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunRetirement(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Result != b.Result || a.ExtensionRatio != b.ExtensionRatio || a.Accel != b.Accel {
		t.Fatal("same config produced different results")
	}
	if len(a.Curve) != len(b.Curve) {
		t.Fatal("curve lengths differ")
	}
}

func TestRunRetirementCapacityThreshold(t *testing.T) {
	sys := SmallSystem(5)
	sys.MeanEndurance = 2000
	cfg := DefaultRetirementConfig()
	cfg.SpareFraction = 0.05
	cfg.CapacityThreshold = 0.004 // 512 pages -> limit 2 retirements
	res, err := RunRetirement(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Result.RetiredPages > 2 {
		t.Fatalf("retired %d pages, threshold allows 2", res.Result.RetiredPages)
	}
	if res.Result.FailCause != ErrCapacityExhausted {
		t.Fatalf("FailCause = %v, want ErrCapacityExhausted", res.Result.FailCause)
	}
	// The threshold, not the pool, ended the run: spares remain.
	if res.Result.SparesUsed >= res.Result.SparePages {
		t.Fatalf("spares used %d of %d; expected threshold to bind first",
			res.Result.SparesUsed, res.Result.SparePages)
	}
}

// addrCheck records the largest logical address written through it. It
// exposes only the Scheme methods, so the simulator serves every write
// through Write.
type addrCheck struct {
	Scheme
	max int
}

func (a *addrCheck) Write(la int, tag uint64) Cost {
	a.max = max(a.max, la)
	return a.Scheme.Write(la, tag)
}

// TestBenchCellSizedToLogicalPages: a PARSEC cell's workload spans the
// scheme's logical pages, not the device's. RBSG and StartGap serve fewer
// logical pages than the device has; a workload over sys.Pages sent RBSG
// past its region table and StartGap onto a page it does not have.
func TestBenchCellSizedToLogicalPages(t *testing.T) {
	// At seed 3 every PARSEC workload sized to 512 pages writes page 511.
	sys := SmallSystem(3)
	for _, scheme := range []string{"RBSG", "StartGap"} {
		res, err := RunBenchCell(sys, scheme, "canneal", LifetimeConfig{})
		if err != nil {
			t.Fatalf("%s x canneal: %v", scheme, err)
		}
		if res.DemandWrites == 0 || res.Capped {
			t.Errorf("%s x canneal: %+v, want a run to first failure", scheme, res)
		}
	}
	s, src, err := NewBenchCell(sys, "StartGap", "canneal")
	if err != nil {
		t.Fatal(err)
	}
	chk := &addrCheck{Scheme: s}
	if _, err := sim.RunLifetime(chk, src, sim.LifetimeConfig{MaxDemandWrites: 200000}); err != nil {
		t.Fatal(err)
	}
	if limit := wl.LogicalPages(s); chk.max >= limit {
		t.Errorf("StartGap saw logical address %d, has %d logical pages", chk.max, limit)
	}
}
