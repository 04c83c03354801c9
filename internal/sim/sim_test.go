package sim

import (
	"errors"
	"math"
	"testing"

	"twl/internal/attack"
	"twl/internal/core"
	"twl/internal/obs"
	"twl/internal/pcm"
	"twl/internal/trace"
	"twl/internal/wl"
	"twl/internal/wl/nowl"
	"twl/internal/wl/wltest"
)

// readRunSource reports a run of reads, which no bulk source may do.
type readRunSource struct{}

func (readRunSource) Next(attack.Feedback) (int, bool)         { return 0, false }
func (readRunSource) NextRun(attack.Feedback) (int, bool, int) { return 0, false, 1 }

func TestReadRunRejected(t *testing.T) {
	s := nowl.New(wltest.NewDevice(t, 64, 1))
	if _, err := RunLifetime(s, readRunSource{}, LifetimeConfig{}); !errors.Is(err, errReadRun) {
		t.Fatalf("err = %v, want errReadRun", err)
	}
}

func TestRunLifetimeNOWLRepeat(t *testing.T) {
	// NOWL under repeat attack dies after exactly the target page's
	// endurance, normalized = E_page / ΣE.
	dev := wltest.NewDeviceEndurance(t, 64, 5000, 1)
	s := nowl.New(dev)
	st, err := attack.New(attack.DefaultConfig(attack.Repeat, 64, 1))
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunLifetime(s, FromAttack(st), LifetimeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Capped {
		t.Fatal("repeat attack on NOWL did not kill the device")
	}
	if res.FailedPage != 0 {
		t.Fatalf("failed page %d, want 0 (repeat target)", res.FailedPage)
	}
	if res.DemandWrites != dev.Endurance(0) {
		t.Fatalf("died after %d writes, endurance is %d", res.DemandWrites, dev.Endurance(0))
	}
	wantNorm := float64(dev.Endurance(0)) / float64(dev.TotalEndurance())
	if math.Abs(res.Normalized-wantNorm) > 1e-12 {
		t.Fatalf("normalized %v, want %v", res.Normalized, wantNorm)
	}
}

func TestRunLifetimeRecordsCost(t *testing.T) {
	dev := wltest.NewDeviceEndurance(t, 64, 300, 2)
	e, err := core.New(dev, core.DefaultConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	st, err := attack.New(attack.DefaultConfig(attack.Scan, 64, 1))
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunLifetime(e, FromAttack(st), LifetimeConfig{CheckEvery: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles <= 0 {
		t.Fatal("no cycles accumulated")
	}
	if res.DeviceWrites != res.DemandWrites+res.SwapWrites {
		t.Fatalf("wear not conserved: %d != %d + %d",
			res.DeviceWrites, res.DemandWrites, res.SwapWrites)
	}
	if res.Scheme != "TWL_swp" {
		t.Fatalf("scheme name %q", res.Scheme)
	}
}

func TestRunLifetimeCap(t *testing.T) {
	dev := wltest.NewDeviceEndurance(t, 64, 1e9, 3)
	s := nowl.New(dev)
	st, _ := attack.New(attack.DefaultConfig(attack.Random, 64, 1))
	res, err := RunLifetime(s, FromAttack(st), LifetimeConfig{MaxDemandWrites: 5000})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Capped || res.DemandWrites != 5000 {
		t.Fatalf("cap not honored: %+v", res)
	}
}

func TestRunLifetimeRejectsDeadDevice(t *testing.T) {
	dev := wltest.NewDeviceEndurance(t, 4, 1, 4)
	s := nowl.New(dev)
	s.Write(0, 1) // kills page 0
	st, _ := attack.New(attack.DefaultConfig(attack.Repeat, 4, 1))
	if _, err := RunLifetime(s, FromAttack(st), LifetimeConfig{}); err == nil {
		t.Fatal("run on failed device accepted")
	}
}

// TestNOWLNormalizedMatchesCalibration: replaying a synthetic benchmark on
// NOWL must die at roughly the benchmark's Table 2 concentration ratio —
// the calibration contract of the trace generator.
func TestNOWLNormalizedMatchesCalibration(t *testing.T) {
	const pages = 512
	bench, err := trace.BenchmarkByName("canneal") // ratio ≈ 0.0172
	if err != nil {
		t.Fatal(err)
	}
	dev := wltest.NewDeviceEndurance(t, pages, 20000, 5)
	s := nowl.New(dev)
	g, err := trace.NewSynthetic(bench, pages, 7)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunLifetime(s, FromWorkload(g), LifetimeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	want := bench.ConcentrationRatio()
	if res.Normalized < want/2 || res.Normalized > want*2 {
		t.Fatalf("NOWL normalized lifetime %v, want within 2× of %v", res.Normalized, want)
	}
}

func TestIdealYearsMatchesTable2(t *testing.T) {
	geom := pcm.DefaultGeometry()
	// vips: 3309 MBps → Table 2 says 16 years.
	years := IdealYears(geom, 1e8, 3309e6)
	if math.Abs(years-16)/16 > 0.05 {
		t.Fatalf("vips ideal years = %v, want ~16 (Table 2)", years)
	}
	// blackscholes: 121 MBps → 446 years.
	years = IdealYears(geom, 1e8, 121e6)
	if math.Abs(years-446)/446 > 0.05 {
		t.Fatalf("blackscholes ideal years = %v, want ~446", years)
	}
	// The Figure 6 attack: 8 GB/s → 6.6 years.
	years = IdealYears(geom, 1e8, 8e9)
	if math.Abs(years-6.6)/6.6 > 0.05 {
		t.Fatalf("8GB/s ideal years = %v, want ~6.6 (Figure 6)", years)
	}
}

func TestYearsScalesNormalized(t *testing.T) {
	r := LifetimeResult{Normalized: 0.5}
	if got := r.Years(6.6); math.Abs(got-3.3) > 1e-12 {
		t.Fatalf("Years = %v, want 3.3", got)
	}
}

func TestRunPerfTWLOverheadSmall(t *testing.T) {
	const pages = 512
	bench, _ := trace.BenchmarkByName("vips")
	cfg := PerfConfig{Requests: 300000}
	build := func() (wl.Scheme, error) {
		return core.New(wltest.NewDevice(t, pages, 11), core.DefaultConfig(3))
	}
	baseline := func() (wl.Scheme, error) {
		return nowl.New(wltest.NewDevice(t, pages, 11)), nil
	}
	res, err := RunPerf(bench, pages, 21, cfg, build, baseline)
	if err != nil {
		t.Fatal(err)
	}
	if res.Normalized < 1 {
		t.Fatalf("normalized %v < 1", res.Normalized)
	}
	// TWL on vips: paper reports 2.7% — allow a generous band but require
	// "negligible" (< 10%).
	if res.Normalized > 1.10 {
		t.Fatalf("TWL overhead %v too large", res.Normalized-1)
	}
	if res.Normalized == 1.0 {
		t.Fatal("TWL shows exactly zero overhead; cost accounting is broken")
	}
}

// blockCounter counts the blocked requests its scheme reports, as a
// reference for the metrics a performance run records.
type blockCounter struct {
	wl.Scheme
	blocked uint64
}

func (b *blockCounter) Write(la int, tag uint64) wl.Cost {
	c := b.Scheme.Write(la, tag)
	if c.Blocked {
		b.blocked++
	}
	return c
}

func (b *blockCounter) Read(la int) (uint64, wl.Cost) {
	v, c := b.Scheme.Read(la)
	if c.Blocked {
		b.blocked++
	}
	return v, c
}

// TestRunPerfMetrics: with a registry, a performance run records every
// request of the scheme and of the NOWL baseline once, and the latency
// histograms add up to the cycle totals the result reports.
func TestRunPerfMetrics(t *testing.T) {
	const (
		pages    = 256
		requests = 40000
	)
	bench, _ := trace.BenchmarkByName("vips")
	reg := obs.NewRegistry()
	cfg := PerfConfig{Requests: requests, Metrics: reg}
	var scheme, base *blockCounter
	build := func() (wl.Scheme, error) {
		s, err := core.New(wltest.NewDevice(t, pages, 11), core.DefaultConfig(3))
		scheme = &blockCounter{Scheme: s}
		return scheme, err
	}
	baseline := func() (wl.Scheme, error) {
		base = &blockCounter{Scheme: nowl.New(wltest.NewDevice(t, pages, 11))}
		return base, nil
	}
	res, err := RunPerf(bench, pages, 21, cfg, build, baseline)
	if err != nil {
		t.Fatal(err)
	}
	if scheme.blocked == 0 {
		t.Fatal("TWL blocked no request; the blocked series is untested")
	}
	for _, c := range []struct {
		name    string
		cycles  int64
		blocked uint64
	}{
		{res.Scheme, res.MemCycles, scheme.blocked},
		{"NOWL", res.BaselineMemCycles, base.blocked},
	} {
		label := obs.L("scheme", c.name)
		writes := reg.Counter("twl_scheme_requests_total", label, obs.L("op", "write")).Value()
		reads := reg.Counter("twl_scheme_requests_total", label, obs.L("op", "read")).Value()
		if writes+reads != requests || writes == 0 || reads == 0 {
			t.Errorf("%s: %d writes + %d reads recorded, want %d requests", c.name, writes, reads, requests)
		}
		if got := reg.Counter("twl_scheme_blocked_total", label).Value(); got != c.blocked {
			t.Errorf("%s: blocked counter %d, scheme reported %d", c.name, got, c.blocked)
		}
		h := reg.Histogram("twl_scheme_request_cycles", obs.DefaultLatencyBuckets(), label).Snapshot()
		if h.Count != requests || h.Sum != float64(c.cycles) {
			t.Errorf("%s: latency count %d sum %v, want %d and %d", c.name, h.Count, h.Sum, requests, c.cycles)
		}
		if got := reg.Counter("twl_perf_requests_total", label, obs.L("benchmark", "vips")).Value(); got != requests {
			t.Errorf("%s: twl_perf_requests_total %d, want %d", c.name, got, requests)
		}
	}
}

func TestRunPerfValidation(t *testing.T) {
	bench, _ := trace.BenchmarkByName("vips")
	bad := PerfConfig{Requests: 0}
	_, err := RunPerf(bench, 64, 1, bad, nil, nil)
	if err == nil {
		t.Fatal("zero requests accepted")
	}
}

func TestMemoryBoundednessOrdering(t *testing.T) {
	vips, _ := trace.BenchmarkByName("vips")
	sc, _ := trace.BenchmarkByName("streamcluster")
	muV := memoryBoundedness(vips)
	muS := memoryBoundedness(sc)
	if muV <= muS {
		t.Fatalf("vips boundedness %v not above streamcluster %v", muV, muS)
	}
	if muV > 1 || muS < 0.3 {
		t.Fatalf("boundedness out of expected band: %v %v", muV, muS)
	}
}
