package secref

import (
	"testing"

	"twl/internal/wl"
	"twl/internal/wl/wltest"
)

func buildTwoLevel(tb testing.TB, seed uint64) wl.Scheme {
	s, err := NewTwoLevel(wltest.NewDevice(tb, 256, seed), TwoLevelConfig{
		Regions: 8, InnerInterval: 8, OuterInterval: 64, Seed: seed,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

func TestTwoLevelConformance(t *testing.T) {
	wltest.Run(t, buildTwoLevel)
}

func TestTwoLevelValidation(t *testing.T) {
	dev := wltest.NewDevice(t, 256, 1)
	bad := []TwoLevelConfig{
		{Regions: 0, InnerInterval: 8, OuterInterval: 64},
		{Regions: 8, InnerInterval: 0, OuterInterval: 64},
		{Regions: 8, InnerInterval: 8, OuterInterval: 0},
		{Regions: 3, InnerInterval: 8, OuterInterval: 64}, // 3 doesn't divide 256
	}
	for i, cfg := range bad {
		if _, err := NewTwoLevel(dev, cfg); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	// Region size must be a power of two.
	dev192 := wltest.NewDevice(t, 192, 1)
	if _, err := NewTwoLevel(dev192, TwoLevelConfig{Regions: 4, InnerInterval: 8, OuterInterval: 64}); err == nil {
		t.Error("region size 48 accepted")
	}
	// Two-level also needs a power-of-two total page count for the outer
	// XOR remap.
	dev192b := wltest.NewDevice(t, 192, 1)
	if _, err := NewTwoLevel(dev192b, TwoLevelConfig{Regions: 3, InnerInterval: 8, OuterInterval: 64}); err == nil {
		t.Error("non-power-of-two total accepted")
	}
}

func TestDefaultTwoLevelConfigScales(t *testing.T) {
	cfg := DefaultTwoLevelConfig(2048, 20000, 1)
	if cfg.Regions <= 0 || 2048%cfg.Regions != 0 {
		t.Fatalf("bad region count %d", cfg.Regions)
	}
	// The inner deposit quantum (regionSize × inner / 2) must be well below
	// the endurance.
	regionSize := 2048 / cfg.Regions
	if float64(regionSize*cfg.InnerInterval)/2 > 20000/2 {
		t.Fatalf("inner quantum too coarse: region %d × interval %d vs endurance 20000",
			regionSize, cfg.InnerInterval)
	}
	// Higher endurance affords coarser (cheaper) intervals.
	cfgHi := DefaultTwoLevelConfig(2048, 1e8, 1)
	if cfgHi.InnerInterval < cfg.InnerInterval || cfgHi.OuterInterval < cfg.OuterInterval {
		t.Fatalf("intervals did not scale up with endurance: %+v vs %+v", cfgHi, cfg)
	}
}

// TestTwoLevelSpreadsRepeatAcrossRegions: the single-level scheme confines
// a repeat stream to one region forever; the outer level must carry it
// across regions.
func TestTwoLevelSpreadsRepeatAcrossRegions(t *testing.T) {
	dev := wltest.NewDevice(t, 256, 3)
	s, err := NewTwoLevel(dev, TwoLevelConfig{Regions: 8, InnerInterval: 4, OuterInterval: 16, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	const writes = 200000
	for i := 0; i < writes; i++ {
		s.Write(5, uint64(i))
	}
	regionsTouched := 0
	for r := 0; r < 8; r++ {
		var wear uint64
		for p := r * 32; p < (r+1)*32; p++ {
			wear += dev.Wear(p)
		}
		if wear > 0 {
			regionsTouched++
		}
	}
	if regionsTouched < 6 {
		t.Fatalf("repeat stream touched only %d/8 regions; outer level not rotating", regionsTouched)
	}
}

// TestTwoLevelUniformWear: under a repeat stream the combined levels must
// keep the max page wear within a small multiple of the mean.
func TestTwoLevelUniformWear(t *testing.T) {
	dev := wltest.NewDevice(t, 256, 4)
	s, err := NewTwoLevel(dev, TwoLevelConfig{Regions: 8, InnerInterval: 4, OuterInterval: 16, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	const writes = 400000
	for i := 0; i < writes; i++ {
		s.Write(100, uint64(i))
	}
	sum := dev.Summary()
	mean := float64(sum.TotalWear) / 256
	if float64(sum.MaxWear) > 5*mean {
		t.Fatalf("max wear %d > 5× mean %.0f", sum.MaxWear, mean)
	}
}

func TestTwoLevelInvariantsMidSweeps(t *testing.T) {
	dev := wltest.NewDevice(t, 64, 5)
	s, err := NewTwoLevel(dev, TwoLevelConfig{Regions: 4, InnerInterval: 1, OuterInterval: 3, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64*8; i++ {
		s.Write(i%64, uint64(i))
		if err := s.CheckInvariants(); err != nil {
			t.Fatalf("after write %d: %v", i, err)
		}
	}
}

// TestTwoLevelName pins both names of the two-level scheme: NewTwoLevel
// builds the paper's SR, NewFullScaleTwoLevel the full-scale SR2.
func TestTwoLevelName(t *testing.T) {
	if got := buildTwoLevel(t, 1).Name(); got != "SR" {
		t.Fatalf("NewTwoLevel name = %q, want SR", got)
	}
	s, err := NewFullScaleTwoLevel(wltest.NewDevice(t, 256, 1), 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Name(); got != "SR2" {
		t.Fatalf("NewFullScaleTwoLevel name = %q, want SR2", got)
	}
}
