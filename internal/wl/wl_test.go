package wl

import (
	"testing"

	"twl/internal/pcm"
)

func TestCostAdd(t *testing.T) {
	c := Cost{DeviceWrites: 1, DeviceReads: 2, ExtraCycles: 3}
	c.Add(Cost{DeviceWrites: 4, DeviceReads: 5, ExtraCycles: 6, Blocked: true})
	if c.DeviceWrites != 5 || c.DeviceReads != 7 || c.ExtraCycles != 9 || !c.Blocked {
		t.Fatalf("Add result %+v", c)
	}
	// Blocked is sticky.
	c.Add(Cost{})
	if !c.Blocked {
		t.Fatal("Blocked cleared by Add")
	}
}

func TestCostCycles(t *testing.T) {
	timing := pcm.DefaultTiming()
	c := Cost{DeviceWrites: 2, DeviceReads: 3, ExtraCycles: 7}
	want := int64(2*2000 + 3*250 + 7)
	if got := c.Cycles(timing); got != want {
		t.Fatalf("Cycles = %d, want %d", got, want)
	}
}

func TestStatsSwapWriteRatio(t *testing.T) {
	if (Stats{}).SwapWriteRatio() != 0 {
		t.Fatal("empty stats ratio != 0")
	}
	s := Stats{DemandWrites: 200, SwapWrites: 50}
	if s.SwapWriteRatio() != 0.25 {
		t.Fatalf("ratio = %v", s.SwapWriteRatio())
	}
}

func TestSortByEndurance(t *testing.T) {
	idx := SortByEndurance([]uint64{30, 10, 20})
	want := []int{1, 2, 0}
	for i := range want {
		if idx[i] != want[i] {
			t.Fatalf("order = %v, want %v", idx, want)
		}
	}
	// Stability on ties.
	idx = SortByEndurance([]uint64{5, 5, 5})
	for i, v := range idx {
		if v != i {
			t.Fatalf("tie order not stable: %v", idx)
		}
	}
	if len(SortByEndurance([]uint64(nil))) != 0 {
		t.Fatal("nil input")
	}
}

func TestLatencyConstantsMatchTable1(t *testing.T) {
	// Table 1: "TWL control logic latency/ table latency: 5/10-cycle,
	// RNG latency: 4-cycle".
	if TableCycles != 10 || ControlCycles != 5 || RNGCycles != 4 {
		t.Fatalf("latency constants %d/%d/%d do not match Table 1",
			TableCycles, ControlCycles, RNGCycles)
	}
}
