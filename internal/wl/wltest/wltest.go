// Package wltest provides a conformance suite that every wear-leveling
// scheme must pass: data integrity under arbitrary operation interleavings,
// invariant preservation, wear conservation, and cost-reporting sanity.
// Each scheme package runs the suite against its own constructor, so a new
// scheme gets the full battery for free.
package wltest

import (
	"testing"

	"twl/internal/pcm"
	"twl/internal/pv"
	"twl/internal/rng"
	"twl/internal/wl"
)

// NewDevice builds a test device with a Gaussian endurance map and
// effectively infinite endurance: a mean of 10^9, far beyond any test's
// traffic yet under pcm.MaxEndurance at any sigma draw (wear-out is
// exercised separately).
func NewDevice(tb testing.TB, pages int, seed uint64) *pcm.Device {
	tb.Helper()
	return NewDeviceEndurance(tb, pages, 1e9, seed)
}

// NewDeviceEndurance builds a test device with the given mean endurance.
func NewDeviceEndurance(tb testing.TB, pages int, mean float64, seed uint64) *pcm.Device {
	tb.Helper()
	return NewSpareDevice(tb, pages, 0, mean, seed)
}

// NewSpareDevice builds a test device with spares spare pages behind the
// visible array, drawing one Gaussian endurance map across both regions —
// the spare pool is fabbed from the same process as the rest of the die.
func NewSpareDevice(tb testing.TB, pages, spares int, mean float64, seed uint64) *pcm.Device {
	tb.Helper()
	geom := pcm.Geometry{Pages: pages, PageSize: 4096, LineSize: 128, Ranks: 4, Banks: 32, SparePages: spares}
	end, err := pv.Generate(pv.Config{
		Pages: pages + spares, Mean: mean, Sigma: 0.11 * mean, Model: pv.Gaussian, Seed: seed,
	})
	if err != nil {
		tb.Fatal(err)
	}
	dev, err := pcm.NewDevice(geom, pcm.DefaultTiming(), end)
	if err != nil {
		tb.Fatal(err)
	}
	return dev
}

// Run executes the full conformance suite. build must return a fresh scheme
// over a fresh device each call (seed varies the endurance map and any
// internal randomness).
func Run(t *testing.T, build func(tb testing.TB, seed uint64) wl.Scheme) {
	t.Run("DataIntegrity", func(t *testing.T) { dataIntegrity(t, build) })
	t.Run("WearConservation", func(t *testing.T) { wearConservation(t, build) })
	t.Run("InvariantsHold", func(t *testing.T) { invariantsHold(t, build) })
	t.Run("CostSanity", func(t *testing.T) { costSanity(t, build) })
	t.Run("StatsMonotonic", func(t *testing.T) { statsMonotonic(t, build) })
}

// dataIntegrity: reading a logical page always returns the last value
// written to it, across any internal remapping the scheme performs.
func dataIntegrity(t *testing.T, build func(tb testing.TB, seed uint64) wl.Scheme) {
	for _, seed := range []uint64{1, 2, 3} {
		s := build(t, seed)
		n := wl.LogicalPages(s)
		shadow := make(map[int]uint64)
		src := rng.NewXorshift(seed * 977)
		for i := 0; i < 60000; i++ {
			la := src.Intn(n)
			if src.Intn(4) == 0 {
				got, _ := s.Read(la)
				if want, ok := shadow[la]; ok && got != want {
					t.Fatalf("seed %d op %d: Read(%d) = %d, want %d", seed, i, la, got, want)
				}
			} else {
				tag := src.Uint64()
				s.Write(la, tag)
				shadow[la] = tag
			}
		}
		for la, want := range shadow {
			if got, _ := s.Read(la); got != want {
				t.Fatalf("seed %d: final Read(%d) = %d, want %d", seed, la, got, want)
			}
		}
	}
}

// wearConservation: device writes must equal demand writes plus the
// scheme's reported swap writes — no silent wear.
func wearConservation(t *testing.T, build func(tb testing.TB, seed uint64) wl.Scheme) {
	s := build(t, 7)
	n := wl.LogicalPages(s)
	src := rng.NewXorshift(123)
	for i := 0; i < 50000; i++ {
		s.Write(src.Intn(n), uint64(i))
	}
	st := s.Stats()
	if got, want := s.Device().TotalWrites(), st.DemandWrites+st.SwapWrites; got != want {
		t.Fatalf("device writes %d != demand %d + swap %d", got, st.DemandWrites, st.SwapWrites)
	}
	if st.DemandWrites != 50000 {
		t.Fatalf("DemandWrites = %d, want 50000", st.DemandWrites)
	}
}

// invariantsHold: the scheme's own CheckInvariants passes after heavy load.
func invariantsHold(t *testing.T, build func(tb testing.TB, seed uint64) wl.Scheme) {
	s := build(t, 11)
	c, ok := s.(wl.Checker)
	if !ok {
		t.Skip("scheme does not implement wl.Checker")
	}
	n := wl.LogicalPages(s)
	src := rng.NewXorshift(321)
	for i := 0; i < 50000; i++ {
		if src.Intn(5) == 0 {
			s.Read(src.Intn(n))
		} else {
			s.Write(src.Intn(n), src.Uint64())
		}
		if i%9973 == 0 {
			if err := c.CheckInvariants(); err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
		}
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// costSanity: every write performs at least one device write; every read at
// least one device read; cycle conversion is positive.
func costSanity(t *testing.T, build func(tb testing.TB, seed uint64) wl.Scheme) {
	s := build(t, 13)
	n := wl.LogicalPages(s)
	timing := s.Device().Timing()
	src := rng.NewXorshift(55)
	for i := 0; i < 20000; i++ {
		la := src.Intn(n)
		cost := s.Write(la, uint64(i))
		if cost.DeviceWrites < 1 {
			t.Fatalf("write cost reports %d device writes", cost.DeviceWrites)
		}
		if cost.Cycles(timing) <= 0 {
			t.Fatalf("write cost cycles %d not positive", cost.Cycles(timing))
		}
		if cost.DeviceWrites == 1 && cost.DeviceReads == 0 && cost.Blocked {
			t.Fatal("plain write reported blocked")
		}
		_, rcost := s.Read(la)
		if rcost.DeviceReads < 1 {
			t.Fatalf("read cost reports %d device reads", rcost.DeviceReads)
		}
		if rcost.DeviceWrites != 0 {
			t.Fatalf("read performed %d device writes", rcost.DeviceWrites)
		}
	}
}

// statsMonotonic: counters only grow, and demand counters track operations
// exactly.
func statsMonotonic(t *testing.T, build func(tb testing.TB, seed uint64) wl.Scheme) {
	s := build(t, 17)
	n := wl.LogicalPages(s)
	src := rng.NewXorshift(77)
	var prev wl.Stats
	for i := 0; i < 10000; i++ {
		if i%3 == 0 {
			s.Read(src.Intn(n))
		} else {
			s.Write(src.Intn(n), uint64(i))
		}
		st := s.Stats()
		if st.DemandWrites < prev.DemandWrites || st.DemandReads < prev.DemandReads ||
			st.SwapWrites < prev.SwapWrites || st.Swaps < prev.Swaps {
			t.Fatalf("op %d: stats went backwards: %+v -> %+v", i, prev, st)
		}
		prev = st
	}
	// 10000 ops, i%3==0 is a read → 3334 reads, 6666 writes.
	if prev.DemandWrites != 6666 || prev.DemandReads != 3334 {
		t.Fatalf("DemandWrites/Reads = %d/%d, want 6666/3334", prev.DemandWrites, prev.DemandReads)
	}
}
