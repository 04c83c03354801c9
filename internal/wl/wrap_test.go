package wl

import (
	"bytes"
	"io"
	"testing"

	"twl/internal/pcm"
)

func testDevice(t *testing.T, pages int) *pcm.Device {
	t.Helper()
	end := make([]uint64, pages)
	for i := range end {
		end[i] = 1000
	}
	geom := pcm.Geometry{Pages: pages, PageSize: 4096, LineSize: 128, Ranks: 1, Banks: 1}
	dev, err := pcm.NewDevice(geom, pcm.DefaultTiming(), end)
	if err != nil {
		t.Fatal(err)
	}
	return dev
}

// fakeScheme is a minimal Scheme for decorator tests.
type fakeScheme struct {
	name string
	dev  *pcm.Device
}

func (f *fakeScheme) Name() string                          { return f.name }
func (f *fakeScheme) Write(int, uint64) Cost                { return Cost{DeviceWrites: 1} }
func (f *fakeScheme) Read(int) (uint64, Cost)               { return 0, Cost{DeviceReads: 1} }
func (f *fakeScheme) ReadN(int) Cost                        { return Cost{DeviceReads: 1} }
func (f *fakeScheme) Stats() Stats                          { return Stats{} }
func (f *fakeScheme) Device() *pcm.Device                   { return f.dev }
func (f *fakeScheme) CheckInvariants() error                { return nil }
func (f *fakeScheme) Snapshot(io.Writer) error              { return nil }
func (f *fakeScheme) Restore(io.Reader) error               { return nil }
func (f *fakeScheme) WriteRun(int, uint64, int) (Cost, int) { return Cost{}, 0 }

// capScheme is fakeScheme with probing overrides of the Scheme bulk,
// check and snapshot methods plus the optional WriteSweep, so tests can
// verify which implementation ran.
type capScheme struct {
	fakeScheme
	checked, snapped, restored, ran, swept bool
}

func (c *capScheme) CheckInvariants() error { c.checked = true; return nil }
func (c *capScheme) Snapshot(io.Writer) error {
	c.snapped = true
	return nil
}
func (c *capScheme) Restore(io.Reader) error { c.restored = true; return nil }
func (c *capScheme) WriteRun(la int, tag uint64, n int) (Cost, int) {
	c.ran = true
	return Cost{DeviceWrites: 1}, n
}
func (c *capScheme) WriteSweep(la int, tag uint64, n int) (Cost, int) {
	c.swept = true
	return Cost{DeviceWrites: 1}, n
}

// capBuild returns a probing scheme with a sweep fast path when sweep is
// set, and without one otherwise (BWL's shape).
func capBuild(dev *pcm.Device, sweep bool) (Scheme, *capScheme) {
	c := &capScheme{fakeScheme: fakeScheme{name: "cap", dev: dev}}
	if sweep {
		return c, c
	}
	return struct{ Scheme }{c}, c
}

// passBody is a decorator body with no overrides of its own.
type passBody struct{ Scheme }

// fullBody is a decorator body overriding every bulk, check and snapshot
// method, with probes to verify that Wrap prefers the body's
// implementations.
type fullBody struct {
	Scheme
	checked, snapped, ran, swept bool
}

func (b *fullBody) CheckInvariants() error   { b.checked = true; return nil }
func (b *fullBody) Snapshot(io.Writer) error { b.snapped = true; return nil }
func (b *fullBody) Restore(io.Reader) error  { return nil }
func (b *fullBody) WriteRun(la int, tag uint64, n int) (Cost, int) {
	b.ran = true
	return Cost{DeviceWrites: 1}, n
}
func (b *fullBody) WriteSweep(la int, tag uint64, n int) (Cost, int) {
	b.swept = true
	return Cost{DeviceWrites: 1}, n
}

// TestWrapPreservesExactCapabilities: the composite has a sweep fast path
// exactly when the inner scheme does — whether the body forwards or
// declares its own WriteSweep (nothing invented beyond the inner's set).
func TestWrapPreservesExactCapabilities(t *testing.T) {
	dev := testDevice(t, 8)
	for _, sweep := range []bool{false, true} {
		inner, _ := capBuild(dev, sweep)
		for _, tc := range []struct {
			name string
			body Scheme
		}{
			{"passBody", &passBody{Scheme: inner}},
			{"fullBody", &fullBody{Scheme: inner}},
		} {
			if _, got := Wrap(tc.body, inner).(SweepWriter); got != sweep {
				t.Errorf("inner sweep %v, %s: composite sweep %v", sweep, tc.name, got)
			}
		}
	}
}

// TestWrapForwardsToInner: when the body does not override a method the
// composite forwards to the inner scheme's implementation.
func TestWrapForwardsToInner(t *testing.T) {
	dev := testDevice(t, 8)
	inner, probe := capBuild(dev, true)
	w := Wrap(&passBody{Scheme: inner}, inner)
	if err := w.CheckInvariants(); err != nil || !probe.checked {
		t.Fatal("CheckInvariants did not reach the inner scheme")
	}
	if err := w.Snapshot(&bytes.Buffer{}); err != nil || !probe.snapped {
		t.Fatal("Snapshot did not reach the inner scheme")
	}
	if err := w.Restore(&bytes.Buffer{}); err != nil || !probe.restored {
		t.Fatal("Restore did not reach the inner scheme")
	}
	if _, n := w.WriteRun(0, 1, 3); n != 3 || !probe.ran {
		t.Fatal("WriteRun did not reach the inner scheme")
	}
	if _, n := w.(SweepWriter).WriteSweep(0, 1, 3); n != 3 || !probe.swept {
		t.Fatal("WriteSweep did not reach the inner scheme")
	}
}

// TestWrapPrefersBodyOverrides: when the body overrides a method, the
// composite dispatches to the body.
func TestWrapPrefersBodyOverrides(t *testing.T) {
	dev := testDevice(t, 8)
	inner, probe := capBuild(dev, true)
	body := &fullBody{Scheme: inner}
	w := Wrap(body, inner)
	w.CheckInvariants()
	w.Snapshot(&bytes.Buffer{})
	w.WriteRun(0, 1, 3)
	w.(SweepWriter).WriteSweep(0, 1, 3)
	if !body.checked || !body.snapped || !body.ran || !body.swept {
		t.Fatalf("body overrides skipped: %+v", body)
	}
	if probe.checked || probe.snapped || probe.ran || probe.swept {
		t.Fatalf("inner reached despite body overrides: checked=%v snapped=%v ran=%v swept=%v",
			probe.checked, probe.snapped, probe.ran, probe.swept)
	}
}

// TestWrapLogicalPages: composites always expose LogicalPages, forwarding
// the inner scheme's value when it has one and falling back to the device
// page count otherwise.
func TestWrapLogicalPages(t *testing.T) {
	dev := testDevice(t, 8)
	plain, _ := capBuild(dev, false)
	w := Wrap(&passBody{Scheme: plain}, plain)
	lp, ok := w.(interface{ LogicalPages() int })
	if !ok {
		t.Fatal("composite does not expose LogicalPages")
	}
	if got := lp.LogicalPages(); got != 8 {
		t.Fatalf("LogicalPages fallback = %d, want device pages 8", got)
	}
	scoped := &scopedScheme{Scheme: plain}
	w = Wrap(&passBody{Scheme: scoped}, scoped)
	if got := w.(interface{ LogicalPages() int }).LogicalPages(); got != 7 {
		t.Fatalf("LogicalPages = %d, want inner's 7", got)
	}
}

// scopedScheme reserves one physical page for itself, StartGap-style.
type scopedScheme struct{ Scheme }

func (s *scopedScheme) LogicalPages() int { return s.Device().Pages() - 1 }

// TestWrapUnwrapChain: Unwrap exposes the decorator body so stack-walking
// helpers can find extension interfaces the composite hides.
func TestWrapUnwrapChain(t *testing.T) {
	dev := testDevice(t, 8)
	inner, _ := capBuild(dev, false)
	body := &reporterBody{Scheme: inner}
	w := Wrap(body, inner)
	if _, ok := w.(CapacityReporter); ok {
		t.Fatal("composite leaks a non-preserved extension interface directly")
	}
	u, ok := w.(Unwrapper)
	if !ok {
		t.Fatal("composite does not expose Unwrap")
	}
	if u.Body() != Scheme(body) {
		t.Fatal("Body did not return the decorator body")
	}
	if u.Unwrap() != inner {
		t.Fatal("Unwrap did not return the wrapped scheme")
	}
	r, ok := AsCapacityReporter(w)
	if !ok {
		t.Fatal("AsCapacityReporter did not find the body's reporter")
	}
	if got := r.CapacityStats(); got.SparePages != 42 {
		t.Fatalf("reporter stats = %+v, want SparePages 42", got)
	}
	// A second layer on top still reaches the reporter.
	outer := Wrap(&passBody{Scheme: w}, w)
	if _, ok := AsCapacityReporter(outer); !ok {
		t.Fatal("AsCapacityReporter did not walk through two layers")
	}
	// A bare scheme has no reporter and no Unwrap link.
	if _, ok := AsCapacityReporter(inner); ok {
		t.Fatal("AsCapacityReporter invented a reporter on a bare scheme")
	}
}

// reporterBody is a decorator body with a CapacityReporter extension.
type reporterBody struct{ Scheme }

func (b *reporterBody) CapacityStats() CapacityStats { return CapacityStats{SparePages: 42} }
