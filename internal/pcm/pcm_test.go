package pcm

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func testDevice(t *testing.T, pages int, endurance uint64) *Device {
	t.Helper()
	geom := Geometry{Pages: pages, PageSize: 4096, LineSize: 128, Ranks: 4, Banks: 32}
	end := make([]uint64, pages)
	for i := range end {
		end[i] = endurance
	}
	d, err := NewDevice(geom, DefaultTiming(), end)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestGeometryValidate(t *testing.T) {
	bad := []Geometry{
		{Pages: 0, PageSize: 4096, LineSize: 128, Ranks: 1, Banks: 1},
		{Pages: 10, PageSize: 0, LineSize: 128, Ranks: 1, Banks: 1},
		{Pages: 10, PageSize: 4096, LineSize: 100, Ranks: 1, Banks: 1}, // 100 doesn't divide 4096
		{Pages: 10, PageSize: 4096, LineSize: 128, Ranks: 0, Banks: 1},
		{Pages: 10, PageSize: 4096, LineSize: 128, Ranks: 1, Banks: 0},
	}
	for i, g := range bad {
		if err := g.Validate(); err == nil {
			t.Errorf("case %d: geometry %+v unexpectedly valid", i, g)
		}
	}
	if err := DefaultGeometry().Validate(); err != nil {
		t.Fatalf("default geometry invalid: %v", err)
	}
}

func TestDefaultGeometryMatchesTable1(t *testing.T) {
	g := DefaultGeometry()
	if g.Capacity() != 32<<30 {
		t.Fatalf("capacity = %d, want 32 GiB", g.Capacity())
	}
	if g.PageSize != 4096 || g.LineSize != 128 || g.Ranks != 4 || g.Banks != 32 {
		t.Fatalf("geometry does not match Table 1: %+v", g)
	}
}

func TestDefaultTimingMatchesTable1(t *testing.T) {
	tm := DefaultTiming()
	if tm.ReadCycles != 250 || tm.SetCycles != 2000 || tm.ResetCycles != 250 {
		t.Fatalf("timing does not match Table 1: %+v", tm)
	}
	if tm.WriteCycles() != 2000 {
		t.Fatalf("write cycles = %d, want 2000 (SET-limited)", tm.WriteCycles())
	}
	if s := tm.Seconds(2e9); s != 1.0 {
		t.Fatalf("2e9 cycles at 2GHz = %v s, want 1", s)
	}
}

func TestNewDeviceValidation(t *testing.T) {
	geom := Geometry{Pages: 4, PageSize: 4096, LineSize: 128, Ranks: 1, Banks: 1}
	if _, err := NewDevice(geom, DefaultTiming(), []uint64{1, 2, 3}); err == nil {
		t.Fatal("mismatched endurance map accepted")
	}
	if _, err := NewDevice(geom, DefaultTiming(), []uint64{1, 2, 3, 0}); err == nil {
		t.Fatal("zero endurance accepted")
	}
}

func TestNewDeviceCopiesEnduranceMap(t *testing.T) {
	geom := Geometry{Pages: 2, PageSize: 4096, LineSize: 128, Ranks: 1, Banks: 1}
	end := []uint64{10, 20}
	d, err := NewDevice(geom, DefaultTiming(), end)
	if err != nil {
		t.Fatal(err)
	}
	end[0] = 999
	if d.Endurance(0) != 10 {
		t.Fatal("device endurance aliased caller's slice")
	}
}

func TestWriteWearAndFailure(t *testing.T) {
	d := testDevice(t, 4, 3)
	for i := 0; i < 2; i++ {
		if d.Write(1, uint64(i)) {
			t.Fatalf("write %d reported failure before endurance reached", i)
		}
	}
	if _, failed := d.Failed(); failed {
		t.Fatal("device reports failure with max wear 2 < endurance 3")
	}
	if !d.Write(1, 99) {
		t.Fatal("third write did not report wear-out (endurance 3)")
	}
	page, failed := d.Failed()
	if !failed || page != 1 {
		t.Fatalf("Failed() = %d,%v, want 1,true", page, failed)
	}
	if d.Remaining(1) != 0 {
		t.Fatalf("Remaining(1) = %d, want 0", d.Remaining(1))
	}
	if d.FailedPages() != 1 {
		t.Fatalf("FailedPages = %d, want 1", d.FailedPages())
	}
}

func TestFirstFailureSticky(t *testing.T) {
	d := testDevice(t, 4, 1)
	d.Write(2, 0)
	d.Write(3, 0)
	if page, _ := d.Failed(); page != 2 {
		t.Fatalf("first failed page = %d, want 2", page)
	}
	if d.FailedPages() != 2 {
		t.Fatalf("FailedPages = %d, want 2", d.FailedPages())
	}
}

func TestPayloadReadback(t *testing.T) {
	d := testDevice(t, 8, 100)
	d.Write(3, 0xDEAD)
	d.Write(5, 0xBEEF)
	if v := d.Read(3); v != 0xDEAD {
		t.Fatalf("Read(3) = %x, want dead", v)
	}
	if v := d.Peek(5); v != 0xBEEF {
		t.Fatalf("Peek(5) = %x, want beef", v)
	}
	if d.TotalReads() != 1 {
		t.Fatalf("TotalReads = %d, want 1 (Peek must not count)", d.TotalReads())
	}
}

func TestWearAccounting(t *testing.T) {
	d := testDevice(t, 4, 1000)
	for i := 0; i < 10; i++ {
		d.Write(i%4, 0)
	}
	if d.TotalWrites() != 10 {
		t.Fatalf("TotalWrites = %d, want 10", d.TotalWrites())
	}
	var sum uint64
	for p := 0; p < 4; p++ {
		sum += d.Wear(p)
	}
	if sum != 10 {
		t.Fatalf("sum of wear = %d, want 10", sum)
	}
}

// TestWearConservationProperty: total device wear always equals the number
// of Write calls, for arbitrary write sequences.
func TestWearConservationProperty(t *testing.T) {
	check := func(addrs []uint8) bool {
		d := testDevice(t, 256, 1<<30)
		for _, a := range addrs {
			d.Write(int(a), uint64(a))
		}
		var sum uint64
		for p := 0; p < 256; p++ {
			sum += d.Wear(p)
		}
		return sum == uint64(len(addrs)) && d.TotalWrites() == uint64(len(addrs))
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestRewriteNMatchesSerialRewrites: the hosted-write bulk operation must be
// indistinguishable from n sequential Write(pp, Peek(pp)) calls — payload
// preserved, wear and the device write counter advanced, and the endurance
// crossing clamped at (and including) the failing write.
func TestRewriteNMatchesSerialRewrites(t *testing.T) {
	bulk := testDevice(t, 4, 20)
	serial := testDevice(t, 4, 20)
	for _, d := range []*Device{bulk, serial} {
		d.Write(1, 777)
	}
	rewrite := func(n int) {
		if got := bulk.RewriteN(1, n); got != n {
			t.Fatalf("RewriteN(1, %d) applied %d before the endurance crossing", n, got)
		}
		for i := 0; i < n; i++ {
			serial.Write(1, serial.Peek(1))
		}
	}
	rewrite(5)
	rewrite(1)
	if bulk.Peek(1) != 777 || bulk.Wear(1) != serial.Wear(1) || bulk.writes != serial.writes {
		t.Fatalf("bulk state diverges: payload %d wear %d/%d writes %d/%d",
			bulk.Peek(1), bulk.Wear(1), serial.Wear(1), bulk.writes, serial.writes)
	}
	if bulk.FailedPages() != 0 {
		t.Fatalf("premature failure log: %d entries", bulk.FailedPages())
	}
	// 7 of 20 writes spent; a 100-write request must clamp at the 13 left.
	if got := bulk.RewriteN(1, 100); got != 13 {
		t.Fatalf("RewriteN clamp applied %d, want 13", got)
	}
	if bulk.FailedPages() != 1 || bulk.FailureAt(0) != 1 {
		t.Fatalf("endurance crossing not logged: %d failures", bulk.FailedPages())
	}
	// Writes to an already-failed page keep counting, without re-logging.
	if got := bulk.RewriteN(1, 3); got != 3 {
		t.Fatalf("post-failure RewriteN applied %d, want 3", got)
	}
	if bulk.FailedPages() != 1 {
		t.Fatalf("dead page re-logged: %d failures", bulk.FailedPages())
	}
	if bulk.Wear(1) != 23 || bulk.Peek(1) != 777 {
		t.Fatalf("post-failure wear %d payload %d, want 23 / 777", bulk.Wear(1), bulk.Peek(1))
	}
	if got := bulk.RewriteN(1, 0); got != 0 {
		t.Fatalf("RewriteN(1, 0) applied %d", got)
	}
}

func TestTotalEndurance(t *testing.T) {
	geom := Geometry{Pages: 3, PageSize: 4096, LineSize: 128, Ranks: 1, Banks: 1}
	d, err := NewDevice(geom, DefaultTiming(), []uint64{5, 7, 9})
	if err != nil {
		t.Fatal(err)
	}
	if d.TotalEndurance() != 21 {
		t.Fatalf("TotalEndurance = %d, want 21", d.TotalEndurance())
	}
}

func TestSummary(t *testing.T) {
	geom := Geometry{Pages: 2, PageSize: 4096, LineSize: 128, Ranks: 1, Banks: 1}
	d, _ := NewDevice(geom, DefaultTiming(), []uint64{10, 100})
	for i := 0; i < 5; i++ {
		d.Write(0, 0)
	}
	for i := 0; i < 20; i++ {
		d.Write(1, 0)
	}
	s := d.Summary()
	if s.TotalWear != 25 {
		t.Fatalf("TotalWear = %d, want 25", s.TotalWear)
	}
	if s.MaxWear != 20 || s.MaxWearPage != 1 {
		t.Fatalf("MaxWear = %d@%d, want 20@1", s.MaxWear, s.MaxWearPage)
	}
	// Fractions: page0 = 0.5, page1 = 0.2 → max fraction on page 0.
	if s.MaxFractionPage != 0 || s.MaxFraction != 0.5 {
		t.Fatalf("MaxFraction = %v@%d, want 0.5@0", s.MaxFraction, s.MaxFractionPage)
	}
	if s.MeanFraction != 0.35 {
		t.Fatalf("MeanFraction = %v, want 0.35", s.MeanFraction)
	}
}

func TestWearHistogram(t *testing.T) {
	geom := Geometry{Pages: 4, PageSize: 4096, LineSize: 128, Ranks: 1, Banks: 1}
	d, _ := NewDevice(geom, DefaultTiming(), []uint64{10, 10, 10, 10})
	// Fractions: 0.0, 0.2, 0.5, 1.0
	for i := 0; i < 2; i++ {
		d.Write(1, 0)
	}
	for i := 0; i < 5; i++ {
		d.Write(2, 0)
	}
	for i := 0; i < 10; i++ {
		d.Write(3, 0)
	}
	h := d.WearHistogram(4) // buckets [0,.25) [.25,.5) [.5,.75) [.75,1]
	want := []int{2, 0, 1, 1}
	for i := range want {
		if h[i] != want[i] {
			t.Fatalf("histogram = %v, want %v", h, want)
		}
	}
	if d.WearHistogram(0) != nil {
		t.Fatal("zero-bucket histogram should be nil")
	}
}

func TestReset(t *testing.T) {
	d := testDevice(t, 4, 2)
	d.Write(0, 7)
	d.Write(0, 7)
	d.Read(0)
	if _, failed := d.Failed(); !failed {
		t.Fatal("setup: expected failure")
	}
	d.Reset()
	if _, failed := d.Failed(); failed {
		t.Fatal("failure survived Reset")
	}
	if d.TotalWrites() != 0 || d.TotalReads() != 0 || d.Wear(0) != 0 || d.Peek(0) != 0 {
		t.Fatal("counters survived Reset")
	}
	if d.Endurance(0) != 2 {
		t.Fatal("endurance map lost in Reset")
	}
}

func BenchmarkDeviceWrite(b *testing.B) {
	geom := Geometry{Pages: 1 << 14, PageSize: 4096, LineSize: 128, Ranks: 4, Banks: 32}
	end := make([]uint64, geom.Pages)
	for i := range end {
		end[i] = MaxEndurance
	}
	d, err := NewDevice(geom, DefaultTiming(), end)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Write(i&(1<<14-1), uint64(i))
	}
}

// TestEnduranceLimit pins the constructor's width gates: endurance in
// [1, MaxEndurance] and at most MaxPages physical pages.
func TestEnduranceLimit(t *testing.T) {
	geom := Geometry{Pages: 2, PageSize: 4096, LineSize: 128, Ranks: 1, Banks: 1}
	if _, err := NewDevice(geom, DefaultTiming(), []uint64{1, MaxEndurance + 1}); err == nil {
		t.Fatal("NewDevice accepted endurance above MaxEndurance")
	}
	if _, err := NewDevice(geom, DefaultTiming(), []uint64{1, MaxEndurance}); err != nil {
		t.Fatalf("NewDevice rejected endurance at MaxEndurance: %v", err)
	}
	if _, err := NewDevice(geom, DefaultTiming(), []uint64{0, 1}); err == nil {
		t.Fatal("NewDevice accepted zero endurance")
	}
	geom.Pages = MaxPages
	geom.SparePages = 1
	if _, err := NewDevice(geom, DefaultTiming(), nil); err == nil || !strings.Contains(err.Error(), "limit") {
		t.Fatalf("NewDevice over MaxPages: err = %v, want the page limit", err)
	}
}

// TestEnduranceMapCopies is the mutation-safety regression test: the map a
// caller receives must be a copy, so sorting or zeroing it cannot corrupt
// the device's ground truth (this was an aliasing bug — schemes sort their
// "copy" of the endurance map during construction).
func TestEnduranceMapCopies(t *testing.T) {
	geom := Geometry{Pages: 8, PageSize: 4096, LineSize: 128, Ranks: 1, Banks: 1, SparePages: 2}
	end := make([]uint64, geom.TotalPages())
	for i := range end {
		end[i] = 100 + uint64(i)
	}
	d, err := NewDevice(geom, DefaultTiming(), end)
	if err != nil {
		t.Fatal(err)
	}
	m := d.EnduranceMap()
	if len(m) != 8 {
		t.Fatalf("EnduranceMap covers %d pages, want visible 8", len(m))
	}
	for i := range m {
		m[i] = 1
	}
	if d.Endurance(3) != 103 {
		t.Fatalf("mutating the returned map changed device endurance to %d", d.Endurance(3))
	}
	if got := d.EnduranceMap()[3]; got != 103 {
		t.Fatalf("second EnduranceMap call sees %d, want 103", got)
	}
}

// TestFootprintAccounting pins the bytes-per-page layout audit: 16 B/page
// (uint32 wear and endurance, uint64 payload) until a retirement
// materializes the redirect table.
func TestFootprintAccounting(t *testing.T) {
	geom := Geometry{Pages: 100, PageSize: 4096, LineSize: 128, Ranks: 1, Banks: 1, SparePages: 4}
	end := make([]uint64, geom.TotalPages())
	for i := range end {
		end[i] = 1000
	}
	d, err := NewDevice(geom, DefaultTiming(), end)
	if err != nil {
		t.Fatal(err)
	}
	if f := d.Footprint(); f.Total() != 104*16 || f.PerPage(104) != 16 {
		t.Fatalf("footprint %+v, want 16 B/page over 104 pages", f)
	}
	for i := 0; i < 1000; i++ {
		d.Write(7, 1)
	}
	if err := d.Remap(7, 100); err != nil {
		t.Fatal(err)
	}
	if got := d.Footprint().Redirect; got != 104*8+104 {
		t.Fatalf("redirect footprint %d bytes, want %d", got, 104*8+104)
	}
}

// TestWriteNOverflowClamp pins the failure clamp at the endurance ceiling:
// a bulk write far larger than the page's headroom must stop at exactly
// the failing write and log the failure.
func TestWriteNOverflowClamp(t *testing.T) {
	geom := Geometry{Pages: 2, PageSize: 4096, LineSize: 128, Ranks: 1, Banks: 1}
	d, err := NewDevice(geom, DefaultTiming(), []uint64{MaxEndurance, MaxEndurance})
	if err != nil {
		t.Fatal(err)
	}
	if got := d.WriteN(0, 1, MaxEndurance-3); got != MaxEndurance-3 {
		t.Fatalf("WriteN ramp applied %d, want MaxEndurance-3", got)
	}
	if got := d.WriteN(0, 42, 1<<40); got != 3 {
		t.Fatalf("WriteN at the boundary applied %d, want 3", got)
	}
	if w := d.Wear(0); w != MaxEndurance {
		t.Fatalf("wear = %d, want MaxEndurance", w)
	}
	if page, failed := d.Failed(); !failed || page != 0 {
		t.Fatalf("Failed = %d/%v, want 0/true", page, failed)
	}
	d.RewriteN(1, MaxEndurance-3)
	if got := d.RewriteN(1, 1<<40); got != 3 {
		t.Fatalf("RewriteN at the boundary applied %d, want 3", got)
	}
	if d.FailedPages() != 2 {
		t.Fatalf("failed pages = %d, want 2", d.FailedPages())
	}
}

// TestWriteNWearCeiling: bulk writes to a dead page keep counting wear up
// to the uint32 ceiling and no further. Past it nothing is applied, so wear
// never wraps and total wear still equals TotalWrites.
func TestWriteNWearCeiling(t *testing.T) {
	d := testDevice(t, 2, 10)
	if got := d.WriteN(0, 1, 20); got != 10 {
		t.Fatalf("WriteN applied %d, want the 10 up to failure", got)
	}
	if got := d.WriteN(0, 100, 1<<32); got != math.MaxUint32-10 {
		t.Fatalf("WriteN on a dead page applied %d, want %d", got, math.MaxUint32-10)
	}
	if w, p := d.Wear(0), d.Peek(0); w != math.MaxUint32 || p != 100+math.MaxUint32-11 {
		t.Fatalf("wear %d payload %d, want %d / %d", w, p, uint64(math.MaxUint32), uint64(100+math.MaxUint32-11))
	}
	if got := d.WriteN(0, 7, 5); got != 0 {
		t.Fatalf("WriteN at the wear ceiling applied %d, want 0", got)
	}
	if got := d.RewriteN(0, 5); got != 0 {
		t.Fatalf("RewriteN at the wear ceiling applied %d, want 0", got)
	}
	if d.Peek(0) != 100+math.MaxUint32-11 {
		t.Fatal("a write that applied nothing changed the payload")
	}
	if sum := d.Wear(0) + d.Wear(1); sum != d.TotalWrites() {
		t.Fatalf("total wear %d != TotalWrites %d", sum, d.TotalWrites())
	}
	if d.FailedPages() != 1 {
		t.Fatalf("failed pages = %d, want 1", d.FailedPages())
	}
}

// TestWatermarkNearLimits exercises MinRemainingAtLeast with endurance at
// MaxEndurance: the watermark arithmetic must stay exact.
func TestWatermarkNearLimits(t *testing.T) {
	geom := Geometry{Pages: 4, PageSize: 4096, LineSize: 128, Ranks: 1, Banks: 1}
	end := []uint64{MaxEndurance, MaxEndurance - 1, MaxEndurance, MaxEndurance}
	d, err := NewDevice(geom, DefaultTiming(), end)
	if err != nil {
		t.Fatal(err)
	}
	if !d.MinRemainingAtLeast(MaxEndurance - 1) {
		t.Fatal("fresh device must have MaxEndurance-1 remaining everywhere")
	}
	if d.MinRemainingAtLeast(MaxEndurance) {
		t.Fatal("page 1 cannot absorb MaxEndurance writes")
	}
	d.Write(1, 7)
	if d.MinRemainingAtLeast(MaxEndurance - 1) {
		t.Fatal("after one write page 1 has MaxEndurance-2 remaining")
	}
	if !d.MinRemainingAtLeast(MaxEndurance - 2) {
		t.Fatal("watermark lost the exact minimum")
	}
	// A page driven to the wear ceiling reports zero headroom, not a
	// wrapped value.
	d.WriteN(2, 0, 1<<33)
	d.WriteN(2, 0, 1<<33)
	if d.Wear(2) != math.MaxUint32 || d.Remaining(2) != 0 || d.MinRemainingAtLeast(1) {
		t.Fatalf("dead page at the ceiling: wear %d, Remaining %d", d.Wear(2), d.Remaining(2))
	}
}

// TestGeometryValidateFullScale accepts the paper's real geometry and
// rejects degenerate full-scale variants.
func TestGeometryValidateFullScale(t *testing.T) {
	g := DefaultGeometry()
	if g.Pages != 8<<20 {
		t.Fatalf("full geometry has %d pages, want 8Mi", g.Pages)
	}
	g.SparePages = g.Pages / 50
	if err := g.Validate(); err != nil {
		t.Fatalf("full geometry with spares invalid: %v", err)
	}
	if g.TotalPages() != 8<<20+(8<<20)/50 {
		t.Fatalf("TotalPages = %d", g.TotalPages())
	}
	g.SparePages = -1
	if err := g.Validate(); err == nil {
		t.Fatal("negative spare pool unexpectedly valid")
	}
}
