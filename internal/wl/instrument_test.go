package wl

import (
	"errors"
	"testing"

	"twl/internal/obs"
)

// blockyScheme reports every third write as blocked, to exercise the
// blocked counter.
type blockyScheme struct {
	fakeScheme
	n int
}

func (b *blockyScheme) Write(la int, tag uint64) Cost {
	b.n++
	return Cost{DeviceWrites: 1, Blocked: b.n%3 == 0}
}

func (b *blockyScheme) CheckInvariants() error { return errors.New("checked") }

func TestInstrumentRecordsMetrics(t *testing.T) {
	dev := testDevice(t, 8)
	reg := obs.NewRegistry()
	s := Instrument(&blockyScheme{fakeScheme: fakeScheme{name: "Fake", dev: dev}}, reg)
	for i := 0; i < 9; i++ {
		s.Write(i%8, uint64(i))
	}
	s.Read(0)

	writes := reg.Counter("twl_scheme_requests_total", obs.L("scheme", "Fake"), obs.L("op", "write"))
	reads := reg.Counter("twl_scheme_requests_total", obs.L("scheme", "Fake"), obs.L("op", "read"))
	blocked := reg.Counter("twl_scheme_blocked_total", obs.L("scheme", "Fake"))
	if writes.Value() != 9 || reads.Value() != 1 {
		t.Fatalf("writes=%d reads=%d, want 9/1", writes.Value(), reads.Value())
	}
	if blocked.Value() != 3 {
		t.Fatalf("blocked=%d, want 3", blocked.Value())
	}
	h := reg.Histogram("twl_scheme_request_cycles", obs.DefaultLatencyBuckets(), obs.L("scheme", "Fake"))
	if h.Count() != 10 {
		t.Fatalf("latency observations=%d, want 10", h.Count())
	}
}

// TestInstrumentPreservesChecker: the instrumented scheme's invariant check
// delegates to the original.
func TestInstrumentPreservesChecker(t *testing.T) {
	dev := testDevice(t, 8)
	s := Instrument(&blockyScheme{fakeScheme: fakeScheme{name: "C", dev: dev}}, obs.NewRegistry())
	if err := s.CheckInvariants(); err == nil || err.Error() != "checked" {
		t.Fatalf("CheckInvariants not delegated: %v", err)
	}
}
