package core

import (
	"errors"
	"testing"

	"twl/internal/pcm"
	"twl/internal/wl"
	"twl/internal/wl/wltest"
)

// TestEngineConformance runs the full scheme conformance suite (data
// integrity, wear conservation, invariants, cost sanity) against the
// engine. The endurance mean is far above what the suite's workloads
// inflict, so wear-out never interferes.
func TestEngineConformance(t *testing.T) {
	wltest.Run(t, func(tb testing.TB, seed uint64) wl.Scheme {
		e, err := New(wltest.NewDevice(tb, 256, seed), DefaultConfig(seed))
		if err != nil {
			tb.Fatal(err)
		}
		return e
	})
}

// TestNewWidthLimits: configurations the engine's narrow tables cannot
// hold fail with ErrBadConfig instead of running on wider storage.
func TestNewWidthLimits(t *testing.T) {
	dev := newDevice(t, 64, 5000, 5)
	cfg := DefaultConfig(5)
	cfg.InterPairSwapInterval = MaxIPSInterval
	if _, err := New(dev, cfg); err != nil {
		t.Fatalf("interval %d rejected: %v", MaxIPSInterval, err)
	}
	cfg.InterPairSwapInterval = MaxIPSInterval + 1
	if _, err := New(dev, cfg); !errors.Is(err, wl.ErrBadConfig) {
		t.Fatalf("interval %d: err = %v, want ErrBadConfig", MaxIPSInterval+1, err)
	}

	end := make([]uint64, 64)
	for i := range end {
		end[i] = pcm.MaxEndurance
	}
	strong := newFixedDevice(t, end)
	noisy := DefaultConfig(5)
	noisy.ETNoiseSigma = 2 // about a third of the pages draw an ET past 2^32
	if _, err := New(strong, noisy); !errors.Is(err, wl.ErrBadConfig) {
		t.Fatalf("noisy ET beyond uint32: err = %v, want ErrBadConfig", err)
	}
}
