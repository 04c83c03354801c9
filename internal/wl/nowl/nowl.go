// Package nowl implements the "no wear leveling" baseline (NOWL in the
// paper's figures): logical addresses map to physical pages identically and
// no swaps ever occur. It anchors both ends of the evaluation — the ideal
// lifetime for uniform workloads and near-zero lifetime under the repeat
// attack.
package nowl

import (
	"io"

	"twl/internal/pcm"
	"twl/internal/wl"
)

// Scheme is the identity-mapping baseline.
type Scheme struct {
	dev   *pcm.Device // snap: device state is checkpointed by the sim layer
	stats wl.Stats
}

// New returns a NOWL scheme over dev.
func New(dev *pcm.Device) *Scheme {
	return &Scheme{dev: dev}
}

// Name implements wl.Scheme.
func (s *Scheme) Name() string { return "NOWL" }

// Write implements wl.Scheme: the logical page is the physical page.
func (s *Scheme) Write(la int, tag uint64) wl.Cost {
	s.dev.Write(la, tag)
	s.stats.DemandWrites++
	return wl.Cost{DeviceWrites: 1}
}

// WriteRun implements wl.RunWriter. NOWL has no internal events, so the
// whole run is absorbed in one bulk device write (modulo mid-run failure).
//
//twl:hotpath
func (s *Scheme) WriteRun(la int, tag uint64, n int) (wl.Cost, int) {
	applied := s.dev.WriteN(la, tag, n)
	s.stats.DemandWrites += uint64(applied)
	return wl.Cost{DeviceWrites: 1}, applied
}

// WriteSweep implements wl.SweepWriter: the identity mapping turns a logical
// sweep into a physical range write.
//
//twl:hotpath
func (s *Scheme) WriteSweep(la int, tag uint64, n int) (wl.Cost, int) {
	applied := s.dev.WriteRange(la, tag, n)
	s.stats.DemandWrites += uint64(applied)
	return wl.Cost{DeviceWrites: 1}, applied
}

// Read implements wl.Scheme.
func (s *Scheme) Read(la int) (uint64, wl.Cost) {
	s.stats.DemandReads++
	return s.dev.Read(la), wl.Cost{DeviceReads: 1}
}

// ReadN implements wl.Scheme.
func (s *Scheme) ReadN(n int) wl.Cost {
	s.stats.DemandReads += uint64(n)
	s.dev.CountReads(n)
	return wl.Cost{DeviceReads: 1}
}

// Stats implements wl.Scheme.
func (s *Scheme) Stats() wl.Stats { return s.stats }

// Device implements wl.Scheme.
func (s *Scheme) Device() *pcm.Device { return s.dev }

// CheckInvariants implements wl.Checker (trivially: there is no state).
func (s *Scheme) CheckInvariants() error { return nil }

// Snapshot implements wl.Snapshotter: the only scheme state is the stats.
func (s *Scheme) Snapshot(w io.Writer) error { return s.stats.Snapshot(w) }

// Restore implements wl.Snapshotter.
func (s *Scheme) Restore(r io.Reader) error { return s.stats.Restore(r) }
