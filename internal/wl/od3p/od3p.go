// Package od3p implements On-Demand Page Paired PCM (Asadinia et al.,
// DAC 2014 — the paper's reference [1]), the related-work scheme that
// handles process-variation failures *reactively*: instead of preventing
// weak pages from wearing out, it lets pages fail and then pairs each
// failed page on demand with a healthy partner, so the memory degrades
// gracefully instead of dying at the first failure.
//
// This complements the wear-leveling schemes: degradation experiments use
// it to study the post-first-failure regime, whereas the paper's lifetime
// metric (and Figures 6–8) stops at the first failure.
//
// Modeling note: in real OD3P a failed page still stores data in its
// surviving lines while its pair partner absorbs the program stress; at
// page granularity this is modeled as (a) all write wear for a failed
// page's owner landing on the partner, and (b) the owner's payload living
// in the pairing store (the joint capacity of the pair). The partner keeps
// serving its own owner unaffected.
package od3p

import (
	"fmt"

	"twl/internal/pcm"
	"twl/internal/tables"
	"twl/internal/wl"
)

// Config parameterizes OD3P.
type Config struct {
	// MaxHosted bounds how many failed owners one healthy page may host.
	MaxHosted int
}

// DefaultConfig returns the default OD3P configuration.
func DefaultConfig() Config {
	return Config{MaxHosted: 1}
}

// Scheme is an OD3P memory manager.
type Scheme struct {
	dev   *pcm.Device // snap: device state is checkpointed by the sim layer
	cfg   Config      // snap: construction input
	rt    *tables.Remap
	stats wl.Stats

	// buddy[pa] is the physical partner absorbing pa's write stress after
	// pa failed (-1 while healthy). If the partner fails too, a fresh one
	// is assigned directly.
	buddy []int
	// hosted[pa] counts how many failed owners pa currently hosts.
	hosted []int
	// store holds the payloads of failed pages' owners (the pair's joint
	// capacity), keyed by the failed physical page.
	store map[int]uint64
	// byStrength: pages by descending endurance, the spare-selection order.
	byStrength []int // snap: derived from the endurance map at New
	pairings   uint64
	// exhausted is set when a pairing was needed but no spare existed.
	exhausted bool
}

// New builds an OD3P scheme over dev.
func New(dev *pcm.Device, cfg Config) (*Scheme, error) {
	if cfg.MaxHosted <= 0 {
		return nil, fmt.Errorf("od3p: MaxHosted must be positive: %w", wl.ErrBadConfig)
	}
	asc := wl.SortByEndurance(dev.EnduranceMap())
	desc := make([]int, len(asc))
	for i, p := range asc {
		desc[len(asc)-1-i] = p
	}
	b := make([]int, dev.Pages())
	for i := range b {
		b[i] = -1
	}
	return &Scheme{
		dev:        dev,
		cfg:        cfg,
		rt:         tables.NewRemap(dev.Pages()),
		buddy:      b,
		hosted:     make([]int, dev.Pages()),
		store:      map[int]uint64{},
		byStrength: desc,
	}, nil
}

var _ wl.Scheme = (*Scheme)(nil)
var _ wl.SweepWriter = (*Scheme)(nil)

// Name implements wl.Scheme.
func (s *Scheme) Name() string { return "OD3P" }

// dead reports whether a physical page has exhausted its endurance.
func (s *Scheme) dead(pp int) bool { return s.dev.Remaining(pp) == 0 }

// Write implements wl.Scheme.
func (s *Scheme) Write(la int, tag uint64) wl.Cost {
	cost := wl.Cost{ExtraCycles: wl.ControlCycles + wl.TableCycles}
	pa := s.rt.Phys(la)
	s.stats.DemandWrites++

	if !s.dead(pa) {
		s.dev.Write(pa, tag)
		cost.DeviceWrites++
		return cost
	}

	// pa has failed: its owner is served by a partner. (Re)pair if needed.
	b := s.buddy[pa]
	if b < 0 || s.dead(b) {
		nb, ok := s.pickSpare()
		if !ok {
			// No healthy spare left: capacity is exhausted; the write is
			// absorbed by the dead page (data loss in a real system).
			s.exhausted = true
			s.dev.Write(pa, tag)
			cost.DeviceWrites++
			return cost
		}
		if b >= 0 {
			s.hosted[b]--
		}
		// The pairing migration programs the partner once (laying out the
		// pair's joint data).
		s.dev.Write(nb, s.dev.Peek(nb))
		cost.DeviceWrites++
		cost.DeviceReads++
		cost.Blocked = true
		s.stats.Swaps++
		s.stats.SwapWrites++
		s.buddy[pa] = nb
		s.hosted[nb]++
		s.pairings++
		b = nb
	}
	// The owner's payload lives in the pair store; the program stress lands
	// on the partner (rewriting its own payload keeps the partner's owner
	// intact in the page-granularity model).
	s.store[pa] = tag
	s.dev.Write(b, s.dev.Peek(b))
	cost.DeviceWrites++
	return cost
}

// eventFreeCost is the uniform per-write cost of every non-pairing path:
// healthy writes, hosted writes (the partner rewrites its own payload) and
// post-exhaustion writes all touch the device once under the same table and
// control latency, unblocked. The only event is the pairing itself.
func eventFreeCost() wl.Cost {
	return wl.Cost{DeviceWrites: 1, ExtraCycles: wl.ControlCycles + wl.TableCycles}
}

// WriteRun implements wl.RunWriter. OD3P never remaps (the table stays the
// identity; pairing redirects program stress, not addresses) and draws no
// randomness, so a same-address run has exactly one event to stop before:
// the blocked pairing migration, which fires on the first write to a dead
// unpaired page while a spare remains. Every other regime collapses into
// one bulk device operation — WriteN on a healthy page (clamping at its
// endurance crossing), RewriteN on the partner of a hosted page (clamping
// at the partner's), or WriteN on the dead page itself once capacity is
// exhausted.
//
//twl:hotpath
func (s *Scheme) WriteRun(la int, tag uint64, n int) (wl.Cost, int) {
	if n <= 0 {
		return wl.Cost{}, 0
	}
	pa := s.rt.Phys(la)
	if !s.dead(pa) {
		applied := s.dev.WriteN(pa, tag, n)
		s.stats.DemandWrites += uint64(applied)
		return eventFreeCost(), applied
	}
	b := s.buddy[pa]
	if b < 0 || s.dead(b) {
		if _, ok := s.pickSpare(); ok {
			// The next write forms a pairing — a blocked event served
			// through Write.
			return wl.Cost{}, 0
		}
		// Capacity exhausted: writes are absorbed by the dead page, exactly
		// as Write would absorb each of them.
		s.exhausted = true
		applied := s.dev.WriteN(pa, tag, n)
		s.stats.DemandWrites += uint64(applied)
		return eventFreeCost(), applied
	}
	// Hosted: the owner's payload advances in the pair store while the
	// partner absorbs the program stress without changing its own data.
	applied := s.dev.RewriteN(b, n)
	s.store[pa] = tag + uint64(applied) - 1
	s.stats.DemandWrites += uint64(applied)
	return eventFreeCost(), applied
}

// WriteSweep implements wl.SweepWriter: with the identity mapping a
// consecutive-address sweep is a consecutive physical range. The bulk path
// covers the no-failure regime — while every page has wear headroom no
// write can reach the dead-page paths, and MinRemainingAtLeast keeps that
// check O(1) amortized — with WriteRange clamping at the sweep's first
// endurance crossing. Once any page is dead the per-write path takes over
// (absorbed == 0), since a sweep would interleave healthy and dead-page
// writes of differing behavior.
//
//twl:hotpath
func (s *Scheme) WriteSweep(la int, tag uint64, n int) (wl.Cost, int) {
	if n <= 0 || !s.dev.MinRemainingAtLeast(1) {
		return wl.Cost{}, 0
	}
	applied := s.dev.WriteRange(s.rt.Phys(la), tag, n)
	s.stats.DemandWrites += uint64(applied)
	return eventFreeCost(), applied
}

// pickSpare returns the healthiest page not yet at its hosting limit.
func (s *Scheme) pickSpare() (int, bool) {
	for _, cand := range s.byStrength {
		if s.dead(cand) || s.hosted[cand] >= s.cfg.MaxHosted {
			continue
		}
		return cand, true
	}
	return 0, false
}

// Read implements wl.Scheme.
func (s *Scheme) Read(la int) (uint64, wl.Cost) {
	s.stats.DemandReads++
	pa := s.rt.Phys(la)
	cost := wl.Cost{DeviceReads: 1, ExtraCycles: wl.TableCycles}
	if s.dead(pa) {
		if tag, ok := s.store[pa]; ok {
			// Charge the device read against the partner serving the pair.
			if b := s.buddy[pa]; b >= 0 {
				s.dev.Read(b)
			}
			return tag, cost
		}
	}
	return s.dev.Read(pa), cost
}

// ReadN implements wl.Scheme. Read performs exactly one device read on
// every branch: a page enters store only after Write has set its buddy, and
// buddy is never reset to -1, so the dead-page branch always reads the
// partner instead.
func (s *Scheme) ReadN(n int) wl.Cost {
	s.stats.DemandReads += uint64(n)
	s.dev.CountReads(n)
	return wl.Cost{DeviceReads: 1, ExtraCycles: wl.TableCycles}
}

// Stats implements wl.Scheme.
func (s *Scheme) Stats() wl.Stats { return s.stats }

// Device implements wl.Scheme.
func (s *Scheme) Device() *pcm.Device { return s.dev }

// Pairings returns how many on-demand pairings have been formed.
func (s *Scheme) Pairings() uint64 { return s.pairings }

// Exhausted reports whether a pairing was ever needed with no spare left.
func (s *Scheme) Exhausted() bool { return s.exhausted }

// CapacityLost returns the fraction of physical pages that have failed.
func (s *Scheme) CapacityLost() float64 {
	lost := 0
	for pa := 0; pa < s.dev.Pages(); pa++ {
		if s.dead(pa) {
			lost++
		}
	}
	return float64(lost) / float64(s.dev.Pages())
}

// CheckInvariants implements wl.Checker.
func (s *Scheme) CheckInvariants() error {
	if err := s.rt.CheckBijection(); err != nil {
		return err
	}
	hosted := make([]int, s.dev.Pages())
	for pa, b := range s.buddy {
		if b < 0 {
			continue
		}
		if b == pa {
			return fmt.Errorf("od3p: page %d is its own buddy", pa)
		}
		hosted[b]++
	}
	for pa, n := range hosted {
		if n != s.hosted[pa] {
			return fmt.Errorf("od3p: hosted count mismatch at %d: %d vs %d", pa, n, s.hosted[pa])
		}
		if n > s.cfg.MaxHosted {
			return fmt.Errorf("od3p: page %d hosts %d owners (limit %d)", pa, n, s.cfg.MaxHosted)
		}
	}
	return nil
}
