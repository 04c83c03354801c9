// Package secref implements Security Refresh (Seong et al., ISCA 2010),
// the paper's representative of traditional (PV-oblivious) wear leveling
// with dynamically randomized address mapping — "SR" in Figures 6, 8 and 9.
//
// The address space is split into regions. Each region remaps addresses by
// XOR with a region key. A refresh pointer sweeps the region: every
// RefreshInterval demand writes to the region, the next address is
// re-mapped from the retiring key to a freshly drawn key, physically
// swapping two pages (the address and its XOR-partner under the key
// difference). When the sweep completes, the old key retires, a new random
// key is drawn and the sweep restarts, so the logical→physical mapping
// performs a continuous random walk that an attacker cannot pin down.
//
// Because SR is PV-oblivious it drives all pages toward *uniform* wear, so
// its lifetime is bounded by the weakest page — the paper measures ≈44% of
// ideal lifetime (Figure 8) and ≈2.8 years under attack (Figure 6).
package secref

import (
	"fmt"
	"io"
	"math/bits"

	"twl/internal/pcm"
	"twl/internal/rng"
	"twl/internal/snap"
	"twl/internal/wl"
)

// Config parameterizes Security Refresh.
type Config struct {
	// Regions is the number of independently-keyed regions. Must divide the
	// page count; pages-per-region must be a power of two.
	Regions int
	// RefreshInterval is the number of demand writes to a region between
	// refresh steps (the paper's "refresh rate"). Lower is stronger but
	// costs more swap writes: the steady-state overhead is ~1/RefreshInterval
	// extra writes (each refresh step swaps two pages = 2 writes, and a
	// full sweep refreshes two addresses per step on average).
	RefreshInterval int
	// Seed drives key generation.
	Seed uint64
}

// DefaultConfig returns a single-region SR with the interval the paper's
// comparison fixes for inter-pair swaps (128), giving SR the same
// maintenance-write budget as TWL.
func DefaultConfig(seed uint64) Config {
	return Config{Regions: 1, RefreshInterval: 128, Seed: seed}
}

type region struct {
	base     int // first logical page of the region
	size     int // pages (power of two)
	mask     int // size - 1
	keyOld   int
	keyNew   int
	sweep    int // next offset to refresh; [0, size]
	sinceRef int // demand writes since last refresh step
}

// snapshot serializes the region's mutable state (keys, sweep position,
// interval counter); base/size/mask are geometry fixed at construction.
func (r *region) snapshot(sw *snap.Writer) {
	sw.Int(r.keyOld)
	sw.Int(r.keyNew)
	sw.Int(r.sweep)
	sw.Int(r.sinceRef)
}

// restore loads state written by snapshot and validates key/sweep ranges.
func (r *region) restore(sr *snap.Reader) error {
	r.keyOld = sr.Int()
	r.keyNew = sr.Int()
	r.sweep = sr.Int()
	r.sinceRef = sr.Int()
	if err := sr.Err(); err != nil {
		return err
	}
	if r.keyOld < 0 || r.keyOld > r.mask || r.keyNew < 0 || r.keyNew > r.mask {
		return fmt.Errorf("secref: restored keys %d/%d outside region size %d", r.keyOld, r.keyNew, r.size)
	}
	if r.sweep < 0 || r.sweep > r.size {
		return fmt.Errorf("secref: restored sweep %d outside [0,%d]", r.sweep, r.size)
	}
	return nil
}

// phys returns the physical offset (within the region) for logical offset o.
func (r *region) phys(o int) int {
	if r.refreshed(o) {
		return o ^ r.keyNew
	}
	return o ^ r.keyOld
}

// refreshed reports whether offset o currently maps under the new key:
// either the sweep passed o, or it passed o's swap partner (refreshing one
// member of a pair moves both).
func (r *region) refreshed(o int) bool {
	d := r.keyOld ^ r.keyNew
	return o < r.sweep || (o^d) < r.sweep
}

// Scheme is a Security Refresh wear leveler.
type Scheme struct {
	dev     *pcm.Device // snap: device state is checkpointed by the sim layer
	cfg     Config      // snap: construction input
	regions []region
	src     *rng.Xorshift
	stats   wl.Stats

	// composed caches the full la → pa mapping. The per-region XOR mapping
	// is frozen between refresh steps and each step re-maps exactly one
	// address pair, so the cache is maintained with two entry updates per
	// step and lets the bulk paths resolve addresses with one table load.
	// CheckInvariants verifies it against the live computation.
	composed []int // snap: rebuilt from region keys on Restore
}

// New builds a Security Refresh scheme over dev.
func New(dev *pcm.Device, cfg Config) (*Scheme, error) {
	if cfg.Regions <= 0 {
		return nil, fmt.Errorf("secref: Regions must be positive: %w", wl.ErrBadConfig)
	}
	if cfg.RefreshInterval <= 0 {
		return nil, fmt.Errorf("secref: RefreshInterval must be positive: %w", wl.ErrBadConfig)
	}
	pages := dev.Pages()
	if pages%cfg.Regions != 0 {
		return nil, fmt.Errorf("secref: %d regions do not divide %d pages: %w", cfg.Regions, pages, wl.ErrBadConfig)
	}
	size := pages / cfg.Regions
	if bits.OnesCount(uint(size)) != 1 {
		return nil, fmt.Errorf("secref: region size %d is not a power of two: %w", size, wl.ErrBadConfig)
	}
	s := &Scheme{
		dev: dev,
		cfg: cfg,
		src: rng.NewXorshift(cfg.Seed),
	}
	s.regions = make([]region, cfg.Regions)
	for i := range s.regions {
		r := &s.regions[i]
		r.base = i * size
		r.size = size
		r.mask = size - 1
		// Start with identity (keyOld = 0) and a random first target key so
		// the very first sweep already randomizes the layout.
		r.keyOld = 0
		r.keyNew = s.src.Intn(size)
	}
	s.composed = make([]int, pages)
	for la := range s.composed {
		r, o := s.locate(la)
		s.composed[la] = r.base + r.phys(o)
	}
	return s, nil
}

// Name implements wl.Scheme.
func (s *Scheme) Name() string { return "SR" }

// locate splits a logical address into its region and offset.
func (s *Scheme) locate(la int) (*region, int) {
	size := s.regions[0].size
	ri := la / size
	return &s.regions[ri], la & s.regions[ri].mask
}

// Write implements wl.Scheme.
func (s *Scheme) Write(la int, tag uint64) wl.Cost {
	cost := wl.Cost{ExtraCycles: wl.ControlCycles + wl.TableCycles}
	r, o := s.locate(la)
	pa := r.base + r.phys(o)
	s.dev.Write(pa, tag)
	cost.DeviceWrites = 1
	s.stats.DemandWrites++

	r.sinceRef++
	if r.sinceRef >= s.cfg.RefreshInterval {
		r.sinceRef = 0
		cost.Add(s.refreshStep(r))
	}
	return cost
}

// WriteRun implements wl.RunWriter: a same-address run stays in one region
// and hits one physical page (the mapping is frozen between refresh steps),
// so the event-free prefix — RefreshInterval − sinceRef − 1 writes — is one
// bulk device write.
//
//twl:hotpath
func (s *Scheme) WriteRun(la int, tag uint64, n int) (wl.Cost, int) {
	r, _ := s.locate(la)
	k := s.cfg.RefreshInterval - r.sinceRef - 1
	if k <= 0 {
		return wl.Cost{}, 0
	}
	if n < k {
		k = n
	}
	applied := s.dev.WriteN(s.composed[la], tag, k)
	s.stats.DemandWrites += uint64(applied)
	r.sinceRef += applied
	return wl.Cost{DeviceWrites: 1, ExtraCycles: wl.ControlCycles + wl.TableCycles}, applied
}

// WriteSweep implements wl.SweepWriter. The sweep is clamped to the current
// region (each region counts its own demand writes) and to that region's
// event-free budget; the physical addresses come straight from the composed
// la → pa cache, which is contiguous in la, so the whole batch is one
// gather-write over a cache slice.
//
//twl:hotpath
func (s *Scheme) WriteSweep(la int, tag uint64, n int) (wl.Cost, int) {
	r, o := s.locate(la)
	k := s.cfg.RefreshInterval - r.sinceRef - 1
	if k <= 0 {
		return wl.Cost{}, 0
	}
	if rem := r.size - o; k > rem {
		k = rem
	}
	if n < k {
		k = n
	}
	applied := s.dev.WriteSeq(s.composed[la:la+k], tag)
	s.stats.DemandWrites += uint64(applied)
	r.sinceRef += applied
	return wl.Cost{DeviceWrites: 1, ExtraCycles: wl.ControlCycles + wl.TableCycles}, applied
}

// refreshStep advances the region's sweep by one address, swapping the pair
// of physical pages that the key change displaces.
func (s *Scheme) refreshStep(r *region) wl.Cost {
	var cost wl.Cost
	cost.ExtraCycles = wl.ControlCycles + wl.RNGCycles

	if r.sweep >= r.size {
		// Sweep complete: retire the old key, draw a fresh one, restart.
		r.keyOld = r.keyNew
		r.keyNew = s.src.Intn(r.size)
		r.sweep = 0
	}

	o := r.sweep
	d := r.keyOld ^ r.keyNew
	partner := o ^ d
	if d != 0 && partner >= o {
		// Swap the physical pages backing o and partner. Under XOR
		// remapping, o's new physical slot is partner's old one and vice
		// versa, so this is a plain two-page exchange.
		paO := r.base + (o ^ r.keyOld)
		paP := r.base + (o ^ r.keyNew) // == partner ^ keyOld
		if paO != paP {
			tmpO := s.dev.Peek(paO)
			tmpP := s.dev.Peek(paP)
			s.dev.Write(paO, tmpP)
			s.dev.Write(paP, tmpO)
			cost.DeviceWrites += 2
			cost.DeviceReads += 2
			cost.Blocked = true
			s.stats.Swaps++
			s.stats.SwapWrites += 2
		}
	}
	r.sweep++
	// The step re-mapped offsets o and o^d (both now under the new key);
	// refresh their composed entries. Key retirement at the top of the step
	// moves no address (every offset is refreshed at that point), so these
	// two updates are the only ones the cache ever needs.
	s.composed[r.base+o] = r.base + (o ^ r.keyNew)
	if d != 0 {
		s.composed[r.base+partner] = r.base + (partner ^ r.keyNew)
	}
	return cost
}

// Read implements wl.Scheme.
func (s *Scheme) Read(la int) (uint64, wl.Cost) {
	s.stats.DemandReads++
	r, o := s.locate(la)
	pa := r.base + r.phys(o)
	return s.dev.Read(pa), wl.Cost{DeviceReads: 1, ExtraCycles: wl.TableCycles}
}

// ReadN implements wl.Scheme.
func (s *Scheme) ReadN(n int) wl.Cost {
	s.stats.DemandReads += uint64(n)
	s.dev.CountReads(n)
	return wl.Cost{DeviceReads: 1, ExtraCycles: wl.TableCycles}
}

// Stats implements wl.Scheme.
func (s *Scheme) Stats() wl.Stats { return s.stats }

// Device implements wl.Scheme.
func (s *Scheme) Device() *pcm.Device { return s.dev }

// CheckInvariants implements wl.Checker: the XOR mapping must be a bijection
// per region (it is by construction, but the refreshed() predicate could
// break it if the sweep bookkeeping were wrong), and wear must be conserved.
func (s *Scheme) CheckInvariants() error {
	for i := range s.regions {
		r := &s.regions[i]
		seen := make([]bool, r.size)
		for o := 0; o < r.size; o++ {
			p := r.phys(o)
			if p < 0 || p >= r.size {
				return fmt.Errorf("secref: region %d offset %d maps out of range: %d", i, o, p)
			}
			if seen[p] {
				return fmt.Errorf("secref: region %d physical offset %d claimed twice", i, p)
			}
			seen[p] = true
			if s.composed[r.base+o] != r.base+p {
				return fmt.Errorf("secref: composed cache stale: LA %d cached %d, live %d",
					r.base+o, s.composed[r.base+o], r.base+p)
			}
		}
	}
	want := s.stats.DemandWrites + s.stats.SwapWrites
	if got := s.dev.TotalWrites(); got != want {
		return fmt.Errorf("secref: device writes %d != demand %d + swap %d",
			got, s.stats.DemandWrites, s.stats.SwapWrites)
	}
	return nil
}

// Snapshot implements wl.Snapshotter: per-region key/sweep state, the key
// RNG position and the stats.
func (s *Scheme) Snapshot(w io.Writer) error {
	sw := snap.NewWriter(w)
	sw.Int(len(s.regions))
	for i := range s.regions {
		s.regions[i].snapshot(sw)
	}
	if err := sw.Err(); err != nil {
		return err
	}
	if err := s.src.Snapshot(w); err != nil {
		return err
	}
	return s.stats.Snapshot(w)
}

// Restore implements wl.Snapshotter; the composed la → pa cache is rebuilt
// from the restored keys.
func (s *Scheme) Restore(r io.Reader) error {
	sr := snap.NewReader(r)
	if n := sr.Int(); sr.Err() == nil && n != len(s.regions) {
		return fmt.Errorf("secref: checkpoint has %d regions, scheme has %d", n, len(s.regions))
	}
	if err := sr.Err(); err != nil {
		return err
	}
	for i := range s.regions {
		if err := s.regions[i].restore(sr); err != nil {
			return err
		}
	}
	if err := s.src.Restore(r); err != nil {
		return err
	}
	if err := s.stats.Restore(r); err != nil {
		return err
	}
	for la := range s.composed {
		reg, o := s.locate(la)
		s.composed[la] = reg.base + reg.phys(o)
	}
	return nil
}
