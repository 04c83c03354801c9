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

// TwoLevelConfig parameterizes two-level Security Refresh — the variant the
// ISCA 2010 paper recommends for large memories. An outer refresh remaps
// addresses across the whole array at a slow rate, and an inner refresh
// remaps within each region at a fast rate. The composition lets a small,
// cheap inner sweep protect against concentrated streams while the outer
// sweep prevents any region from becoming a permanent target.
type TwoLevelConfig struct {
	// Regions is the inner-region count; pages/Regions must be a power of
	// two, and Regions itself must divide the page count.
	Regions int
	// InnerInterval is demand writes to a region between inner refresh
	// steps.
	InnerInterval int
	// OuterInterval is demand writes (globally) between outer refresh
	// steps.
	OuterInterval int
	// Seed drives key generation.
	Seed uint64
}

// DefaultTwoLevelConfig sizes the levels for a device with pages pages and
// the given mean endurance, preserving the dimensionless leveling rates of
// a full-scale deployment: the inner sweep must complete many times within
// a page lifetime (regionSize × innerInterval ≪ endurance) and the outer
// sweep must rotate a hot address out of its region well before the region
// is exhausted.
func DefaultTwoLevelConfig(pages int, meanEndurance float64, seed uint64) TwoLevelConfig {
	regions := 8
	for pages/regions > 256 && regions < 64 {
		regions *= 2
	}
	if regions > pages/2 {
		regions = 1
	}
	regionSize := pages / regions
	// Inner sweep: a hot address must be re-placed many times within a page
	// lifetime (deposit per slot ≈ regionSize × interval / 2 ≪ endurance).
	inner := int(meanEndurance / (14 * float64(regionSize)))
	if inner < 1 {
		inner = 1
	}
	if inner > 128 {
		inner = 128
	}
	// Outer sweep: a hot address must leave its region long before the
	// region's endurance budget is dented (stay ≈ pages × interval / 2).
	outer := int(float64(regionSize) * meanEndurance / (16 * float64(pages)))
	if outer < 8 {
		outer = 8
	}
	if outer > 1024 {
		outer = 1024
	}
	return TwoLevelConfig{
		Regions:       regions,
		InnerInterval: inner,
		OuterInterval: outer,
		Seed:          seed,
	}
}

// TwoLevel is the two-level Security Refresh scheme. The logical address
// first passes the outer remap (an XOR-key mapping over the whole array
// with a sweeping re-key, exactly like the single-level scheme), producing
// an intermediate address; the intermediate address then passes the inner
// remap of its region.
type TwoLevel struct {
	dev   *pcm.Device    // snap: device state is checkpointed by the sim layer
	cfg   TwoLevelConfig // snap: construction input
	name  string         // snap: construction input
	outer region
	inner []region
	src   *rng.Xorshift
	stats wl.Stats

	sinceOuter int
	sinceInner []int

	regionShift int // snap: derived from geometry at NewTwoLevel; log2(inner region size)

	// composed caches the full la → pa mapping. The two-level mapping is
	// frozen between refresh steps, and each step re-maps exactly one
	// address pair, so the cache is maintained with two entry updates per
	// step and lets the bulk paths resolve addresses with one table load.
	// CheckInvariants verifies it against the live two-level computation.
	composed []int // snap: rebuilt from region keys on Restore
}

// NewTwoLevel builds a two-level Security Refresh scheme over dev. It is
// the paper's SR, and its Name is "SR".
func NewTwoLevel(dev *pcm.Device, cfg TwoLevelConfig) (*TwoLevel, error) {
	if cfg.Regions <= 0 {
		return nil, fmt.Errorf("secref: Regions must be positive: %w", wl.ErrBadConfig)
	}
	if cfg.InnerInterval <= 0 || cfg.OuterInterval <= 0 {
		return nil, fmt.Errorf("secref: intervals must be positive: %w", wl.ErrBadConfig)
	}
	pages := dev.Pages()
	if pages%cfg.Regions != 0 {
		return nil, fmt.Errorf("secref: %d regions do not divide %d pages: %w", cfg.Regions, pages, wl.ErrBadConfig)
	}
	size := pages / cfg.Regions
	if bits.OnesCount(uint(size)) != 1 {
		return nil, fmt.Errorf("secref: region size %d is not a power of two: %w", size, wl.ErrBadConfig)
	}
	if bits.OnesCount(uint(pages)) != 1 {
		return nil, fmt.Errorf("secref: two-level outer remap needs a power-of-two page count, got %d: %w", pages, wl.ErrBadConfig)
	}
	s := &TwoLevel{
		dev:        dev,
		cfg:        cfg,
		name:       "SR",
		src:        rng.NewXorshift(cfg.Seed),
		sinceInner: make([]int, cfg.Regions),
	}
	s.regionShift = bits.TrailingZeros(uint(size))
	s.outer = region{base: 0, size: pages, mask: pages - 1}
	s.outer.keyNew = s.src.Intn(pages)
	s.inner = make([]region, cfg.Regions)
	for i := range s.inner {
		r := &s.inner[i]
		r.base = i * size
		r.size = size
		r.mask = size - 1
		r.keyNew = s.src.Intn(size)
	}
	s.composed = make([]int, pages)
	for la := range s.composed {
		s.composed[la] = s.physical(la)
	}
	return s, nil
}

// NewFullScaleTwoLevel builds the two-level scheme at full-scale leveling
// rates — DefaultTwoLevelConfig at a mean endurance of 10⁸ — named SR2 to
// tell it apart from the endurance-rescaled SR of the lifetime experiments
// (see lifetimeScheme in experiments.go).
func NewFullScaleTwoLevel(dev *pcm.Device, seed uint64) (*TwoLevel, error) {
	s, err := NewTwoLevel(dev, DefaultTwoLevelConfig(dev.Pages(), 1e8, seed))
	if err != nil {
		return nil, err
	}
	s.name = "SR2"
	return s, nil
}

// Name implements wl.Scheme: "SR" for a scheme from NewTwoLevel, "SR2"
// for one from NewFullScaleTwoLevel.
func (s *TwoLevel) Name() string { return s.name }

// physical resolves a logical address through both levels.
func (s *TwoLevel) physical(la int) int {
	mid := s.outer.phys(la)
	r := &s.inner[mid/s.inner[0].size]
	return r.base + r.phys(mid&r.mask)
}

// Write implements wl.Scheme.
func (s *TwoLevel) Write(la int, tag uint64) wl.Cost {
	cost := wl.Cost{ExtraCycles: wl.ControlCycles + 2*wl.TableCycles}
	mid := s.outer.phys(la)
	ri := mid / s.inner[0].size
	r := &s.inner[ri]
	pa := r.base + r.phys(mid&r.mask)
	s.dev.Write(pa, tag)
	cost.DeviceWrites = 1
	s.stats.DemandWrites++

	s.sinceInner[ri]++
	if s.sinceInner[ri] >= s.cfg.InnerInterval {
		s.sinceInner[ri] = 0
		cost.Add(s.innerStep(r))
	}
	s.sinceOuter++
	if s.sinceOuter >= s.cfg.OuterInterval {
		s.sinceOuter = 0
		cost.Add(s.outerStep())
	}
	return cost
}

// WriteRun implements wl.RunWriter: a same-address run resolves to one
// physical page under the frozen two-level mapping, and the event-free
// budget is the tighter of the inner region's and the outer level's
// distances to their next refresh steps.
//
//twl:hotpath
func (s *TwoLevel) WriteRun(la int, tag uint64, n int) (wl.Cost, int) {
	pa := s.composed[la]
	ri := pa >> s.regionShift
	k := s.cfg.InnerInterval - s.sinceInner[ri] - 1
	if ko := s.cfg.OuterInterval - s.sinceOuter - 1; ko < k {
		k = ko
	}
	if k <= 0 {
		return wl.Cost{}, 0
	}
	if n < k {
		k = n
	}
	applied := s.dev.WriteN(pa, tag, k)
	s.stats.DemandWrites += uint64(applied)
	s.sinceInner[ri] += applied
	s.sinceOuter += applied
	return wl.Cost{DeviceWrites: 1, ExtraCycles: wl.ControlCycles + 2*wl.TableCycles}, applied
}

// WriteSweep implements wl.SweepWriter. Consecutive logical addresses
// scatter across inner regions under the outer XOR remap, so each write
// checks its own region's inner budget; the sweep is clamped by the outer
// budget up front and stops (absorbed so far) when the next write would
// trigger an inner step. The batch is the prefix composed[la:la+k] of the
// composed la → pa cache — the budget scan only counts per-region writes —
// and is applied with one gather-write; if the device fails mid-batch, the
// inner counters of the unapplied suffix are rolled back so scheme state
// matches the sequential semantics exactly.
//
//twl:hotpath
func (s *TwoLevel) WriteSweep(la int, tag uint64, n int) (wl.Cost, int) {
	cost := wl.Cost{DeviceWrites: 1, ExtraCycles: wl.ControlCycles + 2*wl.TableCycles}
	if ko := s.cfg.OuterInterval - s.sinceOuter - 1; n > ko {
		n = ko
	}
	if n <= 0 {
		return cost, 0
	}
	shift := s.regionShift
	inner := s.cfg.InnerInterval
	since := s.sinceInner
	batch := s.composed[la : la+n]
	k := n
	for i, pa := range batch {
		ri := pa >> shift
		if since[ri]+1 >= inner {
			k = i
			break
		}
		since[ri]++
	}
	if k == 0 {
		return cost, 0
	}
	batch = batch[:k]
	applied := s.dev.WriteSeq(batch, tag)
	for j := applied; j < k; j++ {
		since[batch[j]>>shift]--
	}
	s.stats.DemandWrites += uint64(applied)
	s.sinceOuter += applied
	return cost, applied
}

// innerStep advances a region's inner sweep by one address.
func (s *TwoLevel) innerStep(r *region) wl.Cost {
	var cost wl.Cost
	cost.ExtraCycles = wl.ControlCycles + wl.RNGCycles
	if r.sweep >= r.size {
		// Retiring the old key does not move any address (every offset is
		// refreshed at this point), so the composed cache stays valid.
		r.keyOld = r.keyNew
		r.keyNew = s.src.Intn(r.size)
		r.sweep = 0
	}
	o := r.sweep
	d := r.keyOld ^ r.keyNew
	if d != 0 && (o^d) >= o {
		paO := r.base + (o ^ r.keyOld)
		paP := r.base + (o ^ r.keyNew)
		s.swapPages(paO, paP, &cost)
	}
	r.sweep++
	// The step re-mapped intermediate offsets o and o^d (both now under the
	// new key); refresh their composed entries.
	s.recompose(r.base + o)
	if d != 0 {
		s.recompose(r.base + (o ^ d))
	}
	return cost
}

// recompose refreshes the composed-cache entry of the logical address that
// currently resolves to intermediate address mid.
func (s *TwoLevel) recompose(mid int) {
	la := mid ^ s.outer.keyOld
	if s.outer.refreshed(la) {
		la = mid ^ s.outer.keyNew
	}
	s.composed[la] = s.innerPhys(mid)
}

// outerStep advances the outer sweep by one address. The outer level swaps
// *intermediate* addresses x1 = o^keyOld and x2 = o^keyNew; the data lives
// at the inner-mapped physical positions of those intermediates, so the
// physical swap goes through the inner remap.
func (s *TwoLevel) outerStep() wl.Cost {
	var cost wl.Cost
	cost.ExtraCycles = wl.ControlCycles + wl.RNGCycles
	r := &s.outer
	if r.sweep >= r.size {
		r.keyOld = r.keyNew
		r.keyNew = s.src.Intn(r.size)
		r.sweep = 0
	}
	o := r.sweep
	d := r.keyOld ^ r.keyNew
	if d != 0 && (o^d) >= o {
		x1 := o ^ r.keyOld
		x2 := o ^ r.keyNew
		pa1 := s.innerPhys(x1)
		pa2 := s.innerPhys(x2)
		s.swapPages(pa1, pa2, &cost)
	}
	r.sweep++
	// The step re-mapped logical addresses o and o^d (both now under the new
	// outer key); refresh their composed entries.
	s.composed[o] = s.physical(o)
	if d != 0 {
		s.composed[o^d] = s.physical(o ^ d)
	}
	return cost
}

// innerPhys maps an intermediate address through its region's inner remap.
func (s *TwoLevel) innerPhys(mid int) int {
	r := &s.inner[mid/s.inner[0].size]
	return r.base + r.phys(mid&r.mask)
}

// swapPages exchanges the payloads of two physical pages.
func (s *TwoLevel) swapPages(pa1, pa2 int, cost *wl.Cost) {
	if pa1 == pa2 {
		return
	}
	t1 := s.dev.Peek(pa1)
	t2 := s.dev.Peek(pa2)
	s.dev.Write(pa1, t2)
	s.dev.Write(pa2, t1)
	cost.DeviceWrites += 2
	cost.DeviceReads += 2
	cost.Blocked = true
	s.stats.Swaps++
	s.stats.SwapWrites += 2
}

// Read implements wl.Scheme.
func (s *TwoLevel) Read(la int) (uint64, wl.Cost) {
	s.stats.DemandReads++
	return s.dev.Read(s.physical(la)), wl.Cost{DeviceReads: 1, ExtraCycles: 2 * wl.TableCycles}
}

// ReadN implements wl.Scheme.
func (s *TwoLevel) ReadN(n int) wl.Cost {
	s.stats.DemandReads += uint64(n)
	s.dev.CountReads(n)
	return wl.Cost{DeviceReads: 1, ExtraCycles: 2 * wl.TableCycles}
}

// Stats implements wl.Scheme.
func (s *TwoLevel) Stats() wl.Stats { return s.stats }

// Device implements wl.Scheme.
func (s *TwoLevel) Device() *pcm.Device { return s.dev }

// CheckInvariants implements wl.Checker: the composed mapping must be a
// bijection over the whole array, and wear must be conserved.
func (s *TwoLevel) CheckInvariants() error {
	seen := make([]bool, s.dev.Pages())
	for la := 0; la < s.dev.Pages(); la++ {
		pa := s.physical(la)
		if pa < 0 || pa >= s.dev.Pages() {
			return fmt.Errorf("secref: LA %d maps out of range: %d", la, pa)
		}
		if seen[pa] {
			return fmt.Errorf("secref: physical page %d claimed twice", pa)
		}
		seen[pa] = true
		if s.composed[la] != pa {
			return fmt.Errorf("secref: composed cache stale: LA %d cached %d, live %d",
				la, s.composed[la], pa)
		}
	}
	want := s.stats.DemandWrites + s.stats.SwapWrites
	if got := s.dev.TotalWrites(); got != want {
		return fmt.Errorf("secref: device writes %d != demand %d + swap %d",
			got, s.stats.DemandWrites, s.stats.SwapWrites)
	}
	return nil
}

// Snapshot implements wl.Snapshotter: outer and inner key/sweep state, the
// per-level interval counters, the key RNG position and the stats.
func (s *TwoLevel) Snapshot(w io.Writer) error {
	sw := snap.NewWriter(w)
	s.outer.snapshot(sw)
	sw.Int(len(s.inner))
	for i := range s.inner {
		s.inner[i].snapshot(sw)
	}
	sw.Int(s.sinceOuter)
	sw.Ints(s.sinceInner)
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
func (s *TwoLevel) Restore(r io.Reader) error {
	sr := snap.NewReader(r)
	if err := s.outer.restore(sr); err != nil {
		return err
	}
	if n := sr.Int(); sr.Err() == nil && n != len(s.inner) {
		return fmt.Errorf("secref: checkpoint has %d inner regions, scheme has %d", n, len(s.inner))
	}
	if err := sr.Err(); err != nil {
		return err
	}
	for i := range s.inner {
		if err := s.inner[i].restore(sr); err != nil {
			return err
		}
	}
	s.sinceOuter = sr.Int()
	sr.IntsInto(s.sinceInner)
	if err := sr.Err(); err != nil {
		return err
	}
	if err := s.src.Restore(r); err != nil {
		return err
	}
	if err := s.stats.Restore(r); err != nil {
		return err
	}
	for la := range s.composed {
		s.composed[la] = s.physical(la)
	}
	return nil
}
