// Package startgap implements Start-Gap wear leveling (Qureshi et al.,
// MICRO 2009), the classic PV-oblivious baseline TWL's lineage builds on and
// an extra comparison point for the attack experiments.
//
// Start-Gap keeps one spare physical page (the "gap"). Every GapInterval
// demand writes the gap moves by one slot: the page preceding the gap is
// copied into the gap and becomes the new gap. Over time every logical page
// rotates through every physical slot, spreading writes uniformly. A static
// address randomization (an affine bijection standing in for the paper's
// Feistel-based randomizer) decorrelates logically-contiguous addresses from
// physically-contiguous slots.
//
// Hardware realizes the mapping with two registers (Start and Gap); this
// implementation keeps an explicit remapping table instead so the test suite
// can verify the mapping bijection and data integrity directly. The wear
// behavior — one extra page write every GapInterval demand writes, uniform
// rotation — is identical.
package startgap

import (
	"fmt"
	"io"

	"twl/internal/pcm"
	"twl/internal/rng"
	"twl/internal/snap"
	"twl/internal/tables"
	"twl/internal/wl"
)

// Config parameterizes Start-Gap.
type Config struct {
	// GapInterval is ψ: demand writes between gap movements. The original
	// paper uses 100, trading 1% extra writes for leveling rate.
	GapInterval int
	// Randomize enables the static address-space randomization layer.
	Randomize bool
	// Seed drives the randomization constants.
	Seed uint64
}

// DefaultConfig returns the original paper's configuration.
func DefaultConfig(seed uint64) Config {
	return Config{GapInterval: 100, Randomize: true, Seed: seed}
}

// Scheme is a Start-Gap wear leveler. It serves Pages()-1 logical pages over
// a device with Pages() physical pages; the extra page is the rotating gap.
type Scheme struct {
	dev   *pcm.Device   // snap: device state is checkpointed by the sim layer
	cfg   Config        // snap: construction input
	rt    *tables.Remap // logical (incl. gap page) → physical
	stats wl.Stats

	logical   int // snap: derived from device geometry at New
	gapLA     int // snap: derived from device geometry at New
	sinceMove int
	// Affine randomization: ra*la + rb mod logical, with gcd(ra, logical)=1.
	ra, rb int // snap: derived from seed at New

	scratch []int // snap: scratch buffer; physical-address batch for WriteSweep
}

// New builds a Start-Gap scheme over dev.
func New(dev *pcm.Device, cfg Config) (*Scheme, error) {
	if dev.Pages() < 2 {
		return nil, fmt.Errorf("startgap: need at least 2 physical pages: %w", wl.ErrBadConfig)
	}
	if cfg.GapInterval <= 0 {
		return nil, fmt.Errorf("startgap: GapInterval must be positive, got %d: %w", cfg.GapInterval, wl.ErrBadConfig)
	}
	s := &Scheme{
		dev:     dev,
		cfg:     cfg,
		rt:      tables.NewRemap(dev.Pages()),
		logical: dev.Pages() - 1,
		gapLA:   dev.Pages() - 1,
		ra:      1,
		rb:      0,
	}
	if cfg.Randomize {
		src := rng.NewXorshift(cfg.Seed)
		s.ra = pickCoprime(src, s.logical)
		s.rb = src.Intn(s.logical)
	}
	return s, nil
}

// pickCoprime returns a random multiplier coprime with n.
func pickCoprime(src *rng.Xorshift, n int) int {
	if n <= 2 {
		return 1
	}
	for {
		a := 1 + src.Intn(n-1)
		if gcd(a, n) == 1 {
			return a
		}
	}
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// randomized maps an external logical address through the static
// randomization layer.
func (s *Scheme) randomized(la int) int {
	return (s.ra*la + s.rb) % s.logical
}

// LogicalPages reports the demand-addressable page count (one less than the
// physical page count, because of the gap).
func (s *Scheme) LogicalPages() int { return s.logical }

// Name implements wl.Scheme.
func (s *Scheme) Name() string { return "StartGap" }

// Write implements wl.Scheme.
func (s *Scheme) Write(la int, tag uint64) wl.Cost {
	cost := wl.Cost{ExtraCycles: wl.ControlCycles}
	ila := s.randomized(la)
	pa := s.rt.Phys(ila)
	s.dev.Write(pa, tag)
	cost.DeviceWrites = 1
	s.stats.DemandWrites++

	s.sinceMove++
	if s.sinceMove >= s.cfg.GapInterval {
		s.sinceMove = 0
		cost.Add(s.moveGap())
	}
	return cost
}

// pureWrites returns how many more demand writes are guaranteed event-free:
// the gap moves on the write that takes sinceMove to GapInterval, so
// GapInterval − sinceMove − 1 writes can pass without a move.
func (s *Scheme) pureWrites() int {
	return s.cfg.GapInterval - s.sinceMove - 1
}

// WriteRun implements wl.RunWriter: the event-free prefix of a same-address
// run maps to one physical page (the remap table is frozen between gap
// moves), so it collapses into a single bulk device write.
//
//twl:hotpath
func (s *Scheme) WriteRun(la int, tag uint64, n int) (wl.Cost, int) {
	k := s.pureWrites()
	if k <= 0 {
		return wl.Cost{}, 0
	}
	if n < k {
		k = n
	}
	pa := s.rt.Phys(s.randomized(la))
	applied := s.dev.WriteN(pa, tag, k)
	s.stats.DemandWrites += uint64(applied)
	s.sinceMove += applied
	return wl.Cost{DeviceWrites: 1, ExtraCycles: wl.ControlCycles}, applied
}

// WriteSweep implements wl.SweepWriter. The affine randomization steps
// incrementally under la+1 — randomized(la+1) = randomized(la) + ra mod
// logical — so the sweep walks the remap table without re-deriving the
// randomization per write. Addresses are resolved into a scratch batch and
// applied with one gather-write, keeping the device's hot fields in
// registers across the batch.
//
//twl:hotpath
func (s *Scheme) WriteSweep(la int, tag uint64, n int) (wl.Cost, int) {
	k := s.pureWrites()
	if k <= 0 {
		return wl.Cost{}, 0
	}
	if n < k {
		k = n
	}
	buf := wl.Scratch(&s.scratch, k)
	phys := s.rt.PhysTable()
	ila := s.randomized(la)
	ra, logical := s.ra, s.logical
	for i := range buf {
		buf[i] = int(phys[ila])
		// Branch-free wrap (compiles to a conditional move; the wrap branch
		// itself is data-dependent and mispredicts).
		ila += ra
		if t := ila - logical; t >= 0 {
			ila = t
		}
	}
	applied := s.dev.WriteSeq(buf, tag)
	s.stats.DemandWrites += uint64(applied)
	s.sinceMove += applied
	return wl.Cost{DeviceWrites: 1, ExtraCycles: wl.ControlCycles}, applied
}

// moveGap shifts the gap one slot backwards: the physical page preceding the
// gap is copied into the gap slot and becomes the new gap.
func (s *Scheme) moveGap() wl.Cost {
	gapPA := s.rt.Phys(s.gapLA)
	prevPA := gapPA - 1
	if prevPA < 0 {
		prevPA = s.dev.Pages() - 1
	}
	victimLA := s.rt.Log(prevPA)
	// Copy victim's data into the gap slot, then the old slot becomes the gap.
	s.dev.Write(gapPA, s.dev.Peek(prevPA))
	s.rt.SwapLogical(s.gapLA, victimLA)
	s.stats.Swaps++
	s.stats.SwapWrites++
	return wl.Cost{DeviceWrites: 1, DeviceReads: 1, ExtraCycles: wl.TableCycles, Blocked: true}
}

// Read implements wl.Scheme.
func (s *Scheme) Read(la int) (uint64, wl.Cost) {
	s.stats.DemandReads++
	pa := s.rt.Phys(s.randomized(la))
	return s.dev.Read(pa), wl.Cost{DeviceReads: 1, ExtraCycles: wl.ControlCycles}
}

// ReadN implements wl.Scheme.
func (s *Scheme) ReadN(n int) wl.Cost {
	s.stats.DemandReads += uint64(n)
	s.dev.CountReads(n)
	return wl.Cost{DeviceReads: 1, ExtraCycles: wl.ControlCycles}
}

// Stats implements wl.Scheme.
func (s *Scheme) Stats() wl.Stats { return s.stats }

// Device implements wl.Scheme.
func (s *Scheme) Device() *pcm.Device { return s.dev }

// CheckInvariants implements wl.Checker: remap bijection, gap-pointer
// consistency, randomization-layer bijectivity, and wear conservation.
func (s *Scheme) CheckInvariants() error {
	if err := s.rt.CheckBijection(); err != nil {
		return err
	}
	if s.rt.Len() != s.dev.Pages() {
		return fmt.Errorf("startgap: remap table covers %d pages, device has %d",
			s.rt.Len(), s.dev.Pages())
	}
	// Geometry: exactly one spare slot, owned by the dummy logical index.
	if s.logical != s.dev.Pages()-1 || s.gapLA != s.logical {
		return fmt.Errorf("startgap: gap geometry broken: logical=%d gapLA=%d pages=%d",
			s.logical, s.gapLA, s.dev.Pages())
	}
	// Gap pointer: the per-interval counter must sit strictly inside the
	// interval — moveGap resets it, so reaching GapInterval means a move was
	// skipped.
	if s.sinceMove < 0 || s.sinceMove >= s.cfg.GapInterval {
		return fmt.Errorf("startgap: sinceMove %d outside [0,%d)", s.sinceMove, s.cfg.GapInterval)
	}
	// Randomization layer: ra*la+rb mod logical is bijective iff
	// gcd(ra, logical) == 1; rb is only reduced once, so it must be in range.
	if s.ra < 1 || gcd(s.ra, s.logical) != 1 {
		return fmt.Errorf("startgap: multiplier %d not coprime with %d; randomization is not a bijection",
			s.ra, s.logical)
	}
	if s.rb < 0 || (s.rb >= s.logical && s.logical > 1) {
		return fmt.Errorf("startgap: offset %d outside [0,%d)", s.rb, s.logical)
	}
	want := s.stats.DemandWrites + s.stats.SwapWrites
	if got := s.dev.TotalWrites(); got != want {
		return fmt.Errorf("startgap: device writes %d != demand %d + swap %d",
			got, s.stats.DemandWrites, s.stats.SwapWrites)
	}
	return nil
}

// Snapshot implements wl.Snapshotter: the remap table, the gap-interval
// counter and the stats are the only workload-evolved state; the affine
// randomization constants are re-derived from the seed at New.
func (s *Scheme) Snapshot(w io.Writer) error {
	if err := s.rt.Snapshot(w); err != nil {
		return err
	}
	sw := snap.NewWriter(w)
	sw.Int(s.sinceMove)
	if err := sw.Err(); err != nil {
		return err
	}
	return s.stats.Snapshot(w)
}

// Restore implements wl.Snapshotter.
func (s *Scheme) Restore(r io.Reader) error {
	if err := s.rt.Restore(r); err != nil {
		return err
	}
	sr := snap.NewReader(r)
	s.sinceMove = sr.Int()
	if err := sr.Err(); err != nil {
		return err
	}
	return s.stats.Restore(r)
}
