// Package bwl implements Bloom-filter based dynamic wear leveling
// (Yun et al., DATE 2012) — "BWL" in the paper's figures, its
// state-of-the-art PV-aware baseline.
//
// Instead of a full write-number table, BWL approximates write intensity
// with Bloom filters and classifies addresses against dynamic thresholds:
//
//   - Hot rotation: a counting Bloom filter estimates per-address write
//     counts; every MoveThreshold writes to an address, the address is
//     re-placed onto the candidate page with the most remaining life. This
//     is the wear-*rate* leveling core of the scheme: sustained traffic
//     rotates across pages in proportion to what they can still absorb
//     instead of pinning to one page.
//   - Cold detection: a small ring of membership Bloom filters covers the
//     last few epochs; an address absent from all of them — silent for
//     several full epochs — is classified cold and demoted onto a weak
//     page, reserving strong pages for hot data.
//
// Demotion is where the prediction-trusting nature of the scheme lives:
// once an address is classified cold, the classification is trusted for a
// long stretch of that address's own writes (ColdTrustWrites) before the
// scheme reconsiders — re-sorting on every write is exactly what the Bloom
// filters exist to avoid, and at full scale the reaction latency of the
// epoch machinery is comparable to a page's endurance. This trust is the
// vulnerability the paper's inconsistent-write attack exploits (Section
// 3.2): present a distribution that parks a target address on the weakest
// page, then hammer it — the writes land before the scheme reconsiders
// (Figure 6 shows BWL's PCM dying in ~98 s).
package bwl

import (
	"fmt"
	"io"

	"twl/internal/bloom"
	"twl/internal/pcm"
	"twl/internal/rng"
	"twl/internal/snap"
	"twl/internal/tables"
	"twl/internal/wl"
)

// Config parameterizes BWL.
type Config struct {
	// EpochWrites is the aging period: every EpochWrites demand writes the
	// count estimates are halved and the epoch membership filters rotate.
	EpochWrites int
	// FilterSlots is the counting-Bloom size (slots); FilterHashes the hash
	// count for all filters.
	FilterSlots  int
	FilterHashes int
	// MoveThreshold is how many writes an address accumulates before it is
	// re-placed onto a fresher page. 0 derives it from the device endurance
	// (1/16 of the mean), keeping the per-page deposit quantum small
	// relative to endurance at any simulation scale.
	MoveThreshold int
	// CandidateProbes bounds how many placement candidates are examined per
	// swap decision (hardware examines a short list, not the whole array).
	CandidateProbes int
	// ColdTrustWrites is how many of its own writes a demoted address must
	// absorb before the scheme reconsiders the cold classification. 0
	// derives it from the device endurance (half the mean) — the
	// reaction-latency scaling discussed in the package comment.
	ColdTrustWrites int
	// Seed drives tie-breaking and candidate sampling.
	Seed uint64
}

// DefaultConfig returns parameters scaled to the device size.
func DefaultConfig(pages int, seed uint64) Config {
	// ~16 bits/slots per page keep the false-positive rates of the
	// membership filters and the count-min collisions negligible at one
	// active address per page.
	slots := 16 * pages
	if slots < 16384 {
		slots = 16384
	}
	return Config{
		EpochWrites:     4 * pages,
		FilterSlots:     slots,
		FilterHashes:    4,
		CandidateProbes: 8,
		Seed:            seed,
	}
}

// Scheme is a Bloom-filter based wear leveler.
type Scheme struct {
	dev *pcm.Device // snap: device state is checkpointed by the sim layer
	cfg Config      // snap: construction input
	rt  *tables.Remap
	cbf *bloom.Counting // write-count estimates (hot-rotation approximation)
	// seen is a ring of membership filters, one per recent epoch; an
	// address in none of them has been silent for silenceEpochs epochs.
	seen    [silenceEpochs]*bloom.Filter
	seenIdx int
	src     *rng.Xorshift
	stats   wl.Stats

	epochLeft  int
	promotions int

	// sinceMove[la] counts la's writes since its last re-placement; at
	// moveThresh the address rotates to a fresher page. (Hardware
	// approximates this counter with the counting Bloom filter and its
	// dynamic threshold; the exact counter keeps the reproduction
	// deterministic without changing the behavior being modeled.)
	sinceMove  []uint32
	moveThresh uint32 // snap: derived from config/endurance at New

	// coldLock[la] counts how many more of la's own writes the cold
	// classification is trusted for; re-placement is suppressed while > 0.
	coldLock []uint32
	trust    uint32 // snap: derived from config/endurance at New
	// epochs counts completed epochs; cold classification needs a full
	// silence window of history, since before that every address looks
	// "silent".
	epochs       int
	byStrength   []int // snap: derived from the endurance map at New; physical pages sorted by descending endurance
	strongCursor int
	weakCursor   int
	medianEnd    uint64 // snap: derived from the endurance map at New
	totalEnd     uint64 // snap: derived from the endurance map at New
}

// silenceEpochs is how many consecutive epochs an address must go unwritten
// to be classified cold. It must exceed the longest benign inter-burst gap
// of warm data, or warm addresses get demoted (and their weak pages ground
// down); four epochs is comfortably beyond the burst cadence of the
// calibrated workloads while still catching the attack's frozen targets.
const silenceEpochs = 4

// New builds a BWL scheme over dev.
func New(dev *pcm.Device, cfg Config) (*Scheme, error) {
	if cfg.EpochWrites <= 0 {
		return nil, fmt.Errorf("bwl: EpochWrites must be positive: %w", wl.ErrBadConfig)
	}
	if cfg.MoveThreshold < 0 {
		return nil, fmt.Errorf("bwl: MoveThreshold must be >= 0: %w", wl.ErrBadConfig)
	}
	if cfg.CandidateProbes <= 0 {
		return nil, fmt.Errorf("bwl: CandidateProbes must be positive: %w", wl.ErrBadConfig)
	}
	if cfg.ColdTrustWrites < 0 {
		return nil, fmt.Errorf("bwl: ColdTrustWrites must be >= 0: %w", wl.ErrBadConfig)
	}
	cbf, err := bloom.NewCounting(cfg.FilterSlots, cfg.FilterHashes)
	if err != nil {
		return nil, err
	}
	newFilter := func() (*bloom.Filter, error) { return bloom.NewFilter(cfg.FilterSlots, cfg.FilterHashes) }
	var seen [silenceEpochs]*bloom.Filter
	for i := range seen {
		if seen[i], err = newFilter(); err != nil {
			return nil, err
		}
	}
	asc := wl.SortByEndurance(dev.EnduranceMap())
	desc := make([]int, len(asc))
	for i, p := range asc {
		desc[len(asc)-1-i] = p
	}
	meanEnd := dev.TotalEndurance() / uint64(dev.Pages())
	trust := uint32(cfg.ColdTrustWrites)
	if trust == 0 {
		t := meanEnd / 2
		if t > 1<<31 {
			t = 1 << 31
		}
		trust = uint32(t)
		if trust < 1 {
			trust = 1
		}
	}
	moveThresh := uint32(cfg.MoveThreshold)
	if moveThresh == 0 {
		m := meanEnd / 5
		if m > 1<<31 {
			m = 1 << 31
		}
		moveThresh = uint32(m)
		if moveThresh < 1 {
			moveThresh = 1
		}
	}
	return &Scheme{
		dev:        dev,
		cfg:        cfg,
		rt:         tables.NewRemap(dev.Pages()),
		cbf:        cbf,
		seen:       seen,
		src:        rng.NewXorshift(cfg.Seed),
		epochLeft:  cfg.EpochWrites,
		sinceMove:  make([]uint32, dev.Pages()),
		moveThresh: moveThresh,
		coldLock:   make([]uint32, dev.Pages()),
		trust:      trust,
		byStrength: desc,
		medianEnd:  dev.Endurance(asc[len(asc)/2]),
		totalEnd:   dev.TotalEndurance(),
	}, nil
}

// Name implements wl.Scheme.
func (s *Scheme) Name() string { return "BWL" }

// Write implements wl.Scheme.
func (s *Scheme) Write(la int, tag uint64) wl.Cost {
	// Every write probes the filters and walks the hot/cold candidate
	// list — "two bloom filters and a cold-hot list are accessed during
	// every write" is exactly the per-write overhead Figure 9 charges BWL.
	cost := wl.Cost{
		ExtraCycles: wl.ControlCycles +
			2*s.cfg.FilterHashes*wl.TableCycles + // counting CBF + epoch filters
			s.cfg.CandidateProbes*wl.TableCycles, // cold-hot list maintenance
	}
	key := uint64(la)
	wasSilent := s.epochs >= silenceEpochs
	if wasSilent {
		for _, f := range s.seen {
			if f.Contains(key) {
				wasSilent = false
				break
			}
		}
	}
	s.cbf.Add(key)
	s.seen[s.seenIdx].Add(key)
	if s.coldLock[la] > 0 {
		s.coldLock[la]--
	}
	s.sinceMove[la]++

	pa := s.rt.Phys(la)
	switch {
	case s.sinceMove[la] >= s.moveThresh && s.coldLock[la] == 0:
		// The address has accumulated a full deposit quantum: rotate it
		// onto the candidate page with the most remaining life. A
		// cold-classified address is not reconsidered until its trust
		// window expires — the scheme believes it will not be written.
		if target, ok := s.pickStrong(pa); ok {
			cost.Add(s.swap(la, s.rt.Log(target)))
			pa = s.rt.Phys(la)
			s.promotions++
		}
		s.sinceMove[la] = 0
	case wasSilent && s.dev.Endurance(pa) > s.medianEnd:
		// Cold address (silent for the whole silence window) on a strong
		// page: demote onto a weak page, freeing the strong one, and trust
		// the classification for the next trust-window of its writes.
		if target, ok := s.pickWeak(pa); ok {
			cost.Add(s.swap(la, s.rt.Log(target)))
			pa = s.rt.Phys(la)
			s.coldLock[la] = s.trust
			s.sinceMove[la] = 0
		}
	}

	s.dev.Write(pa, tag)
	cost.DeviceWrites++
	s.stats.DemandWrites++

	s.epochLeft--
	if s.epochLeft <= 0 {
		s.epochLeft = s.cfg.EpochWrites
		s.epochs++
		s.cbf.Halve()
		s.seenIdx = (s.seenIdx + 1) % silenceEpochs
		s.seen[s.seenIdx].Reset()
	}
	return cost
}

// WriteRun implements wl.RunWriter. BWL's per-write state machine is
// deterministic between events, so the distance to the next event is exact:
// the move trigger fires at the write that both lifts sinceMove[la] to
// MoveThreshold and exhausts coldLock[la], and the epoch rotates at the
// write that drains epochLeft. A cold-silent first write may probe the
// demotion path (which mutates the weak-candidate cursor even on failure),
// so it is never absorbed — the caller serves it with a normal Write.
//
// The bulk update replays exactly what the absorbed writes would have done:
// count-min and membership filter inserts (AddN keeps even the internal add
// counters aligned), the coldLock decrements, the sinceMove and epochLeft
// advances, and the device writes (WriteN clamps at a mid-run failure, in
// which case every side effect uses the clamped count, matching a per-write
// path that stops at the failing write).
//
//twl:hotpath
func (s *Scheme) WriteRun(la int, tag uint64, n int) (wl.Cost, int) {
	key := uint64(la)
	if s.epochs >= silenceEpochs {
		silent := true
		for _, f := range s.seen {
			if f.Contains(key) {
				silent = false
				break
			}
		}
		if silent && s.dev.Endurance(s.rt.Phys(la)) > s.medianEnd {
			return wl.Cost{}, 0
		}
	}
	// First write that triggers a re-placement: sinceMove must reach the
	// threshold and the cold trust window must be exhausted.
	jMove := int64(s.moveThresh) - int64(s.sinceMove[la])
	if cl := int64(s.coldLock[la]); cl > jMove {
		jMove = cl
	}
	if jMove < 1 {
		jMove = 1
	}
	k := int(jMove) - 1
	if e := s.epochLeft - 1; e < k {
		k = e
	}
	if k > n {
		k = n
	}
	if k <= 0 {
		return wl.Cost{}, 0
	}
	applied := s.dev.WriteN(s.rt.Phys(la), tag, k)
	s.cbf.AddN(key, applied)
	s.seen[s.seenIdx].AddN(key, applied)
	if cl := s.coldLock[la]; cl > 0 {
		dec := uint32(applied)
		if dec > cl {
			dec = cl
		}
		s.coldLock[la] = cl - dec
	}
	s.sinceMove[la] += uint32(applied)
	s.stats.DemandWrites += uint64(applied)
	s.epochLeft -= applied
	return wl.Cost{
		DeviceWrites: 1,
		ExtraCycles: wl.ControlCycles +
			2*s.cfg.FilterHashes*wl.TableCycles +
			s.cfg.CandidateProbes*wl.TableCycles,
	}, applied
}

// pickStrong returns a physical page to promote onto: the first of up to
// CandidateProbes candidates from the endurance ranking with meaningfully
// more remaining life than the current page, whose occupant is neither hot
// nor a trusted-cold resident. Early in life the static strong pages
// qualify; as they deplete, the remaining-endurance test steers hot data
// onto whichever pages still have headroom.
func (s *Scheme) pickStrong(current int) (int, bool) {
	n := len(s.byStrength)
	best := -1
	var bestRemaining uint64
	for probe := 0; probe < s.cfg.CandidateProbes; probe++ {
		cand := s.byStrength[s.strongCursor%n]
		s.strongCursor++
		if s.strongCursor >= n {
			s.strongCursor = 0
		}
		if cand == current {
			continue
		}
		occupant := s.rt.Log(cand)
		if s.coldLock[occupant] > 0 {
			continue
		}
		if r := s.dev.Remaining(cand); r > bestRemaining {
			best, bestRemaining = cand, r
		}
	}
	// Half-quantum hysteresis prevents rotation ping-pong between two
	// nearly identical pages while still letting the hottest address move
	// on after every deposit quantum.
	if best >= 0 && bestRemaining > s.dev.Remaining(current)+uint64(s.moveThresh)/2 {
		return best, true
	}
	return 0, false
}

// pickWeak returns a weak physical page to demote onto: a page from the
// bottom quarter of the (static, manufacturer-tested) endurance ranking
// whose occupant is not itself a trusted-cold resident — successive
// demotions therefore rotate across the weak tier rather than piling onto
// one page. Placement is purely prediction-driven: the scheme believes the
// incoming data is cold, so the target's wear state is not consulted.
func (s *Scheme) pickWeak(current int) (int, bool) {
	total := len(s.byStrength)
	n := total / 4
	if n < 2 {
		n = total
	}
	for probe := 0; probe < s.cfg.CandidateProbes; probe++ {
		cand := s.byStrength[total-1-(s.weakCursor%n)]
		s.weakCursor++
		if s.weakCursor >= n {
			s.weakCursor = 0
		}
		if cand == current {
			continue
		}
		occupant := s.rt.Log(cand)
		if s.coldLock[occupant] > 0 {
			continue
		}
		if s.dev.Endurance(cand) < s.dev.Endurance(current) {
			return cand, true
		}
	}
	return 0, false
}

// swap exchanges the physical pages of two logical addresses: two page
// writes (plus migration reads), blocking demand traffic.
func (s *Scheme) swap(la1, la2 int) wl.Cost {
	pa1, pa2 := s.rt.Phys(la1), s.rt.Phys(la2)
	d1, d2 := s.dev.Peek(pa1), s.dev.Peek(pa2)
	s.dev.Write(pa1, d2)
	s.dev.Write(pa2, d1)
	s.rt.SwapLogical(la1, la2)
	s.stats.Swaps++
	s.stats.SwapWrites += 2
	return wl.Cost{
		DeviceWrites: 2,
		DeviceReads:  2,
		ExtraCycles:  2 * wl.TableCycles,
		Blocked:      true,
	}
}

// Read implements wl.Scheme.
func (s *Scheme) Read(la int) (uint64, wl.Cost) {
	s.stats.DemandReads++
	return s.dev.Read(s.rt.Phys(la)), wl.Cost{DeviceReads: 1, ExtraCycles: wl.TableCycles}
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

// CheckInvariants implements wl.Checker.
func (s *Scheme) CheckInvariants() error {
	if err := s.rt.CheckBijection(); err != nil {
		return err
	}
	want := s.stats.DemandWrites + s.stats.SwapWrites
	if got := s.dev.TotalWrites(); got != want {
		return fmt.Errorf("bwl: device writes %d != demand %d + swap %d",
			got, s.stats.DemandWrites, s.stats.SwapWrites)
	}
	return nil
}

// Snapshot implements wl.Snapshotter: the remap table, both Bloom
// structures, the epoch machinery, the per-address counters, the
// tie-breaking RNG position, the placement cursors and the stats.
func (s *Scheme) Snapshot(w io.Writer) error {
	if err := s.rt.Snapshot(w); err != nil {
		return err
	}
	if err := s.cbf.Snapshot(w); err != nil {
		return err
	}
	for _, f := range s.seen {
		if err := f.Snapshot(w); err != nil {
			return err
		}
	}
	sw := snap.NewWriter(w)
	sw.Int(s.seenIdx)
	sw.Int(s.epochLeft)
	sw.Int(s.promotions)
	sw.U32s(s.sinceMove)
	sw.U32s(s.coldLock)
	sw.Int(s.epochs)
	sw.Int(s.strongCursor)
	sw.Int(s.weakCursor)
	if err := sw.Err(); err != nil {
		return err
	}
	if err := s.src.Snapshot(w); err != nil {
		return err
	}
	return s.stats.Snapshot(w)
}

// Restore implements wl.Snapshotter.
func (s *Scheme) Restore(r io.Reader) error {
	if err := s.rt.Restore(r); err != nil {
		return err
	}
	if err := s.cbf.Restore(r); err != nil {
		return err
	}
	for _, f := range s.seen {
		if err := f.Restore(r); err != nil {
			return err
		}
	}
	sr := snap.NewReader(r)
	s.seenIdx = sr.Int()
	s.epochLeft = sr.Int()
	s.promotions = sr.Int()
	sr.U32sInto(s.sinceMove)
	sr.U32sInto(s.coldLock)
	s.epochs = sr.Int()
	s.strongCursor = sr.Int()
	s.weakCursor = sr.Int()
	if err := sr.Err(); err != nil {
		return err
	}
	if s.seenIdx < 0 || s.seenIdx >= silenceEpochs {
		return fmt.Errorf("bwl: restored seenIdx %d outside [0,%d)", s.seenIdx, silenceEpochs)
	}
	if err := s.src.Restore(r); err != nil {
		return err
	}
	return s.stats.Restore(r)
}
