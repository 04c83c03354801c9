// Package attack implements the wear-out attack streams of Section 5.2:
// the repeat, random and scan write modes from Qureshi et al. (HPCA 2011)
// and the paper's own inconsistent-write attack (Section 3.2), which
// alternates a write-intensity distribution and its reverse across detected
// swap phases to mislead prediction-based wear leveling.
//
// Attackers observe only what the Section 3.1 threat model allows: the
// addresses they issue and the memory response time of each request (swaps
// block the memory, producing a detectable latency spike). Internal states
// of the wear-leveling engine are never consulted.
package attack

import (
	"errors"
	"fmt"
	"io"

	"twl/internal/rng"
)

// Mode enumerates the attack modes of Figure 6.
type Mode int

const (
	// Repeat fixes one address and writes it forever.
	Repeat Mode = iota
	// Random writes uniformly random addresses.
	Random
	// Scan writes consecutive addresses, wrapping around.
	Scan
	// Inconsistent reverses its write-intensity distribution every time it
	// detects the end of a swap phase (the paper's attack).
	Inconsistent
)

// String implements fmt.Stringer; these labels appear in the Figure 6 rows.
func (m Mode) String() string {
	switch m {
	case Repeat:
		return "repeat"
	case Random:
		return "random"
	case Scan:
		return "scan"
	case Inconsistent:
		return "inconsistent"
	default:
		return fmt.Sprintf("attack.Mode(%d)", int(m))
	}
}

// Modes lists all four attack modes in Figure 6 order.
func Modes() []Mode { return []Mode{Repeat, Random, Scan, Inconsistent} }

// Feedback is what the attacker observes after each request: whether the
// response time spiked (a swap blocked the request) — the footnote-1 signal.
type Feedback struct {
	Blocked bool
	Cycles  int64
}

// Stream produces the attack's write addresses one at a time.
type Stream interface {
	// Name labels the stream in reports.
	Name() string
	// Next returns the next logical page to write, given the feedback from
	// the previously issued request.
	Next(fb Feedback) int
	// Snapshot and Restore checkpoint the stream's position (and RNG or
	// control state) under the wl.Snapshotter contract, so a resumed
	// lifetime run issues exactly the writes the uninterrupted run would.
	Snapshot(w io.Writer) error
	Restore(r io.Reader) error
}

// RunStream is the optional fast-forward interface for streams whose next
// writes form a maximal same-address run that does not depend on per-request
// feedback (the repeat attack: one address forever). NextRun returns the
// address and how many consecutive writes of it the stream commits to; the
// caller treats all n as consumed even if it stops early (the run has no
// internal state to rewind). Feedback-driven streams must implement
// FeedbackRunStream instead, so the caller knows to relay the served
// requests' feedback.
type RunStream interface {
	Stream
	NextRun(fb Feedback) (addr int, n int)
}

// SweepStream is the optional fast-forward interface for streams whose next
// writes cover consecutive ascending addresses addr, addr+1, …, addr+n-1
// without wrapping (the scan attack: one full pass per call). The same
// feedback-independence and all-n-consumed rules as RunStream apply.
type SweepStream interface {
	Stream
	NextSweep(fb Feedback) (addr int, n int)
}

// FeedbackRunStream is the fast-forward interface for feedback-driven
// streams (the inconsistent attack). The stream still emits same-address
// runs, but because its control state evolves with every response it
// observes, a run may only extend as far as the stream can prove that *no
// possible feedback sequence* changes its output — the stream's own
// feedback reactions become the event horizons, exactly as scheme-internal
// events do for wl.RunWriter.
//
// Protocol: NextRun(fb) consumes fb as the feedback of the request before
// the run (like Next) and commits to n same-address writes. The caller
// serves them and, for every serving step, relays the served requests'
// feedback through Observe(fb, k) — uniform feedback for a bulk-absorbed
// chunk of k, the individual feedback for a per-write-served request
// (k == 1). Observe consumes at most the feedback of the run's first n-1
// requests; the last request's feedback reaches the stream through the next
// NextRun call, exactly as in the per-request protocol. A caller that
// serves every request through Next instead (never calling NextRun) sees
// the identical stream.
type FeedbackRunStream interface {
	Stream
	NextRun(fb Feedback) (addr int, n int)
	Observe(fb Feedback, n int)
}

// repeatRunLength is how many writes a repeat RunStream commits to per
// NextRun call; the stream is infinite, so the value only bounds how much
// work a simulator buys per call.
const repeatRunLength = 1 << 20

// Config describes an attack to construct.
type Config struct {
	Mode Mode
	// Pages is the logical address space the attacker may touch.
	Pages int
	// TargetPages is how many distinct addresses the inconsistent attack
	// cycles over (N in Section 3.2); 0 targets a quarter of the logical
	// space — the compromised OS can write anywhere, and a large target set
	// keeps the attacked-cold addresses at the bottom of every hot/cold
	// ranking. Ignored by other modes.
	TargetPages int
	// QuietThreshold is how many unblocked writes after a blocked one the
	// inconsistent attacker waits before declaring the swap phase over.
	QuietThreshold int
	// Seed drives the random mode.
	Seed uint64
}

// DefaultConfig returns an attack over pages logical pages.
func DefaultConfig(mode Mode, pages int, seed uint64) Config {
	return Config{
		Mode:           mode,
		Pages:          pages,
		TargetPages:    0, // inconsistent mode: a quarter of the space
		QuietThreshold: 48,
		Seed:           seed,
	}
}

// New constructs the attack stream described by cfg.
func New(cfg Config) (Stream, error) {
	if cfg.Pages <= 0 {
		return nil, errors.New("attack: Pages must be positive")
	}
	switch cfg.Mode {
	case Repeat:
		return &repeatStream{addr: 0}, nil
	case Random:
		return &randomStream{n: cfg.Pages, src: rng.NewXorshift(cfg.Seed)}, nil
	case Scan:
		return &scanStream{n: cfg.Pages}, nil
	case Inconsistent:
		n := cfg.TargetPages
		if n == 0 {
			n = cfg.Pages / 4
			if n < 2 {
				n = 2
			}
		}
		if n < 2 {
			return nil, errors.New("attack: inconsistent attack needs TargetPages >= 2")
		}
		if n > cfg.Pages {
			n = cfg.Pages
		}
		q := cfg.QuietThreshold
		if q <= 0 {
			q = 48
		}
		s := &inconsistentStream{n: n, quietThreshold: q}
		s.buildWeights()
		return s, nil
	default:
		return nil, fmt.Errorf("attack: unknown mode %v", cfg.Mode)
	}
}

type repeatStream struct{ addr int }

func (s *repeatStream) Name() string         { return "repeat" }
func (s *repeatStream) Next(fb Feedback) int { return s.addr }

// NextRun implements RunStream: the repeat attack is one unbounded
// same-address run.
func (s *repeatStream) NextRun(Feedback) (int, int) { return s.addr, repeatRunLength }

type randomStream struct {
	n   int // snap: construction input
	src *rng.Xorshift
}

func (s *randomStream) Name() string         { return "random" }
func (s *randomStream) Next(fb Feedback) int { return s.src.Intn(s.n) }

type scanStream struct {
	n   int // snap: construction input
	pos int
}

func (s *scanStream) Name() string { return "scan" }
func (s *scanStream) Next(fb Feedback) int {
	a := s.pos
	s.pos++
	if s.pos >= s.n {
		s.pos = 0
	}
	return a
}

// NextSweep implements SweepStream: the rest of the current ascending pass,
// after which the scan wraps to address 0.
func (s *scanStream) NextSweep(Feedback) (int, int) {
	a := s.pos
	s.pos = 0
	return a, s.n - a
}

// inconsistentStream implements the Section 3.2 attack. It cycles through N
// target addresses in bursts — address i written weights[i] times per pass,
// the Figure 3 pattern — and reverses the weight vector whenever it detects
// that a swap phase has completed: a blocked response followed by
// quietThreshold unblocked writes. Reversals are rate-limited to a minimum
// spacing of several passes (the attacker wants the misleading distribution
// observed for a full prediction window before striking), and a fallback
// reversal fires if no swap has been observed for many passes, so schemes
// whose maintenance is invisible still face an alternating distribution.
//
// The weight vector is the limit case of the paper's W_1 < W_k < W_N: the
// lower half of the targets receives zero writes — maximally cold, so any
// hot/cold classifier files them with the coldest data and parks them on
// the weakest pages — and the upper half ramps up to the 90-write bursts of
// the Figure 3 example. After a reversal the halves exchange roles and the
// previously-frozen addresses take the heaviest bursts.
type inconsistentStream struct {
	n              int   // snap: construction input
	weights        []int // snap: derived by buildWeights
	passLen        int   // snap: derived by buildWeights
	quietThreshold int   // snap: construction input

	idx       int // current target address
	remaining int // writes left in the current burst
	reversed  bool

	sawBlock   bool
	quiet      int
	sinceFlip  int
	minFlipAt  int // snap: derived by buildWeights
	fallbackAt int // snap: derived by buildWeights

	// owed is how many served requests of the current NextRun commitment
	// still owe the stream their feedback (see FeedbackRunStream): their
	// swap-detection halves were deferred to Observe when the run's
	// emission halves were bulk-applied.
	owed int

	// Reversals counts distribution flips (exported via accessor for tests
	// and experiment logs).
	reversals int
}

var _ FeedbackRunStream = (*inconsistentStream)(nil)

// buildWeights constructs the burst lengths: zero for the cold half,
// an ascending 2..90 ramp (the Figure 3 spread) for the hot half.
func (s *inconsistentStream) buildWeights() {
	s.weights = make([]int, s.n)
	total := 0
	half := s.n / 2
	for i := half; i < s.n; i++ {
		span := s.n - half - 1
		w := 2
		if span > 0 {
			w = 2 + (88*(i-half))/span
		}
		s.weights[i] = w
		total += w
	}
	s.passLen = total
	s.minFlipAt = 4 * total
	s.fallbackAt = 20 * total
	s.idx = -1
	s.advance()
}

// advance moves to the next target with a non-zero burst.
func (s *inconsistentStream) advance() {
	for {
		s.idx++
		if s.idx >= s.n {
			s.idx = 0
		}
		if w := s.weight(s.idx); w > 0 {
			s.remaining = w
			return
		}
	}
}

func (s *inconsistentStream) Name() string { return "inconsistent" }

// Reversals reports how many times the distribution flipped.
func (s *inconsistentStream) Reversals() int { return s.reversals }

func (s *inconsistentStream) Next(fb Feedback) int {
	// Swap-phase detection (Section 3.2 step-1/step-2): remember blocked
	// responses; once the memory has been quiet for quietThreshold writes
	// after a block, the swap phase is over — reverse the distribution.
	if fb.Blocked {
		s.sawBlock = true
		s.quiet = 0
	} else if s.sawBlock {
		s.quiet++
		if s.quiet >= s.quietThreshold && s.sinceFlip >= s.minFlipAt {
			s.reverse()
		}
	}
	s.sinceFlip++
	if s.sinceFlip >= s.fallbackAt {
		// No observable swap for many passes: flip anyway.
		s.reverse()
	}

	// Burst emission.
	if s.remaining == 0 {
		s.advance()
	}
	s.remaining--
	return s.idx
}

// NextRun implements FeedbackRunStream. Next interleaves two independent
// halves per request: the swap-detection half (sawBlock/quiet bookkeeping,
// which reads the previous request's feedback and may reverse) and the
// emission half (sinceFlip and burst advance, which may also reverse via the
// fallback). As long as no reversal can fire, the halves touch disjoint
// state and commute — so NextRun serves the first request through the full
// serial Next (absorbing any reversal at the run head), bulk-applies the
// emission halves of the longest provably reversal-free extension, and
// defers that extension's detection halves to Observe.
func (s *inconsistentStream) NextRun(fb Feedback) (int, int) {
	a := s.Next(fb)
	h := s.safeHorizon()
	s.sinceFlip += h
	s.remaining -= h
	s.owed = h
	return a, 1 + h
}

// safeHorizon returns how many writes beyond the one just emitted are
// guaranteed to repeat the same address with no reversal, whatever feedback
// the served writes produce. Three bounds: the current burst's remainder
// (the address changes after it), the fallback reversal (fires when
// sinceFlip reaches fallbackAt, feedback-independent), and the earliest
// future request at which the swap-end reversal could fire assuming
// worst-case feedback — a quiet streak running on unbroken if a block was
// already seen, or a block on the very next response otherwise.
func (s *inconsistentStream) safeHorizon() int {
	h := s.remaining
	if f := s.fallbackAt - s.sinceFlip - 1; f < h {
		h = f
	}
	// j is the earliest request index (1-based, counting from the next
	// request) at which quiet could reach quietThreshold; the reversal
	// additionally requires sinceFlip (read before its increment) to have
	// reached minFlipAt by then.
	j := s.quietThreshold + 1
	if s.sawBlock {
		j = s.quietThreshold - s.quiet
	}
	if m := s.minFlipAt - s.sinceFlip + 1; m > j {
		j = m
	}
	if j-1 < h {
		h = j - 1
	}
	if h < 0 {
		h = 0
	}
	return h
}

// Observe implements FeedbackRunStream: the deferred swap-detection halves
// of n served requests, under their shared feedback. Within a NextRun
// commitment safeHorizon guarantees no reversal can fire, so the halves
// reduce to O(1) counter arithmetic; the run's last request is never
// consumed here (owed caps at n-1) — its feedback arrives through the next
// NextRun, as in the serial protocol.
func (s *inconsistentStream) Observe(fb Feedback, n int) {
	if n > s.owed {
		n = s.owed
	}
	if n <= 0 {
		return
	}
	s.owed -= n
	if fb.Blocked {
		s.sawBlock = true
		s.quiet = 0
	} else if s.sawBlock {
		s.quiet += n
	}
}

// weight returns the current burst length for address i under the current
// orientation.
func (s *inconsistentStream) weight(i int) int {
	if s.reversed {
		return s.weights[s.n-1-i]
	}
	return s.weights[i]
}

// reverse flips the distribution and restarts the pass.
func (s *inconsistentStream) reverse() {
	s.reversed = !s.reversed
	s.reversals++
	s.sawBlock = false
	s.quiet = 0
	s.sinceFlip = 0
	s.idx = -1
	s.advance()
}
