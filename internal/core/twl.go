// Package core implements Toss-up Wear Leveling (TWL), the paper's
// contribution (Section 4).
//
// TWL abandons write-intensity prediction entirely. Physical pages are bound
// into "toss-up pairs"; every write addressed to either page of a pair is
// probabilistically reallocated inside the pair with probability
// E_A/(E_A+E_B) of landing on page A (Figure 4a) — a "toss-up" — so the
// stronger page statistically absorbs more writes no matter what the write
// distribution looks like. Because the choice is random and
// endurance-proportional, an attacker gains nothing from presenting an
// inconsistent distribution: there is no prediction to mislead.
//
// The engine implements all three optimizations of Section 4.3 plus the
// write flow of Figure 5:
//
//   - Swap judge (Figure 4c): when the toss-up picks the page the data is
//     not currently on, the engine performs "swap-then-write" at a cost of
//     two page writes, not three — the chosen page's old data migrates to
//     the unchosen page, then the demand data is written to the chosen page.
//   - Strong-Weak Pairing (SWP): pages sorted by endurance; the k-th
//     weakest pairs with the k-th strongest, minimizing swap probability
//     (Case 2/3 of the Section 4.2 model) and shielding weak pages.
//   - Interval-triggered toss-up: the toss-up only runs every TossUpInterval
//     writes to a pair, tracked in the 7-bit write-counter table (WCT),
//     cutting the swap/write ratio proportionally (Figure 7).
//   - Inter-pair swap: every InterPairSwapInterval writes to a logical page,
//     its data swaps with a uniformly random logical page, spreading traffic
//     across pairs (Section 4.1; fixed at 128 in the evaluation).
package core

import (
	"fmt"
	"io"
	"math"

	"twl/internal/pcm"
	"twl/internal/rng"
	"twl/internal/snap"
	"twl/internal/tables"
	"twl/internal/wl"
)

// Pairing selects how physical pages are bound into toss-up pairs.
type Pairing int

const (
	// StrongWeak sorts pages by endurance and pairs rank k with rank
	// N+1−k — the paper's SWP optimization ("TWL_swp").
	StrongWeak Pairing = iota
	// Adjacent pairs physically adjacent pages (2i, 2i+1) — the naive
	// baseline the paper labels "TWL_ap".
	Adjacent
	// Random pairs pages by a uniformly random perfect matching — an
	// ablation point between the two.
	Random
)

// String implements fmt.Stringer.
func (p Pairing) String() string {
	switch p {
	case StrongWeak:
		return "swp"
	case Adjacent:
		return "ap"
	case Random:
		return "rand"
	default:
		return fmt.Sprintf("Pairing(%d)", int(p))
	}
}

// Config parameterizes the TWL engine.
type Config struct {
	// Pairing is the pair-formation policy (paper default: StrongWeak).
	Pairing Pairing
	// TossUpInterval triggers the toss-up every this many writes to a pair.
	// Must be in [1, tables.MaxInterval]; the paper picks 32 (Figure 7).
	TossUpInterval int
	// InterPairSwapInterval swaps a page with a random page every this many
	// writes to it; 0 disables. The evaluation fixes 128 (Table 1).
	InterPairSwapInterval int
	// Seed drives the RNGs.
	Seed uint64
	// UseFeistel selects the hardware-faithful 8-bit Feistel RNG for toss-up
	// decisions (default true); false uses xorshift (ablation).
	UseFeistel bool
	// ETNoiseSigma models endurance-measurement error: the ET the engine
	// consults (for pairing and toss-up ratios) is the true endurance
	// perturbed by Gaussian noise with this relative sigma. 0 means the
	// manufacturer-tested values are exact (the paper's assumption). The
	// ablation bench uses this to show how gracefully TWL degrades when the
	// ET is wrong.
	ETNoiseSigma float64
}

// DefaultConfig returns the evaluation configuration of Table 1/Section 5.2:
// strong-weak pairing, toss-up interval 32, inter-pair swap interval 128.
func DefaultConfig(seed uint64) Config {
	return Config{
		Pairing:               StrongWeak,
		TossUpInterval:        32,
		InterPairSwapInterval: 128,
		Seed:                  seed,
		UseFeistel:            true,
	}
}

// alphaSource is the RNG interface the toss-up needs; a checkpoint persists
// its stream position.
type alphaSource interface {
	Alpha() float64
	Intn(n int) int
	wl.Snapshotter
}

// xorshiftAlpha adapts Xorshift to the alphaSource interface.
type xorshiftAlpha struct{ *rng.Xorshift }

func (x xorshiftAlpha) Alpha() float64 { return x.Float64() }

// Engine is the TWL wear-leveling engine (Figure 5). Every per-page
// structure is stored at the width its data needs: the RT, the SWPT, the ET
// and the repLA cache at uint32, the WCT at 7 bits in a byte and the
// inter-pair swap counters at uint8 (the interval is at most 255). That is
// 22 B/page of tables; at the paper's full geometry (8Mi pages) it lets a
// bank's shard of the TWL stack stay cache-resident.
type Engine struct {
	dev *pcm.Device // snap: device state is checkpointed by the sim layer
	cfg Config      // snap: construction input

	rt *tables.Remap // RT: LA → PA
	// SWPT over *physical* pages (pairs are an endurance property, so they
	// are static; the logical partner of an LA is derived through RT, which
	// is what the hardware SWPT caches).
	swpt *tables.PairTable // snap: static pairing derived from ET at New
	et   []uint32          // snap: derived from endurance map + seed at New. ET as the engine sees it (true or noisy)
	wct  *tables.Counter   // per-pair toss-up countdown (7-bit), indexed by pair representative
	// repLA caches the pair representative (the smaller pair member) of
	// la's physical page, so the sweep fast path loads one table, not a
	// three-deep pointer chase. A toss-up swap exchanges la with the
	// logical owner of its *pair partner* — both sides of the same pair,
	// same representative — so only the inter-pair swap moves a logical
	// page across pairs and has to maintain this cache.
	repLA []uint32 // snap: rebuilt from RT and the pair table on Restore
	ips   []uint8  // per-LA writes since last inter-pair swap (interval ≤ 255)
	src   alphaSource
	stats wl.Stats

	scratch []int // snap: scratch buffer; physical-address batch for WriteSweep
}

var _ wl.Scheme = (*Engine)(nil)
var _ wl.SweepWriter = (*Engine)(nil)
var _ wl.MemoryReporter = (*Engine)(nil)

// MaxIPSInterval is the largest inter-pair swap interval the engine's uint8
// counters can express (the evaluation uses 128).
const MaxIPSInterval = math.MaxUint8

// New builds a TWL engine over dev. InterPairSwapInterval must be at most
// MaxIPSInterval, and every ET entry after optional measurement noise must
// fit in uint32; both fail with ErrBadConfig.
func New(dev *pcm.Device, cfg Config) (*Engine, error) {
	if dev.Pages()%2 != 0 {
		return nil, fmt.Errorf("core: TWL needs an even page count to form pairs: %w", wl.ErrBadConfig)
	}
	if cfg.TossUpInterval < 1 || cfg.TossUpInterval > tables.MaxInterval {
		return nil, fmt.Errorf("core: TossUpInterval %d outside [1,%d]: %w",
			cfg.TossUpInterval, tables.MaxInterval, wl.ErrBadConfig)
	}
	if cfg.InterPairSwapInterval < 0 || cfg.InterPairSwapInterval > MaxIPSInterval {
		return nil, fmt.Errorf("core: InterPairSwapInterval %d outside [0,%d]: %w",
			cfg.InterPairSwapInterval, MaxIPSInterval, wl.ErrBadConfig)
	}
	if cfg.ETNoiseSigma < 0 {
		return nil, fmt.Errorf("core: ETNoiseSigma must be >= 0: %w", wl.ErrBadConfig)
	}
	et, err := buildET(dev, cfg)
	if err != nil {
		return nil, err
	}
	swpt, err := buildPairs(et, cfg)
	if err != nil {
		return nil, err
	}
	e := &Engine{
		dev:   dev,
		cfg:   cfg,
		rt:    tables.NewRemap(dev.Pages()),
		swpt:  swpt,
		et:    et,
		wct:   tables.NewCounter(dev.Pages()),
		repLA: make([]uint32, dev.Pages()),
		ips:   make([]uint8, dev.Pages()),
	}
	if cfg.UseFeistel {
		e.src = rng.NewFeistel(cfg.Seed)
	} else {
		e.src = xorshiftAlpha{rng.NewXorshift(cfg.Seed)}
	}
	e.rebuildRepLA()
	return e, nil
}

// buildET returns the endurance table the engine consults: the device's
// true map, optionally perturbed by measurement noise.
func buildET(dev *pcm.Device, cfg Config) ([]uint32, error) {
	end := dev.EnduranceMap()
	et := make([]uint32, len(end))
	var g *rng.Gaussian
	if cfg.ETNoiseSigma > 0 {
		g = rng.NewGaussian(rng.NewXorshift(cfg.Seed ^ 0xE7E7E7E7))
	}
	for i, e := range end {
		if g == nil {
			et[i] = uint32(e) // pcm caps endurance at 2^31
			continue
		}
		v := g.Sample(float64(e), cfg.ETNoiseSigma*float64(e))
		if v < 1 {
			v = 1
		}
		if v >= 1<<32 {
			return nil, fmt.Errorf("core: noisy ET[%d] = %g exceeds uint32: %w", i, v, wl.ErrBadConfig)
		}
		et[i] = uint32(v)
	}
	return et, nil
}

// buildPairs forms the toss-up pairs under the configured policy, using the
// engine's (possibly noisy) endurance table.
func buildPairs(et []uint32, cfg Config) (*tables.PairTable, error) {
	n := len(et)
	pt, err := tables.NewPairTable(n)
	if err != nil {
		return nil, err
	}
	switch cfg.Pairing {
	case StrongWeak:
		order := wl.SortByEndurance(et)
		for k := 0; k < n/2; k++ {
			if err := pt.Bind(order[k], order[n-1-k]); err != nil {
				return nil, err
			}
		}
	case Adjacent:
		for p := 0; p < n; p += 2 {
			if err := pt.Bind(p, p+1); err != nil {
				return nil, err
			}
		}
	case Random:
		perm := make([]int, n)
		for i := range perm {
			perm[i] = i
		}
		src := rng.NewXorshift(cfg.Seed ^ 0xA5A5A5A5)
		for i := n - 1; i > 0; i-- {
			j := src.Intn(i + 1)
			perm[i], perm[j] = perm[j], perm[i]
		}
		for k := 0; k < n; k += 2 {
			if err := pt.Bind(perm[k], perm[k+1]); err != nil {
				return nil, err
			}
		}
	default:
		return nil, fmt.Errorf("core: unknown pairing policy %v: %w", cfg.Pairing, wl.ErrBadConfig)
	}
	return pt, nil
}

// pairRep returns the pair representative (smaller member) of physical page
// pa, the WCT index of its pair.
func (e *Engine) pairRep(pa int) int {
	if q := e.swpt.Partner(pa); q < pa {
		return q
	}
	return pa
}

// rebuildRepLA derives the repLA cache from the RT and the pair table.
func (e *Engine) rebuildRepLA() {
	for la := range e.repLA {
		e.repLA[la] = uint32(e.pairRep(e.rt.Phys(la)))
	}
}

// Name implements wl.Scheme.
func (e *Engine) Name() string { return "TWL_" + e.cfg.Pairing.String() }

// Write implements wl.Scheme, following the Figure 5 write flow:
// SWPT → RT → ET → TWL engine, with the WCT gating the toss-up.
func (e *Engine) Write(la int, tag uint64) wl.Cost {
	// SWPT + RT lookups happen on every write.
	cost := wl.Cost{ExtraCycles: wl.ControlCycles + 2*wl.TableCycles}
	e.stats.DemandWrites++

	// Inter-pair swap: every InterPairSwapInterval writes to this logical
	// page, exchange it with a random logical page before serving the write.
	// The compare runs in int: a live counter stays below the (≤ 255)
	// interval, but a restored out-of-band state must fire rather than
	// wrap at the uint8 boundary.
	if e.cfg.InterPairSwapInterval > 0 {
		c := int(e.ips[la]) + 1
		if c >= e.cfg.InterPairSwapInterval {
			e.ips[la] = 0
			cost.Add(e.interPairSwap(la, tag))
			return cost
		}
		e.ips[la] = uint8(c)
	}

	pa := e.rt.Phys(la)
	pp := e.swpt.Partner(pa)
	rep := pa
	if pp < rep {
		rep = pp
	}

	// WCT countdown: the toss-up only runs at the interval. A wrap to zero
	// is the 128th increment (see tables.Counter), which covers the
	// interval == tables.MaxInterval case in 7 bits.
	if v := e.wct.Inc(rep); v != 0 && int(v) < e.cfg.TossUpInterval {
		e.dev.Write(pa, tag)
		cost.DeviceWrites++
		return cost
	}
	e.wct.Clear(rep)

	// Toss-up (Figure 4b): ET lookups for both endurances, RNG draw,
	// compare α against E_A/(E_A+E_B).
	cost.ExtraCycles += 2*wl.TableCycles + wl.RNGCycles
	e.stats.TossUps++
	ea := float64(e.et[pa])
	ep := float64(e.et[pp])
	chosen := pa
	if e.src.Alpha() >= ea/(ea+ep) {
		chosen = pp
	}

	// Swap judge (Figure 4c).
	if chosen == pa {
		e.dev.Write(pa, tag)
		cost.DeviceWrites++
		return cost
	}
	// Swap-then-write, two writes total: migrate the chosen page's current
	// data onto the unchosen page, then write the demand data to the chosen
	// page; RT swaps the two logical owners.
	partnerLA := e.rt.Log(pp)
	e.dev.Write(pa, e.dev.Peek(pp)) // migration write
	e.dev.Write(pp, tag)            // demand write at its new home
	e.rt.SwapLogical(la, partnerLA)
	e.stats.Swaps++
	e.stats.SwapWrites++ // one write beyond the demand write
	cost.DeviceWrites += 2
	cost.DeviceReads++
	cost.ExtraCycles += wl.TableCycles // RT update
	cost.Blocked = true
	return cost
}

// tossUpDistance returns how many more writes to a pair fire the next
// toss-up, given the pair representative's current WCT value v. The
// per-write path fires when Inc yields zero (the 7-bit wrap, covering
// interval == tables.MaxInterval) or a value >= interval; the engine clears
// the counter whenever a toss-up fires, so live states satisfy v < interval
// and the distance is interval − v. States past the interval (reachable only
// through fuzzing, never in a running engine) fire on the very next write:
// either the increment wraps 127 → 0 or it lands even further past the
// interval.
func tossUpDistance(v uint8, interval int) int {
	if int(v) >= interval {
		return 1
	}
	return interval - int(v)
}

// ipsDistance returns how many more writes to a logical page fire its next
// inter-pair swap, given its current counter c: the swap fires on the write
// that lifts the counter to the interval. As with tossUpDistance, counters
// at or past the interval (fuzz-only states) fire immediately.
func ipsDistance(c uint8, interval int) int {
	if int(c) >= interval {
		return 1
	}
	return interval - int(c)
}

// runHorizon returns how many of the next n same-address writes to la
// (currently backed by pa) are guaranteed event-free: strictly before the
// next inter-pair swap of la and strictly before the next toss-up of pa's
// pair. Both events consume RNG, so the horizon is exactly the stretch the
// fast path may absorb without desynchronizing the α stream from the
// per-write path.
func (e *Engine) runHorizon(la, pa, n int) int {
	k := n
	if e.cfg.InterPairSwapInterval > 0 {
		if d := ipsDistance(e.ips[la], e.cfg.InterPairSwapInterval) - 1; d < k {
			k = d
		}
	}
	if d := tossUpDistance(e.wct.Get(e.pairRep(pa)), e.cfg.TossUpInterval) - 1; d < k {
		k = d
	}
	return k
}

// WriteRun implements wl.RunWriter via an event-horizon fast-forward: a
// same-address run maps to one physical page until the next RNG-bearing
// event (toss-up or inter-pair swap), so the event-free prefix collapses
// into a single bulk device write plus O(1) counter advances. absorbed == 0
// signals that the next write fires an event; the caller serves it through
// Write, which performs the toss-up / inter-pair swap with exactly the RNG
// draws — in exactly the order — the per-write path would make.
//
//twl:hotpath
func (e *Engine) WriteRun(la int, tag uint64, n int) (wl.Cost, int) {
	pa := e.rt.Phys(la)
	k := e.runHorizon(la, pa, n)
	if k <= 0 {
		return wl.Cost{}, 0
	}
	// WriteN clamps at a mid-run wear-out, counting the failing write.
	applied := e.dev.WriteN(pa, tag, k)
	e.stats.DemandWrites += uint64(applied)
	if e.cfg.InterPairSwapInterval > 0 {
		// The horizon stops strictly before the next inter-pair swap, so the
		// advanced counter stays below the (≤ 255) interval and fits uint8.
		e.ips[la] += uint8(applied)
	}
	e.wct.Add(e.pairRep(pa), applied)
	return wl.Cost{DeviceWrites: 1, ExtraCycles: wl.ControlCycles + 2*wl.TableCycles}, applied
}

// WriteSweep implements wl.SweepWriter. A sweep touches distinct logical
// pages, but consecutive addresses can share a toss-up pair (and therefore a
// WCT entry), so the walk advances the counters write by write — mutating
// them exactly as the per-write path would before its device write — and
// stops at the first write that would fire an event. The batched physical
// addresses then go to the device as one gather-write.
//
//twl:hotpath
func (e *Engine) WriteSweep(la int, tag uint64, n int) (wl.Cost, int) {
	buf := wl.Scratch(&e.scratch, n)[:0]
	// Subslice the per-LA tables to the sweep window so the walk's loads
	// index by i with no bounds checks (wct is indexed by representative and
	// keeps its check).
	phys := e.rt.PhysTable()[la : la+n]
	wct := e.wct.Raw()
	reps := e.repLA[la : la+n]
	ips := e.ips[la : la+n]
	ipsI, tossI := e.cfg.InterPairSwapInterval, e.cfg.TossUpInterval
	// While every page keeps more than n writes of endurance, no write in
	// this sweep can wear a page out and the per-write failure pre-check is
	// skipped. Near end of life the walk checks Remaining before each write:
	// a write that wears pa out stops the sweep with that write applied, and
	// the walk must stop with it so the counter mutations never cover writes
	// WriteSeq clamps away — within one sweep the RT bijection keeps the
	// physical addresses distinct, so the pre-check agrees exactly with
	// WriteSeq's failure clamp.
	safe := e.dev.MinRemainingAtLeast(uint64(n) + 1)
	for i := range ips {
		// The next write here fires the inter-pair swap when its counter is
		// one short of the interval (c+1 >= interval ⇔ ipsDistance == 1).
		// The sum runs in int so a uint8 counter at 254 under interval 255
		// cannot wrap.
		c := ips[i]
		if ipsI > 0 && int(c)+1 >= ipsI {
			break
		}
		rep := reps[i]
		v := wct[rep]
		// The next Inc fires the toss-up when it reaches the interval or
		// wraps (v+1 >= interval covers both: a live counter stays below the
		// interval ≤ 128, so the only wrap candidate is v = 127 under
		// interval 128, and 128 >= 128). Otherwise v+1 < interval needs no
		// 7-bit mask.
		if int(v)+1 >= tossI {
			break
		}
		wct[rep] = v + 1
		if ipsI > 0 {
			ips[i] = c + 1
		}
		pa := int(phys[i])
		buf = append(buf, pa)
		if !safe && e.dev.Remaining(pa) <= 1 {
			break
		}
	}
	if len(buf) == 0 {
		return wl.Cost{}, 0
	}
	applied := e.dev.WriteSeq(buf, tag)
	e.stats.DemandWrites += uint64(applied)
	return wl.Cost{DeviceWrites: 1, ExtraCycles: wl.ControlCycles + 2*wl.TableCycles}, applied
}

// interPairSwap exchanges la's physical page with that of a uniformly
// random logical page and serves the demand write at the new location.
// Like swap-then-write it costs two page writes: the displaced data migrates
// to la's old page, and la's new data is written to its new page.
func (e *Engine) interPairSwap(la int, tag uint64) wl.Cost {
	cost := wl.Cost{ExtraCycles: wl.ControlCycles + wl.RNGCycles + wl.TableCycles}
	other := e.src.Intn(e.dev.Pages())
	if other == la {
		other = (other + 1) % e.dev.Pages()
	}
	paLA := e.rt.Phys(la)
	paOther := e.rt.Phys(other)
	e.dev.Write(paLA, e.dev.Peek(paOther)) // displaced data moves here
	e.dev.Write(paOther, tag)              // demand write at la's new home
	e.rt.SwapLogical(la, other)
	e.repLA[la], e.repLA[other] = e.repLA[other], e.repLA[la]
	e.stats.Swaps++
	e.stats.SwapWrites++
	cost.DeviceWrites += 2
	cost.DeviceReads++
	cost.Blocked = true
	return cost
}

// Read implements wl.Scheme (Figure 5a): RT lookup then array read.
func (e *Engine) Read(la int) (uint64, wl.Cost) {
	e.stats.DemandReads++
	return e.dev.Read(e.rt.Phys(la)), wl.Cost{DeviceReads: 1, ExtraCycles: wl.TableCycles}
}

// ReadN implements wl.Scheme.
func (e *Engine) ReadN(n int) wl.Cost {
	e.stats.DemandReads += uint64(n)
	e.dev.CountReads(n)
	return wl.Cost{DeviceReads: 1, ExtraCycles: wl.TableCycles}
}

// Stats implements wl.Scheme.
func (e *Engine) Stats() wl.Stats { return e.stats }

// Device implements wl.Scheme.
func (e *Engine) Device() *pcm.Device { return e.dev }

// Config returns the engine configuration.
func (e *Engine) Config() Config { return e.cfg }

// PartnerOf returns the current logical partner of la (the LApair of
// Figure 5): the logical page mapped to the physical partner of la's page.
func (e *Engine) PartnerOf(la int) int {
	return e.rt.Log(e.swpt.Partner(e.rt.Phys(la)))
}

// TableBytes implements wl.MemoryReporter: the engine's per-page metadata,
// 22 B/page (RT 8, SWPT 4, ET 4, repLA 4, WCT 1, inter-pair counters 1)
// plus the sweep scratch buffer.
func (e *Engine) TableBytes() int64 {
	return e.rt.Bytes() + e.swpt.Bytes() + int64(len(e.et))*4 + e.wct.Bytes() +
		int64(len(e.repLA))*4 + int64(len(e.ips)) + int64(len(e.scratch))*8
}

// CheckInvariants implements wl.Checker: RT bijection, SWPT involution
// (mutual, fixed-point-free partners — pairs are disjoint), table geometry
// against the device, pair-representative and counter consistency, and wear
// conservation (device writes = demand + swap writes).
func (e *Engine) CheckInvariants() error {
	if err := e.rt.CheckBijection(); err != nil {
		return err
	}
	if err := e.swpt.Check(); err != nil {
		return err
	}
	pages := e.dev.Pages()
	if e.rt.Len() != pages || e.swpt.Len() != pages || len(e.et) != pages ||
		e.wct.Len() != pages || len(e.ips) != pages || len(e.repLA) != pages {
		return fmt.Errorf("core: table sizes RT=%d SWPT=%d ET=%d WCT=%d ips=%d repLA=%d do not all match %d pages",
			e.rt.Len(), e.swpt.Len(), len(e.et), e.wct.Len(), len(e.ips), len(e.repLA), pages)
	}
	for la := 0; la < pages; la++ {
		if want := e.pairRep(e.rt.Phys(la)); int(e.repLA[la]) != want {
			return fmt.Errorf("core: repLA[%d] = %d, want pair representative %d", la, e.repLA[la], want)
		}
	}
	for pa := 0; pa < pages; pa++ {
		if e.et[pa] == 0 {
			return fmt.Errorf("core: ET[%d] is zero; the toss-up ratio would divide by zero", pa)
		}
		// The WCT is indexed by representative only: non-representative
		// entries are never touched, and a live countdown is cleared before
		// it reaches the interval.
		if v := int(e.wct.Get(pa)); e.pairRep(pa) != pa && v != 0 {
			return fmt.Errorf("core: WCT[%d] = %d but %d is not a pair representative", pa, v, pa)
		} else if v >= e.cfg.TossUpInterval && e.cfg.TossUpInterval < tables.MaxInterval {
			return fmt.Errorf("core: WCT[%d] = %d reached the toss-up interval %d without being cleared",
				pa, v, e.cfg.TossUpInterval)
		}
	}
	if e.cfg.InterPairSwapInterval > 0 {
		for la, c := range e.ips {
			if int(c) >= e.cfg.InterPairSwapInterval {
				return fmt.Errorf("core: ipsCount[%d] = %d reached the inter-pair swap interval %d without resetting",
					la, c, e.cfg.InterPairSwapInterval)
			}
		}
	}
	want := e.stats.DemandWrites + e.stats.SwapWrites
	if got := e.dev.TotalWrites(); got != want {
		return fmt.Errorf("core: device writes %d != demand %d + swap %d",
			got, e.stats.DemandWrites, e.stats.SwapWrites)
	}
	return nil
}

// Snapshot implements wl.Snapshotter: the RT, the WCT, the inter-pair swap
// counters, the α-RNG stream position and the stats. The RNG is persisted
// through its own Snapshotter implementation (Feistel or xorshift depending
// on Config.UseFeistel); SWPT and ET are endurance-derived statics and
// repLA is rebuilt from the restored RT. The uint8 inter-pair counters go
// out as a length-prefixed uint32 stream, so the wire format does not
// depend on their storage width.
func (e *Engine) Snapshot(w io.Writer) error {
	if err := e.rt.Snapshot(w); err != nil {
		return err
	}
	if err := e.wct.Snapshot(w); err != nil {
		return err
	}
	sw := snap.NewWriter(w)
	sw.U32(uint32(len(e.ips)))
	for _, c := range e.ips {
		sw.U32(uint32(c))
	}
	if err := sw.Err(); err != nil {
		return err
	}
	if err := e.src.Snapshot(w); err != nil {
		return err
	}
	return e.stats.Snapshot(w)
}

// Restore implements wl.Snapshotter.
func (e *Engine) Restore(r io.Reader) error {
	if err := e.rt.Restore(r); err != nil {
		return err
	}
	if err := e.wct.Restore(r); err != nil {
		return err
	}
	sr := snap.NewReader(r)
	if got := sr.U32(); sr.Err() == nil && int(got) != len(e.ips) {
		return fmt.Errorf("core: checkpoint ips length %d does not match %d pages", got, len(e.ips))
	}
	for la := range e.ips {
		v := sr.U32()
		if v > MaxIPSInterval {
			return fmt.Errorf("core: checkpoint ipsCount[%d] = %d exceeds uint8", la, v)
		}
		e.ips[la] = uint8(v)
	}
	if err := sr.Err(); err != nil {
		return err
	}
	if err := e.src.Restore(r); err != nil {
		return err
	}
	if err := e.stats.Restore(r); err != nil {
		return err
	}
	e.rebuildRepLA()
	return nil
}
