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

// PackedEngine is the TWL engine over packed metadata tables: the same write
// flow, RNG discipline and snapshot wire format as Engine, with every
// per-page structure narrowed to the width the data actually needs — the RT
// and repLA cache at uint32, the SWPT and ET at uint32, the inter-pair swap
// counters at uint8 (the interval is at most 255). The wide Engine stores
// 53 B/page of tables; PackedEngine stores 22 B/page, and at the paper's
// full geometry (8Mi pages) that is the difference between the TWL stack
// thrashing LLC and fitting a shard of it per bank.
//
// Bit-identity contract: for the same device state, configuration and seed,
// every operation (Write, Read, WriteRun, WriteSweep) must leave the device,
// the stats and the RNG stream in exactly the state the wide Engine would,
// and Snapshot must emit byte-identical checkpoints. The differential matrix
// in packed_test.go enforces this; NewAuto relies on it to pick the packed
// engine transparently.
type PackedEngine struct {
	dev *pcm.Device // snap: device state is checkpointed by the sim layer
	cfg Config      // snap: construction input

	rt   *tables.Remap32 // RT: LA → PA
	swpt *tables.Pair32  // snap: static pairing derived from ET at NewPacked
	et32 []uint32        // snap: derived from endurance map + seed at NewPacked
	wct  *tables.Counter // per-pair toss-up countdown (7-bit)
	// repLA caches the pair representative of la's physical page (the
	// smaller pair member), same as Engine.repLA; PackedEngine has no
	// pairIdx array — the representative is min(pa, partner) on demand.
	repLA []uint32 // snap: rebuilt from RT and the pair table on Restore
	ips8  []uint8  // per-LA writes since last inter-pair swap (interval ≤ 255)
	src   alphaSource
	stats wl.Stats

	scratch []int // snap: scratch buffer; physical-address batch for WriteSweep
}

var _ wl.Scheme = (*PackedEngine)(nil)
var _ wl.Checker = (*PackedEngine)(nil)
var _ wl.RunWriter = (*PackedEngine)(nil)
var _ wl.SweepWriter = (*PackedEngine)(nil)
var _ wl.MemoryReporter = (*PackedEngine)(nil)

// MaxPackedIPSInterval is the largest inter-pair swap interval the packed
// engine's uint8 counters can express.
const MaxPackedIPSInterval = math.MaxUint8

// NewPacked builds a packed TWL engine over dev. The configuration must fit
// the packed widths: InterPairSwapInterval at most MaxPackedIPSInterval and
// every ET entry (after optional measurement noise) within uint32. NewAuto
// checks these and falls back to the wide Engine; calling NewPacked directly
// fails loudly instead.
func NewPacked(dev *pcm.Device, cfg Config) (*PackedEngine, error) {
	if dev.Pages()%2 != 0 {
		return nil, fmt.Errorf("core: TWL needs an even page count to form pairs: %w", wl.ErrBadConfig)
	}
	if cfg.TossUpInterval < 1 || cfg.TossUpInterval > tables.MaxInterval {
		return nil, fmt.Errorf("core: TossUpInterval %d outside [1,%d]: %w",
			cfg.TossUpInterval, tables.MaxInterval, wl.ErrBadConfig)
	}
	if cfg.InterPairSwapInterval < 0 {
		return nil, fmt.Errorf("core: InterPairSwapInterval must be >= 0: %w", wl.ErrBadConfig)
	}
	if cfg.InterPairSwapInterval > MaxPackedIPSInterval {
		return nil, fmt.Errorf("core: InterPairSwapInterval %d exceeds packed limit %d: %w",
			cfg.InterPairSwapInterval, MaxPackedIPSInterval, wl.ErrBadConfig)
	}
	if cfg.ETNoiseSigma < 0 {
		return nil, fmt.Errorf("core: ETNoiseSigma must be >= 0: %w", wl.ErrBadConfig)
	}
	// Build the ET and pairing through the exact wide-engine code, then pack:
	// the pairing is a sort over the ET, and reproducing the wide sort — ties
	// and all — is what keeps the two engines' pair tables identical.
	et := buildET(dev, cfg)
	et32 := make([]uint32, len(et))
	for i, v := range et {
		if v > math.MaxUint32 {
			return nil, fmt.Errorf("core: ET[%d] = %d exceeds packed width: %w", i, v, wl.ErrBadConfig)
		}
		et32[i] = uint32(v)
	}
	widePairs, err := buildPairs(et, cfg)
	if err != nil {
		return nil, err
	}
	swpt, err := tables.NewPair32(widePairs)
	if err != nil {
		return nil, err
	}
	rt, err := tables.NewRemap32(dev.Pages())
	if err != nil {
		return nil, err
	}
	e := &PackedEngine{
		dev:  dev,
		cfg:  cfg,
		rt:   rt,
		swpt: swpt,
		et32: et32,
		wct:  tables.NewCounter(dev.Pages()),
		ips8: make([]uint8, dev.Pages()),
	}
	if cfg.UseFeistel {
		e.src = rng.NewFeistel(cfg.Seed)
	} else {
		e.src = xorshiftAlpha{rng.NewXorshift(cfg.Seed)}
	}
	e.repLA = make([]uint32, dev.Pages())
	for la := range e.repLA {
		e.repLA[la] = uint32(e.pairRep(e.rt.Phys(la)))
	}
	return e, nil
}

// pairRep returns the pair representative (smaller member) of physical page
// pa — what the wide engine caches in pairIdx.
func (e *PackedEngine) pairRep(pa int) int {
	if q := e.swpt.Partner(pa); q < pa {
		return q
	}
	return pa
}

// Name implements wl.Scheme. The packed engine reports the same name as the
// wide one — it is an implementation of the same scheme, not a new scheme.
func (e *PackedEngine) Name() string { return "TWL_" + e.cfg.Pairing.String() }

// Write implements wl.Scheme, mirroring Engine.Write decision for decision
// (and RNG draw for RNG draw).
func (e *PackedEngine) Write(la int, tag uint64) wl.Cost {
	cost := wl.Cost{ExtraCycles: wl.ControlCycles + 2*wl.TableCycles}
	e.stats.DemandWrites++

	if e.cfg.InterPairSwapInterval > 0 {
		// int arithmetic before the compare: a live counter stays below the
		// (≤ 255) interval, but restored out-of-band states must fire like
		// the wide engine instead of wrapping at the uint8 boundary.
		c := int(e.ips8[la]) + 1
		if c >= e.cfg.InterPairSwapInterval {
			e.ips8[la] = 0
			cost.Add(e.interPairSwap(la, tag))
			return cost
		}
		e.ips8[la] = uint8(c)
	}

	pa := e.rt.Phys(la)
	pp := e.swpt.Partner(pa)
	rep := pa
	if pp < rep {
		rep = pp
	}

	if v := e.wct.Inc(rep); v != 0 && int(v) < e.cfg.TossUpInterval {
		e.dev.Write(pa, tag)
		cost.DeviceWrites++
		return cost
	}
	e.wct.Clear(rep)

	cost.ExtraCycles += 2*wl.TableCycles + wl.RNGCycles
	e.stats.TossUps++
	ea := float64(e.et32[pa])
	ep := float64(e.et32[pp])
	chosen := pa
	if e.src.Alpha() >= ea/(ea+ep) {
		chosen = pp
	}

	if chosen == pa {
		e.dev.Write(pa, tag)
		cost.DeviceWrites++
		return cost
	}
	partnerLA := e.rt.Log(pp)
	e.dev.Write(pa, e.dev.Peek(pp)) // migration write
	e.dev.Write(pp, tag)            // demand write at its new home
	e.rt.SwapLogical(la, partnerLA)
	e.stats.Swaps++
	e.stats.SwapWrites++
	cost.DeviceWrites += 2
	cost.DeviceReads++
	cost.ExtraCycles += wl.TableCycles
	cost.Blocked = true
	return cost
}

// runHorizon mirrors Engine.runHorizon over the packed counters.
func (e *PackedEngine) runHorizon(la, pa, n int) int {
	k := n
	if e.cfg.InterPairSwapInterval > 0 {
		if d := ipsDistance(uint32(e.ips8[la]), e.cfg.InterPairSwapInterval) - 1; d < k {
			k = d
		}
	}
	if d := tossUpDistance(e.wct.Get(e.pairRep(pa)), e.cfg.TossUpInterval) - 1; d < k {
		k = d
	}
	return k
}

// WriteRun implements wl.RunWriter with the same event-horizon fast-forward
// as Engine.WriteRun.
//
//twl:hotpath
func (e *PackedEngine) WriteRun(la int, tag uint64, n int) (wl.Cost, int) {
	pa := e.rt.Phys(la)
	k := e.runHorizon(la, pa, n)
	if k <= 0 {
		return wl.Cost{}, 0
	}
	applied := e.dev.WriteN(pa, tag, k)
	e.stats.DemandWrites += uint64(applied)
	if e.cfg.InterPairSwapInterval > 0 {
		// The horizon stops strictly before the next inter-pair swap, so the
		// advanced counter stays below the (≤ 255) interval and fits uint8.
		e.ips8[la] += uint8(applied)
	}
	e.wct.Add(e.pairRep(pa), applied)
	return wl.Cost{DeviceWrites: 1, ExtraCycles: wl.ControlCycles + 2*wl.TableCycles}, applied
}

// WriteSweep implements wl.SweepWriter with the same walk as
// Engine.WriteSweep, loading the packed tables (half the cache traffic of
// the wide walk — the point of the packed layout).
//
//twl:hotpath
func (e *PackedEngine) WriteSweep(la int, tag uint64, n int) (wl.Cost, int) {
	buf := wl.Scratch(&e.scratch, n)[:0]
	phys := e.rt.PhysTable()[la : la+n]
	wct := e.wct.Raw()
	reps := e.repLA[la : la+n]
	ips := e.ips8[la : la+n]
	ipsI, tossI := e.cfg.InterPairSwapInterval, e.cfg.TossUpInterval
	safe := e.dev.MinRemainingAtLeast(uint64(n) + 1)
	for i := range ips {
		c := ips[i]
		// int arithmetic before comparing: a uint8 counter at 254 under
		// interval 255 must not wrap in the c+1.
		if ipsI > 0 && int(c)+1 >= ipsI {
			break
		}
		rep := reps[i]
		v := wct[rep]
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

// interPairSwap mirrors Engine.interPairSwap.
func (e *PackedEngine) interPairSwap(la int, tag uint64) wl.Cost {
	cost := wl.Cost{ExtraCycles: wl.ControlCycles + wl.RNGCycles + wl.TableCycles}
	other := e.src.Intn(e.dev.Pages())
	if other == la {
		other = (other + 1) % e.dev.Pages()
	}
	paLA := e.rt.Phys(la)
	paOther := e.rt.Phys(other)
	e.dev.Write(paLA, e.dev.Peek(paOther))
	e.dev.Write(paOther, tag)
	e.rt.SwapLogical(la, other)
	e.repLA[la], e.repLA[other] = e.repLA[other], e.repLA[la]
	e.stats.Swaps++
	e.stats.SwapWrites++
	cost.DeviceWrites += 2
	cost.DeviceReads++
	cost.Blocked = true
	return cost
}

// Read implements wl.Scheme.
func (e *PackedEngine) Read(la int) (uint64, wl.Cost) {
	e.stats.DemandReads++
	return e.dev.Read(e.rt.Phys(la)), wl.Cost{DeviceReads: 1, ExtraCycles: wl.TableCycles}
}

// ReadN implements wl.Scheme.
func (e *PackedEngine) ReadN(n int) wl.Cost {
	e.stats.DemandReads += uint64(n)
	e.dev.CountReads(n)
	return wl.Cost{DeviceReads: 1, ExtraCycles: wl.TableCycles}
}

// Stats implements wl.Scheme.
func (e *PackedEngine) Stats() wl.Stats { return e.stats }

// Device implements wl.Scheme.
func (e *PackedEngine) Device() *pcm.Device { return e.dev }

// Config returns the engine configuration.
func (e *PackedEngine) Config() Config { return e.cfg }

// PartnerOf returns the current logical partner of la.
func (e *PackedEngine) PartnerOf(la int) int {
	return e.rt.Log(e.swpt.Partner(e.rt.Phys(la)))
}

// TableBytes implements wl.MemoryReporter.
func (e *PackedEngine) TableBytes() int64 {
	return e.rt.Bytes() + e.swpt.Bytes() + int64(len(e.et32))*4 + e.wct.Bytes() +
		int64(len(e.repLA))*4 + int64(len(e.ips8)) + int64(len(e.scratch))*8
}

// CheckInvariants implements wl.Checker, mirroring Engine.CheckInvariants
// plus the packed-width bounds.
func (e *PackedEngine) CheckInvariants() error {
	if err := e.rt.CheckBijection(); err != nil {
		return err
	}
	if err := e.swpt.Check(); err != nil {
		return err
	}
	pages := e.dev.Pages()
	if e.rt.Len() != pages || e.swpt.Len() != pages || len(e.et32) != pages ||
		e.wct.Len() != pages || len(e.ips8) != pages || len(e.repLA) != pages {
		return fmt.Errorf("core: table sizes RT=%d SWPT=%d ET=%d WCT=%d ips=%d repLA=%d do not all match %d pages",
			e.rt.Len(), e.swpt.Len(), len(e.et32), e.wct.Len(), len(e.ips8), len(e.repLA), pages)
	}
	for la := 0; la < pages; la++ {
		if int(e.repLA[la]) != e.pairRep(e.rt.Phys(la)) {
			return fmt.Errorf("core: repLA[%d] = %d, want pair representative %d",
				la, e.repLA[la], e.pairRep(e.rt.Phys(la)))
		}
	}
	for pa := 0; pa < pages; pa++ {
		if e.et32[pa] == 0 {
			return fmt.Errorf("core: ET[%d] is zero; the toss-up ratio would divide by zero", pa)
		}
		if v := int(e.wct.Get(pa)); e.pairRep(pa) != pa && v != 0 {
			return fmt.Errorf("core: WCT[%d] = %d but %d is not a pair representative", pa, v, pa)
		} else if v >= e.cfg.TossUpInterval && e.cfg.TossUpInterval < tables.MaxInterval {
			return fmt.Errorf("core: WCT[%d] = %d reached the toss-up interval %d without being cleared",
				pa, v, e.cfg.TossUpInterval)
		}
	}
	if e.cfg.InterPairSwapInterval > 0 {
		for la, c := range e.ips8 {
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

// Snapshot implements wl.Snapshotter in the wide engine's exact wire format:
// the packed ips counters go out as the same length-prefixed uint32 stream
// Engine writes, so a packed checkpoint restores into a wide engine and
// vice versa — and the differential tests can compare snapshots byte for
// byte.
func (e *PackedEngine) Snapshot(w io.Writer) error {
	if err := e.rt.Snapshot(w); err != nil {
		return err
	}
	if err := e.wct.Snapshot(w); err != nil {
		return err
	}
	sw := snap.NewWriter(w)
	sw.U32(uint32(len(e.ips8)))
	for _, c := range e.ips8 {
		sw.U32(uint32(c))
	}
	if err := sw.Err(); err != nil {
		return err
	}
	src, ok := e.src.(wl.Snapshotter)
	if !ok {
		return fmt.Errorf("core: alpha source %T does not support checkpointing", e.src)
	}
	if err := src.Snapshot(w); err != nil {
		return err
	}
	return e.stats.Snapshot(w)
}

// Restore implements wl.Snapshotter.
func (e *PackedEngine) Restore(r io.Reader) error {
	if err := e.rt.Restore(r); err != nil {
		return err
	}
	if err := e.wct.Restore(r); err != nil {
		return err
	}
	sr := snap.NewReader(r)
	if got := sr.U32(); sr.Err() == nil && int(got) != len(e.ips8) {
		return fmt.Errorf("core: checkpoint ips length %d does not match %d pages", got, len(e.ips8))
	}
	for la := range e.ips8 {
		v := sr.U32()
		if v > MaxPackedIPSInterval {
			return fmt.Errorf("core: checkpoint ipsCount[%d] = %d exceeds packed width", la, v)
		}
		e.ips8[la] = uint8(v)
	}
	if err := sr.Err(); err != nil {
		return err
	}
	src, ok := e.src.(wl.Snapshotter)
	if !ok {
		return fmt.Errorf("core: alpha source %T does not support checkpointing", e.src)
	}
	if err := src.Restore(r); err != nil {
		return err
	}
	if err := e.stats.Restore(r); err != nil {
		return err
	}
	for la := range e.repLA {
		e.repLA[la] = uint32(e.pairRep(e.rt.Phys(la)))
	}
	return nil
}

// NewAuto builds the TWL engine best suited to the device: the packed
// engine when the device itself is packed and the configuration fits the
// packed widths, the wide reference engine otherwise. Both produce
// bit-identical results, so callers (the scheme registry, the sharded
// runner) select storage purely by constructing the appropriate device.
func NewAuto(dev *pcm.Device, cfg Config) (wl.Scheme, error) {
	if dev.Packed() && cfg.InterPairSwapInterval <= MaxPackedIPSInterval {
		eng, err := NewPacked(dev, cfg)
		if err == nil {
			return eng, nil
		}
		// A width violation (noisy ET overflowing uint32) falls back to the
		// wide engine; genuine configuration errors surface from it anyway.
	}
	return New(dev, cfg)
}
