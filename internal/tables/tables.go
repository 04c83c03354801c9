// Package tables implements the hardware metadata tables used by PV-aware
// wear-leveling schemes, matching the structures named in Figures 1 and 5 of
// the paper:
//
//   - RT   (remapping table):        logical address → physical address,
//     maintained as a bijection with an inverse for O(1) swaps.
//   - ET   (endurance table):        per-physical-page endurance, tested by
//     the manufacturer.
//   - WNT  (write number table):     per-logical-address write counts during
//     a prediction phase (WRL).
//   - SWPT (strong-weak pair table): per-page toss-up partner (TWL).
//   - WCT  (write counter table):    per-pair counters driving the
//     interval-triggered toss-up (TWL).
//
// All tables are plain in-memory structures sized one entry per page; the
// hardware-cost model in internal/hwcost derives the bit widths the paper
// reports in Section 5.4 from these shapes. Page addresses are stored as
// uint32, which addresses up to 2^32 pages (pcm.MaxPages): at the paper's
// full geometry (8Mi pages) the RT costs 64 MiB instead of the 128 MiB an
// int-per-entry table would.
package tables

import (
	"fmt"
	"math"
)

// Remap is the remapping table (RT): a bijection between logical page
// addresses (LA) and physical page addresses (PA). It keeps the inverse
// mapping so both directions are O(1) and swaps stay cheap.
type Remap struct {
	toPhys []uint32 // LA → PA
	toLog  []uint32 // PA → LA
}

// NewRemap returns an identity mapping over n ≤ 2^32 pages.
func NewRemap(n int) *Remap {
	r := &Remap{
		toPhys: make([]uint32, n),
		toLog:  make([]uint32, n),
	}
	for i := range r.toPhys {
		r.toPhys[i] = uint32(i)
		r.toLog[i] = uint32(i)
	}
	return r
}

// Len returns the number of pages mapped.
func (r *Remap) Len() int { return len(r.toPhys) }

// Phys returns the physical page currently backing logical page la.
func (r *Remap) Phys(la int) int { return int(r.toPhys[la]) }

// Log returns the logical page currently mapped to physical page pa.
func (r *Remap) Log(pa int) int { return int(r.toLog[pa]) }

// PhysTable returns the LA → PA table itself, for bulk readers that walk
// many entries in a hot loop (one slice load instead of a method call per
// lookup). Callers must treat the slice as read-only, and must not hold it
// across a Swap.
func (r *Remap) PhysTable() []uint32 { return r.toPhys }

// SwapLogical exchanges the physical pages backing logical addresses la1 and
// la2. This is the mapping update that accompanies a data swap.
func (r *Remap) SwapLogical(la1, la2 int) {
	p1, p2 := r.toPhys[la1], r.toPhys[la2]
	r.toPhys[la1], r.toPhys[la2] = p2, p1
	r.toLog[p1], r.toLog[p2] = uint32(la2), uint32(la1)
}

// SwapPhysical exchanges the logical owners of physical addresses pa1 and
// pa2 (the same operation as SwapLogical, addressed from the physical side).
func (r *Remap) SwapPhysical(pa1, pa2 int) {
	r.SwapLogical(r.Log(pa1), r.Log(pa2))
}

// CheckBijection verifies RT ∘ RT⁻¹ = identity; it returns a descriptive
// error on the first inconsistency. Tests and the simulator's paranoid mode
// use this invariant check.
func (r *Remap) CheckBijection() error {
	for la, pa := range r.toPhys {
		if int(pa) >= len(r.toLog) {
			return fmt.Errorf("tables: LA %d maps to out-of-range PA %d", la, pa)
		}
		if int(r.toLog[pa]) != la {
			return fmt.Errorf("tables: LA %d → PA %d but PA %d → LA %d",
				la, pa, pa, r.toLog[pa])
		}
	}
	return nil
}

// WriteCounts is the write number table (WNT): per-logical-page write counts
// accumulated during a prediction phase. It tracks which pages have nonzero
// counts, so consumers that rank pages by heat (WRL's swap phase) pay for
// the pages actually written, not the whole table — under a repeat attack
// that is one page, not all of them.
type WriteCounts struct {
	counts  []uint64
	touched []int // pages with nonzero counts, in first-touch order
}

// NewWriteCounts returns a zeroed WNT over n pages.
func NewWriteCounts(n int) *WriteCounts {
	return &WriteCounts{counts: make([]uint64, n)}
}

// Record counts one write to logical page la.
func (w *WriteCounts) Record(la int) {
	if w.counts[la] == 0 {
		w.touched = append(w.touched, la)
	}
	w.counts[la]++
}

// Add counts n writes to logical page la in one step — the bulk equivalent
// of n Record calls, used by the fast-forward write paths.
func (w *WriteCounts) Add(la int, n uint64) {
	if n == 0 {
		return
	}
	if w.counts[la] == 0 {
		w.touched = append(w.touched, la)
	}
	w.counts[la] += n
}

// Count returns the accumulated count for la.
func (w *WriteCounts) Count(la int) uint64 { return w.counts[la] }

// Touched returns the pages with nonzero counts, in first-touch order. The
// slice aliases internal state — Reset invalidates it — but callers may
// reorder it in place.
func (w *WriteCounts) Touched() []int { return w.touched }

// Reset zeroes all counters (start of a new prediction phase). Cost is
// proportional to the pages touched since the last reset.
func (w *WriteCounts) Reset() {
	for _, la := range w.touched {
		w.counts[la] = 0
	}
	w.touched = w.touched[:0]
}

// Counts returns a copy of the counters.
func (w *WriteCounts) Counts() []uint64 {
	out := make([]uint64, len(w.counts))
	copy(out, w.counts)
	return out
}

// PairTable is the strong-weak pair table (SWPT): partner[p] is the toss-up
// partner of page p. A valid pairing is a symmetric involution with no fixed
// points (every page has exactly one partner, and partnership is mutual).
type PairTable struct {
	partner []uint32
}

// unpaired marks a page Bind has not reached yet.
const unpaired = math.MaxUint32

// NewPairTable returns an unpaired table over n ≤ 2^32 pages. n must be
// even to admit a perfect pairing.
func NewPairTable(n int) (*PairTable, error) {
	if n%2 != 0 {
		return nil, fmt.Errorf("tables: pair table needs an even page count, got %d", n)
	}
	p := &PairTable{partner: make([]uint32, n)}
	for i := range p.partner {
		p.partner[i] = unpaired
	}
	return p, nil
}

// Len returns the number of pages.
func (p *PairTable) Len() int { return len(p.partner) }

// Bind pairs pages a and b. Both must currently be unpaired or already be
// each other's partner.
func (p *PairTable) Bind(a, b int) error {
	if a == b {
		return fmt.Errorf("tables: cannot pair page %d with itself", a)
	}
	if q := p.partner[a]; q != unpaired && int(q) != b {
		return fmt.Errorf("tables: page %d already paired with %d", a, q)
	}
	if q := p.partner[b]; q != unpaired && int(q) != a {
		return fmt.Errorf("tables: page %d already paired with %d", b, q)
	}
	p.partner[a] = uint32(b)
	p.partner[b] = uint32(a)
	return nil
}

// Partner returns the partner of page a, which must be bound.
func (p *PairTable) Partner(a int) int { return int(p.partner[a]) }

// Rebind atomically re-pairs after an inter-pair swap: given pages x and y
// belonging to different pairs (x,px) and (y,py), it forms (x,py) and (y,px)
// — the pairing follows the physical pages, so when x and y exchange roles
// their old partners exchange too. If x and y are already partners this is a
// no-op.
func (p *PairTable) Rebind(x, y int) {
	px, py := p.partner[x], p.partner[y]
	if int(px) == y {
		return
	}
	p.partner[x] = py
	p.partner[py] = uint32(x)
	p.partner[y] = px
	p.partner[px] = uint32(y)
}

// Check verifies the involution invariant: partner[partner[i]] == i and
// partner[i] != i for all i.
func (p *PairTable) Check() error {
	for i, q := range p.partner {
		if int(q) >= len(p.partner) {
			return fmt.Errorf("tables: page %d has no partner", i)
		}
		if int(q) == i {
			return fmt.Errorf("tables: page %d paired with itself", i)
		}
		if int(p.partner[q]) != i {
			return fmt.Errorf("tables: pairing not symmetric: %d→%d but %d→%d",
				i, q, q, p.partner[q])
		}
	}
	return nil
}

// Counter is the write counter table (WCT): small per-entry counters used to
// trigger the toss-up every interval writes. The paper budgets 7 bits per
// entry, so counters wrap modulo 128 exactly as the hardware register would;
// the engine treats a wrap to zero as the 128th increment, which lets the
// full interval range [1, 128] be expressed in 7 bits.
type Counter struct {
	counts []uint8
}

// WCTBits is the per-entry width the paper reserves (Section 5.4).
const WCTBits = 7

// NewCounter returns a zeroed counter table over n entries.
func NewCounter(n int) *Counter {
	return &Counter{counts: make([]uint8, n)}
}

// Inc increments entry i modulo 2^WCTBits and returns the new value; a
// returned zero means the counter just completed its 128th increment.
func (c *Counter) Inc(i int) uint8 {
	c.counts[i] = (c.counts[i] + 1) & (1<<WCTBits - 1)
	return c.counts[i]
}

// Add increments entry i by n modulo 2^WCTBits and returns the new value —
// the bulk equivalent of n Inc calls, used by the fast-forward write paths
// to advance a counter across an event-free stretch in O(1).
func (c *Counter) Add(i, n int) uint8 {
	c.counts[i] = uint8(int(c.counts[i])+n) & (1<<WCTBits - 1)
	return c.counts[i]
}

// Len returns the number of entries.
func (c *Counter) Len() int { return len(c.counts) }

// Get returns entry i.
func (c *Counter) Get(i int) uint8 { return c.counts[i] }

// Raw returns the counter array itself, for bulk walkers that fuse the
// read-test-increment sequence into direct slice accesses (the TWL sweep
// fast path). Callers must keep every entry below 2^WCTBits.
func (c *Counter) Raw() []uint8 { return c.counts }

// Clear zeroes entry i.
func (c *Counter) Clear(i int) { c.counts[i] = 0 }

// MaxInterval is the largest toss-up interval a 7-bit WCT can express.
const MaxInterval = 128

// Bytes accounting: every table reports the heap bytes of its per-page
// state, so engines can itemize their memory footprint for the BENCH
// bytes-per-page audit. Slice headers and bookkeeping are excluded — the
// arrays dominate by orders of magnitude at any interesting geometry.

// Bytes returns the table's per-page state size in bytes.
func (r *Remap) Bytes() int64 { return int64(len(r.toPhys))*4 + int64(len(r.toLog))*4 }

// Bytes returns the table's per-page state size in bytes (the touched list
// grows and shrinks with the workload; it is counted at its current size).
func (w *WriteCounts) Bytes() int64 { return int64(len(w.counts))*8 + int64(len(w.touched))*8 }

// Bytes returns the table's per-page state size in bytes.
func (p *PairTable) Bytes() int64 { return int64(len(p.partner)) * 4 }

// Bytes returns the table's per-page state size in bytes.
func (c *Counter) Bytes() int64 { return int64(len(c.counts)) }
