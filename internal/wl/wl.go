// Package wl defines the wear-leveling scheme interface shared by the
// paper's contribution (internal/core) and every baseline (nowl, startgap,
// secref, wrl, bwl), together with the cost/statistics plumbing the
// simulator uses for lifetime (Figures 6–8) and performance (Figure 9)
// experiments.
//
// A Scheme sits between the memory controller's request queues and the PCM
// array: it translates logical page addresses to physical pages, applies
// wear to the device, and occasionally performs internal swaps. Swaps block
// the memory — the property the paper's attacker exploits to detect swap
// phases by timing (Section 3.1, footnote 1) — so every operation reports
// its full latency.
package wl

import (
	"fmt"
	"io"
	"sort"

	"twl/internal/pcm"
	"twl/internal/snap"
)

// Cost describes what one logical request cost the machine.
type Cost struct {
	// DeviceWrites is the number of physical page writes performed
	// (1 for a plain write; more when the scheme swapped pages).
	DeviceWrites int
	// DeviceReads is the number of physical page reads performed
	// (migration reads during swaps, plus the demand read for Read).
	DeviceReads int
	// ExtraCycles is controller overhead outside the PCM array: table
	// lookups, RNG evaluation, Bloom-filter probes, sorting stalls.
	ExtraCycles int
	// Blocked reports that the request was delayed behind an internal
	// maintenance operation (swap phase). Attackers detect this.
	Blocked bool
}

// Add accumulates o into c.
func (c *Cost) Add(o Cost) {
	c.DeviceWrites += o.DeviceWrites
	c.DeviceReads += o.DeviceReads
	c.ExtraCycles += o.ExtraCycles
	c.Blocked = c.Blocked || o.Blocked
}

// Cycles converts the cost to CPU cycles under timing t.
func (c Cost) Cycles(t pcm.Timing) int64 {
	return int64(c.DeviceWrites)*int64(t.WriteCycles()) +
		int64(c.DeviceReads)*int64(t.ReadCycles) +
		int64(c.ExtraCycles)
}

// Stats aggregates scheme activity over a run.
type Stats struct {
	DemandWrites uint64 // logical writes served
	DemandReads  uint64 // logical reads served
	SwapWrites   uint64 // device writes caused by internal swaps/migrations
	Swaps        uint64 // internal swap operations
	TossUps      uint64 // toss-up evaluations (TWL only)
}

// Snapshot serializes the counters for a checkpoint.
func (s *Stats) Snapshot(w io.Writer) error {
	sw := snap.NewWriter(w)
	sw.U64(s.DemandWrites)
	sw.U64(s.DemandReads)
	sw.U64(s.SwapWrites)
	sw.U64(s.Swaps)
	sw.U64(s.TossUps)
	return sw.Err()
}

// Restore loads counters written by Snapshot.
func (s *Stats) Restore(r io.Reader) error {
	sr := snap.NewReader(r)
	s.DemandWrites = sr.U64()
	s.DemandReads = sr.U64()
	s.SwapWrites = sr.U64()
	s.Swaps = sr.U64()
	s.TossUps = sr.U64()
	return sr.Err()
}

// SwapWriteRatio returns swap writes per demand write — the Figure 7a
// metric.
func (s Stats) SwapWriteRatio() float64 {
	if s.DemandWrites == 0 {
		return 0
	}
	return float64(s.SwapWrites) / float64(s.DemandWrites)
}

// Scheme is a wear-leveling scheme bound to a PCM device. Besides the
// request methods, every scheme checks its own invariants (Checker),
// checkpoints bit-identically (Snapshotter) and fast-forwards same-address
// write runs (RunWriter); the sweep fast path (SweepWriter) is the one
// optional capability.
type Scheme interface {
	// Name identifies the scheme in reports ("NOWL", "SR", "BWL", "TWL_swp"…).
	Name() string
	// Write serves a logical page write carrying the payload tag.
	Write(la int, tag uint64) Cost
	// Read serves a logical page read, returning the payload last written
	// to la.
	Read(la int) (uint64, Cost)
	// ReadN serves n >= 0 demand reads whose addresses and payloads the
	// caller does not need. A read's effect on the machine is
	// address-free: every Read bumps DemandReads, performs exactly one
	// device read and returns the same never-blocked Cost, whatever la it
	// serves. ReadN must leave Stats, the device read counter and the
	// snapshot bytes exactly as n Read calls at any in-range addresses
	// would, and returns their common Cost; n == 0 changes nothing. A
	// decorator that intercepts Read must intercept ReadN too, or bulk
	// reads bypass it (DESIGN.md "Request paths and address-free reads").
	ReadN(n int) Cost
	// Stats returns the accumulated activity counters.
	Stats() Stats
	// Device returns the underlying PCM array.
	Device() *pcm.Device

	Checker
	Snapshotter
	RunWriter
}

// Checker verifies a scheme's internal invariants (mapping bijectivity,
// pairing involution). The simulator's paranoid mode and the integration
// tests call it.
type Checker interface {
	CheckInvariants() error
}

// Snapshotter is the checkpoint interface. A scheme, a request source or an
// attack stream serializes its mutable state into a lifetime checkpoint and
// restores it bit-identically.
//
// Contract:
//
//   - Restore is called on a freshly constructed value built with the same
//     configuration and seed as the snapshotted one; it overwrites every
//     piece of mutable state. Configuration and state derived purely from
//     construction inputs (geometry, endurance-derived orderings, scratch
//     buffers) need not be persisted, but anything that evolves with the
//     workload — remap tables, counters, RNG stream positions, phase
//     machines — must be, so that the write stream after Restore is
//     indistinguishable from one that never stopped.
//   - Snapshot must not mutate state, and Restore must fail (returning an
//     error) rather than partially apply when the stream does not match the
//     receiver's geometry.
//   - The scheme's Device() state is checkpointed separately by the
//     simulator; schemes persist only their own structures.
type Snapshotter interface {
	Snapshot(w io.Writer) error
	Restore(r io.Reader) error
}

// MemoryReporter is implemented by schemes that can itemize the heap bytes
// of their per-page metadata tables. The bench tools combine it with
// pcm.Device.Footprint to report bytes-per-page for a whole stack.
type MemoryReporter interface {
	// TableBytes returns the total bytes of the scheme's per-page state
	// (remap tables, counters, endurance copies); transient scratch space
	// is included at its current size.
	TableBytes() int64
}

// AsMemoryReporter finds the first MemoryReporter in a decorator stack,
// probing each layer's body while walking Unwrap links from the outermost
// layer inward (the same protocol as AsCapacityReporter — memory reporting
// is an extension interface that Wrap composites hide).
func AsMemoryReporter(s Scheme) (MemoryReporter, bool) {
	for s != nil {
		if r, ok := s.(MemoryReporter); ok {
			return r, true
		}
		u, ok := s.(Unwrapper)
		if !ok {
			return nil, false
		}
		if r, ok := u.Body().(MemoryReporter); ok {
			return r, true
		}
		s = u.Unwrap()
	}
	return nil, false
}

// RunWriter is the fast-forward interface for same-address write runs.
// Schemes implement it by computing the distance to their next internal
// event (gap move, refresh step, epoch rotation, toss-up, phase
// transition, …) in O(1) and bulk-applying the event-free prefix of the
// run.
//
// Contract (see DESIGN.md "Run-length fast-forward"):
//
//   - WriteRun(la, tag, n) may absorb 0 <= absorbed <= n writes. The device
//     state, scheme state, Stats, and cost totals after the call must be
//     bit-identical to `absorbed` sequential Write calls, where the i-th
//     call (0-indexed) is Write(la, tag+i).
//   - Every absorbed write must be event-free and share the identical
//     per-write Cost (the returned cost; Blocked must be false). The caller
//     accounts cost × absorbed.
//   - absorbed == 0 means the next write triggers an internal event (or the
//     scheme cannot prove it won't); the caller serves it with a normal
//     Write call and retries the remainder.
//   - Mid-run failure: if one of the absorbed writes wears a page to its
//     endurance, the run stops at (and including) that write — absorbed
//     counts it, nothing after it is applied (pcm.Device.WriteN clamps).
//   - RNG alignment: absorbed writes must consume zero RNG draws. A
//     probabilistic scheme can absorb writes only when its randomness is
//     event-sparse — every draw happens at an interval-triggered event
//     (TWL's toss-up and inter-pair swap, and likewise PS-WL/WoLFRaM-style
//     randomized remapping) — so that the RNG stream stays bit-aligned with
//     the per-write path: the fast path stops strictly before each
//     RNG-bearing event and the caller fires it through a normal Write. A
//     scheme that draws randomness on every write has no event-free prefix;
//     its WriteRun always returns absorbed == 0.
type RunWriter interface {
	WriteRun(la int, tag uint64, n int) (Cost, int)
}

// SweepWriter is the optional fast-forward interface for consecutive-address
// write sweeps, the one capability a Scheme may lack (BWL has none): the
// i-th write (0-indexed) of the sweep is Write(la+i, tag+i) and la+n-1 must
// be a valid logical address. The contract is otherwise identical to
// RunWriter — bit-identical state versus the sequential calls, uniform
// unblocked per-write cost for the absorbed prefix, absorbed == 0 meaning
// "serve one write normally and retry", and mid-sweep failure stopping the
// sweep at the write that wore a page out.
//
// Scan-style sources emit sweeps; schemes whose address mapping advances
// incrementally under la+1 (identity, affine, XOR-in-region) can absorb
// them without per-write table walks.
type SweepWriter interface {
	WriteSweep(la int, tag uint64, n int) (Cost, int)
}

// Latency constants for controller-side structures, from Table 1
// ("TWL control logic latency / table latency: 5/10-cycle, RNG latency:
// 4-cycle"). The baselines reuse the table latency for their own metadata
// structures so the Figure 9 comparison is apples-to-apples.
const (
	TableCycles   = 10 // one metadata-table access
	ControlCycles = 5  // scheme control logic
	RNGCycles     = 4  // random-number generation
)

// Factory builds a scheme over a device; registries in the cmd tools use
// this to select schemes by name.
type Factory func(dev *pcm.Device, seed uint64) (Scheme, error)

// SortByEndurance returns page indices sorted by ascending endurance
// (weakest first). Shared by WRL's swap phase and TWL's strong-weak pairing.
func SortByEndurance[E uint32 | uint64](endurance []E) []int {
	idx := make([]int, len(endurance))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		return endurance[idx[a]] < endurance[idx[b]]
	})
	return idx
}

// LogicalPages returns the number of demand-addressable pages s serves.
// Schemes that keep pages out of the address space (StartGap's gap page,
// RBSG's gap page per region) report it through a LogicalPages method; the
// others serve every visible page of the device. Size request sources with
// it: a source over Device().Pages() sends such a scheme addresses it does
// not have.
func LogicalPages(s Scheme) int {
	if z, ok := s.(interface{ LogicalPages() int }); ok {
		return z.LogicalPages()
	}
	return s.Device().Pages()
}

// ValidateLA bounds-checks a logical address against the device.
func ValidateLA(dev *pcm.Device, la int) error {
	if la < 0 || la >= dev.Pages() {
		return fmt.Errorf("wl: logical address %d out of range [0,%d)", la, dev.Pages())
	}
	return nil
}
