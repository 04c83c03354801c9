// Package retire implements a WoLFRaM-style fault-tolerance decorator
// (PAPERS.md: "WoLFRaM: Enhancing Wear-Leveling and Fault Tolerance in
// Resistive Memories using Programmable Address Decoders"): when a page
// under any wear-leveling scheme reaches its endurance, the decorator
// remaps it to a page from the device's spare pool and acknowledges the
// failure, so the lifetime run continues instead of ending at the first
// dead page. The run ends under a new lifetime definition — when the spare
// pool is exhausted, or when a configured fraction of the visible capacity
// has been retired (the device is declared dead at N% capacity loss).
//
// The decorator is scheme-agnostic: it composes with any registered scheme
// through wl.Wrap, which keeps the scheme's sweep fast path — the bulk fast
// paths keep running (failures surface through the same
// clamp-at-failing-write contract), checkpoints include the retirement
// state, and paranoid mode checks both the decorator's bookkeeping and the
// scheme's own invariants. Retirement happens below the scheme's address
// map: the scheme keeps writing the physical page it chose, and the device
// resolves retired pages to their spares, exactly like a programmable
// address decoder under a wear-leveler.
package retire

import (
	"fmt"
	"io"

	"twl/internal/pcm"
	"twl/internal/snap"
	"twl/internal/wl"
)

// Config configures the decorator. The spare pool itself is device
// geometry (pcm.Geometry.SparePages) — the decorator uses whatever spares
// the device was built with.
type Config struct {
	// CapacityThreshold ends the run once more than this fraction of the
	// visible pages would be retired, modeling a device that is declared
	// dead at N% capacity loss even if spares remain. Zero means no
	// threshold: the run ends only when the spare pool is exhausted.
	// Must lie in [0, 1).
	CapacityThreshold float64
}

// New wraps inner with the retirement decorator. The scheme's device must
// have been built with a spare region (pcm.Geometry.SparePages > 0).
func New(inner wl.Scheme, cfg Config) (wl.Scheme, error) {
	dev := inner.Device()
	if dev.SparePages() == 0 {
		return nil, fmt.Errorf("retire: device has no spare pages (set Geometry.SparePages): %w", wl.ErrBadConfig)
	}
	if cfg.CapacityThreshold < 0 || cfg.CapacityThreshold >= 1 {
		return nil, fmt.Errorf("retire: CapacityThreshold %v outside [0,1): %w", cfg.CapacityThreshold, wl.ErrBadConfig)
	}
	limit := dev.Pages()
	if cfg.CapacityThreshold > 0 {
		limit = int(cfg.CapacityThreshold * float64(dev.Pages()))
	}
	d := &decorator{
		Scheme: inner,
		dev:    dev,
		limit:  limit,
		origin: make([]int, dev.SparePages()),
	}
	for i := range d.origin {
		d.origin[i] = -1
	}
	return wl.Wrap(d, inner), nil
}

// decorator intercepts the write paths, drains the device's failure log
// after each one, and retires failed pages into the spare pool. It stays
// unexported: it is not a registerable scheme, only a layer New puts over
// one.
type decorator struct {
	wl.Scheme              // snap: wrapped scheme; checkpointed by its own Snapshot call below
	dev        *pcm.Device // snap: construction input (the scheme's device)
	limit      int         // snap: derived from Config at New
	handled    int         // failures drained from the device log
	retired    int         // distinct visible pages retired
	sparesUsed int
	exhausted  bool
	// origin[k] is the visible page spare k was allocated to serve (-1 =
	// unallocated). A page whose spare wore out appears under every spare
	// it ever consumed; its current one is whatever the device redirect
	// says.
	origin []int
	curve  []wl.CapacityPoint
}

func (d *decorator) Write(la int, tag uint64) wl.Cost {
	cost := d.Scheme.Write(la, tag)
	if d.dev.FailedPages() > d.handled {
		d.onFailures()
	}
	return cost
}

// WriteRun forwards the same-address fast path. A mid-run failure clamps
// the run at the failing write (RunWriter contract), so draining the log
// after the call retires the page at exactly the same demand-write count
// as the per-request path — the capacity curve is bit-identical.
//
//twl:hotpath
func (d *decorator) WriteRun(la int, tag uint64, n int) (wl.Cost, int) {
	cost, absorbed := d.Scheme.WriteRun(la, tag, n)
	if d.dev.FailedPages() > d.handled {
		d.onFailures()
	}
	return cost, absorbed
}

// WriteSweep forwards the consecutive-address fast path; failure handling
// matches WriteRun.
//
//twl:hotpath
func (d *decorator) WriteSweep(la int, tag uint64, n int) (wl.Cost, int) {
	cost, absorbed := d.Scheme.(wl.SweepWriter).WriteSweep(la, tag, n)
	if d.dev.FailedPages() > d.handled {
		d.onFailures()
	}
	return cost, absorbed
}

// onFailures drains unhandled failures from the device log. Each failure is
// either a visible page (retire it onto the next spare) or a worn-out spare
// (re-point its origin page to a fresh spare). A failure the pool or the
// capacity threshold cannot cover is left unacknowledged: the device keeps
// reporting it and the simulator ends the run, with Exhausted recording the
// cause.
//
// The retirement migration is a device metadata operation (pcm.Remap): it
// charges no latency to the triggering request and no wear to the spare.
// Charging it would break the fast-forward cost-uniformity contract — the
// failing write can be absorbed mid-bulk where no per-request cost exists
// to attach the migration to — and one migration write per retirement is
// noise against the millions of writes each spare then absorbs.
func (d *decorator) onFailures() {
	visible := d.dev.Pages()
	for !d.exhausted && d.handled < d.dev.FailedPages() {
		f := d.dev.FailureAt(d.handled)
		v := f
		fresh := true
		if f >= visible {
			// A spare died in service; move its origin to a fresh spare.
			v = d.origin[f-visible]
			fresh = false
		}
		newRetired := d.retired
		if fresh {
			newRetired++
		}
		if d.sparesUsed == d.dev.SparePages() || newRetired > d.limit {
			d.exhausted = true
			return
		}
		sp := visible + d.sparesUsed
		if err := d.dev.Remap(v, sp); err != nil {
			// The sequential allocation above guarantees a valid remap;
			// reaching here means decorator state diverged from the device.
			panic(fmt.Sprintf("retire: remap %d -> %d: %v", v, sp, err))
		}
		d.origin[d.sparesUsed] = v
		d.sparesUsed++
		d.retired = newRetired
		d.handled++
		d.dev.AckFailures(d.handled)
		d.curve = append(d.curve, wl.CapacityPoint{
			DemandWrites: d.Scheme.Stats().DemandWrites,
			Retired:      d.retired,
			SparesUsed:   d.sparesUsed,
		})
	}
}

// CapacityStats implements wl.CapacityReporter.
func (d *decorator) CapacityStats() wl.CapacityStats {
	curve := make([]wl.CapacityPoint, len(d.curve))
	copy(curve, d.curve)
	return wl.CapacityStats{
		SparePages:  d.dev.SparePages(),
		SparesUsed:  d.sparesUsed,
		Retired:     d.retired,
		RetireLimit: d.limit,
		Exhausted:   d.exhausted,
		Curve:       curve,
	}
}

// CheckInvariants verifies the decorator's bookkeeping against the device
// redirect state, then the wrapped scheme's own invariants.
func (d *decorator) CheckInvariants() error {
	visible := d.dev.Pages()
	if d.sparesUsed > d.dev.SparePages() {
		return fmt.Errorf("retire: %d spares used of %d", d.sparesUsed, d.dev.SparePages())
	}
	if d.retired > d.limit {
		return fmt.Errorf("retire: %d pages retired over limit %d", d.retired, d.limit)
	}
	if !d.exhausted && d.handled != d.dev.FailedPages() {
		return fmt.Errorf("retire: %d failures handled, device logged %d", d.handled, d.dev.FailedPages())
	}
	serving := 0
	for k := 0; k < d.sparesUsed; k++ {
		v := d.origin[k]
		if v < 0 || v >= visible {
			return fmt.Errorf("retire: spare %d has origin %d outside visible range", k, v)
		}
		sp, ok := d.dev.Redirect(v)
		if !ok {
			return fmt.Errorf("retire: origin %d of spare %d is not redirected", v, k)
		}
		if sp == visible+k {
			serving++
		}
	}
	for k := d.sparesUsed; k < len(d.origin); k++ {
		if d.origin[k] != -1 {
			return fmt.Errorf("retire: unallocated spare %d has origin %d", k, d.origin[k])
		}
	}
	if serving != d.retired {
		return fmt.Errorf("retire: %d spares in service, %d pages retired", serving, d.retired)
	}
	return d.Scheme.CheckInvariants()
}

// Snapshot persists the retirement state ahead of the wrapped scheme's.
func (d *decorator) Snapshot(w io.Writer) error {
	sw := snap.NewWriter(w)
	sw.Tag("retire")
	sw.Int(d.handled)
	sw.Int(d.retired)
	sw.Int(d.sparesUsed)
	sw.Bool(d.exhausted)
	sw.Ints(d.origin)
	sw.Int(len(d.curve))
	for _, p := range d.curve {
		sw.U64(p.DemandWrites)
		sw.Int(p.Retired)
		sw.Int(p.SparesUsed)
	}
	if err := sw.Err(); err != nil {
		return err
	}
	return d.Scheme.Snapshot(w)
}

// Restore loads state written by Snapshot, then restores the wrapped
// scheme.
func (d *decorator) Restore(r io.Reader) error {
	sr := snap.NewReader(r)
	sr.Expect("retire")
	d.handled = sr.Int()
	d.retired = sr.Int()
	d.sparesUsed = sr.Int()
	d.exhausted = sr.Bool()
	sr.IntsInto(d.origin)
	n := sr.Int()
	if err := sr.Err(); err != nil {
		return err
	}
	if n < 0 || n > d.sparesUsed {
		return fmt.Errorf("retire: checkpoint has %d curve points for %d spares used", n, d.sparesUsed)
	}
	d.curve = make([]wl.CapacityPoint, n)
	for i := range d.curve {
		d.curve[i] = wl.CapacityPoint{
			DemandWrites: sr.U64(),
			Retired:      sr.Int(),
			SparesUsed:   sr.Int(),
		}
	}
	if err := sr.Err(); err != nil {
		return err
	}
	return d.Scheme.Restore(r)
}
