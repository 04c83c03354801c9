package sim

import (
	"fmt"
	"math"

	"twl/internal/attack"
	"twl/internal/obs"
	"twl/internal/pcm"
	"twl/internal/wl"
)

// lifetimeState carries the request-loop state of one RunLifetime call, so
// the per-request and fast-forward loops share accounting code (and the
// loops themselves stay small enough to read).
type lifetimeState struct {
	s          wl.Scheme
	dev        *pcm.Device
	timing     pcm.Timing
	capRep     wl.CapacityReporter
	checkEvery uint64
	metrics    *lifetimeMetrics
	tracer     *obs.Tracer
	traceEvery uint64
	limit      uint64

	fb      attack.Feedback
	demand  uint64
	blocked uint64
	cycles  int64
	res     LifetimeResult

	// Pending bulk-run state. bulkLoop's source has already committed to a
	// whole run when next() returns, so the unserved remainder is loop
	// state, not source state — it lives here (rather than in locals) so a
	// mid-run checkpoint can persist it and a resume can finish the run
	// without consulting the source again.
	runActive bool // a write run is partially served
	runAddr   int  // first address of the run
	runN      int  // requests of the run not yet served
	runOff    int  // requests of the run already served (sweep offset)

	// observer relays served-request feedback to a feedback-driven source
	// (see FeedbackObserver); nil for feedback-independent sources. Derived
	// from src at bulkLoop entry, so it needs no checkpoint state of its own.
	observer FeedbackObserver

	// Fast-path chunking diagnostics, registered by bulkLoop only when the
	// scheme actually has a bulk writer and a metrics registry is attached.
	// They describe the simulator's own fast path — the per-write path never
	// creates them — so the differential bit-identity comparison excludes
	// the twl_ff_* series (see TestFastForwardDifferential).
	reg      *obs.Registry
	ffRunLen *obs.Histogram
	ffEvents *obs.Counter

	// Checkpointing (see checkpoint.go). src is retained so writeCheckpoint
	// can serialize the source's stream position.
	src       Source
	ckptPath  string
	ckptEvery uint64
	ckptTotal *obs.Counter
	ckptBytes *obs.Gauge
	ckptSecs  *obs.Histogram

	// Preemption (see LifetimeConfig.Stop). nextStop is the demand count at
	// which stop is next polled; it advances by stopEvery whether or not the
	// poll fires, so bulk chunks that overshoot a poll point don't pile up
	// extra polls.
	stop      func() bool
	stopEvery uint64
	nextStop  uint64
}

// perRequestLoop is the baseline path: one Source.Next, one Write/Read per
// iteration. The no-metrics/no-trace/no-check case runs a bare loop
// with those branches hoisted out entirely.
func (l *lifetimeState) perRequestLoop(src Source) error {
	if l.metrics == nil && l.traceEvery == 0 && l.checkEvery == 0 && l.ckptEvery == 0 && l.stop == nil {
		return l.perRequestBare(src)
	}
	for l.demand < l.limit {
		addr, write := src.Next(l.fb)
		if !write {
			l.readOne(addr)
			continue
		}
		if err := l.writeOne(addr); err != nil {
			return err
		}
		// Reads cannot wear a page out, so failure is only checked after
		// writes.
		if l.failed() {
			return nil
		}
		if err := l.ckptAt(); err != nil {
			return err
		}
	}
	return nil
}

// perRequestBare is perRequestLoop with no instrumentation in the loop.
func (l *lifetimeState) perRequestBare(src Source) error {
	s, timing := l.s, l.timing
	for l.demand < l.limit {
		addr, write := src.Next(l.fb)
		var cost wl.Cost
		if write {
			cost = s.Write(addr, l.demand)
			l.demand++
		} else {
			_, cost = s.Read(addr)
		}
		c := cost.Cycles(timing)
		l.cycles += c
		if cost.Blocked {
			l.blocked++
		}
		l.fb = attack.Feedback{Blocked: cost.Blocked, Cycles: c}
		if write && l.failed() {
			return nil
		}
	}
	return nil
}

// bulkLoop is the fast-forward path: the source emits write runs (same
// address) or sweeps (consecutive addresses), and the scheme absorbs the
// event-free prefix of each run in bulk. Event writes (absorbed == 0), and
// sweeps over a scheme without a sweep fast path, are served through the
// identical per-request accounting as perRequestLoop, so results are
// bit-identical either way.
//
//twl:hotpath
func (l *lifetimeState) bulkLoop(next func(attack.Feedback) (int, bool, int), sweep bool) error {
	var sweepWriter wl.SweepWriter
	if sweep {
		sweepWriter, _ = l.s.(wl.SweepWriter)
	}
	hasWriter := !sweep || sweepWriter != nil
	if hasWriter && l.reg != nil {
		l.initFFMetrics()
	}
	l.observer, _ = l.src.(FeedbackObserver)

	for l.demand < l.limit {
		if !l.runActive {
			addr, write, n := next(l.fb)
			if n <= 0 {
				continue
			}
			if !write {
				return errReadRun
			}
			l.runActive, l.runAddr, l.runN, l.runOff = true, addr, n, 0
		}
		for l.runN > 0 && l.demand < l.limit {
			if hasWriter {
				chunk := l.boundedChunk(l.runN)
				var cost wl.Cost
				var absorbed int
				if sweep {
					cost, absorbed = sweepWriter.WriteSweep(l.runAddr+l.runOff, l.demand, chunk)
				} else {
					cost, absorbed = l.s.WriteRun(l.runAddr, l.demand, chunk)
				}
				if absorbed > 0 {
					l.accountBulk(cost, absorbed)
					if l.observer != nil {
						// The absorbed writes share one feedback; relay it
						// before the checkpoint cadence can snapshot the
						// source (see FeedbackObserver).
						l.observer.Observe(l.fb, absorbed)
					}
					l.runN -= absorbed
					l.runOff += absorbed
					// Same order as the per-request path: the invariant
					// check (only ever at a batch end, by boundedChunk)
					// runs before the failure check, then the checkpoint
					// cadence.
					if err := l.checkAt(); err != nil {
						return err
					}
					if l.failed() {
						return nil
					}
					if err := l.ckptAt(); err != nil {
						return err
					}
					continue
				}
			}
			// Event write, or a sweep the scheme has no fast path for:
			// serve one request exactly as the per-request loop would.
			if l.ffEvents != nil {
				l.ffEvents.Inc()
			}
			a := l.runAddr
			if sweep {
				a = l.runAddr + l.runOff
			}
			if err := l.writeOne(a); err != nil {
				return err
			}
			if l.observer != nil {
				l.observer.Observe(l.fb, 1)
			}
			l.runN--
			l.runOff++
			if l.failed() {
				return nil
			}
			if err := l.ckptAt(); err != nil {
				return err
			}
		}
		if l.runN == 0 {
			l.runActive = false
		}
	}
	return nil
}

// writeLoop serves a WriteSource one burst at a time: it asks for at most
// boundedChunk writes, absorbs them through the scheme's WriteRun and
// serves the event writes WriteRun declines through writeOne, as bulkLoop
// does. Reads commute with writes (the ReadN contract: they only bump
// counters at a fixed, never-blocked cost), so the reads in front of each
// applied chunk are charged with one ReadN just before its accounting; the
// feedback, trace progress events and invariant checks then see the state
// the per-request loop leaves. Reads behind a write that wore a page out
// are never charged, because the per-request loop stops at that write.
// boundedChunk ends every burst at a cadence boundary and the source stops
// right after its last write, so at every checkpoint and Stop poll the
// loop and source state equal the per-request loop's.
//
//twl:hotpath
func (l *lifetimeState) writeLoop(src WriteSource) error {
	for l.demand < l.limit {
		addr, reads := src.NextWrites(l.boundedChunk(math.MaxInt))
		charged := 0
		for done := 0; done < len(reads); {
			cost, absorbed := l.s.WriteRun(addr, l.demand, len(reads)-done)
			// This step accounts the absorbed chunk, or the one event
			// write WriteRun declined; the reads in front of it go first.
			n := max(absorbed, 1)
			done += n
			if r := reads[done-1] - charged; r > 0 {
				l.readN(r)
			}
			charged = reads[done-1]
			if absorbed == 0 {
				// Serve the event write exactly as the per-request loop
				// would.
				if err := l.writeOne(addr); err != nil {
					return err
				}
			} else {
				l.accountBulk(cost, absorbed)
				if err := l.checkAt(); err != nil {
					return err
				}
			}
			if l.failed() {
				return nil
			}
		}
		if err := l.ckptAt(); err != nil {
			return err
		}
	}
	return nil
}

// initFFMetrics registers the fast-path diagnostic series. Called from
// bulkLoop when the scheme has a bulk writer, and from checkpoint restore
// when the interrupted run had them live — registry lookups are idempotent,
// so both call sites resolve to the same handles in the same registration
// order as an uninterrupted run.
func (l *lifetimeState) initFFMetrics() {
	l.reg.Help("twl_ff_run_length", "demand writes absorbed per fast-path bulk chunk, by scheme")
	l.reg.Help("twl_ff_events_total", "event writes served per-request inside the fast-forward loop, by scheme")
	label := obs.L("scheme", l.s.Name())
	l.ffRunLen = l.reg.Histogram("twl_ff_run_length", obs.ExponentialBuckets(1, 4, 11), label)
	l.ffEvents = l.reg.Counter("twl_ff_events_total", label)
}

// boundedChunk clamps a bulk request so it cannot cross the demand cap, a
// trace progress boundary, an invariant-check boundary, or a checkpoint
// boundary — the fast path then observes those cadences at exactly the same
// demand counts as the per-request path.
func (l *lifetimeState) boundedChunk(n int) int {
	chunk := uint64(n)
	if rem := l.limit - l.demand; rem < chunk {
		chunk = rem
	}
	if l.traceEvery > 0 {
		if rem := l.traceEvery - l.demand%l.traceEvery; rem < chunk {
			chunk = rem
		}
	}
	if l.checkEvery > 0 {
		if rem := l.checkEvery - l.demand%l.checkEvery; rem < chunk {
			chunk = rem
		}
	}
	if l.ckptEvery > 0 {
		if rem := l.ckptEvery - l.demand%l.ckptEvery; rem < chunk {
			chunk = rem
		}
	}
	return int(chunk)
}

// accountBulk applies the accounting for `absorbed` uniform-cost unblocked
// writes in O(1): cycle totals, batched metrics (Counter.Add and
// Histogram.ObserveN land exactly where `absorbed` repeated updates would),
// feedback, and the trace progress cadence (boundedChunk guarantees a
// boundary can only fall at the end of the batch).
func (l *lifetimeState) accountBulk(cost wl.Cost, absorbed int) {
	c := cost.Cycles(l.timing)
	l.cycles += c * int64(absorbed)
	l.demand += uint64(absorbed)
	l.fb = attack.Feedback{Blocked: false, Cycles: c}
	if l.metrics != nil {
		l.metrics.writes.Add(uint64(absorbed))
		l.metrics.latency.ObserveN(float64(c), uint64(absorbed))
	}
	if l.ffRunLen != nil {
		l.ffRunLen.Observe(float64(absorbed))
	}
	if l.traceEvery > 0 && l.demand%l.traceEvery == 0 {
		l.emitProgress()
	}
}

// writeOne serves one demand write with full per-request accounting.
func (l *lifetimeState) writeOne(addr int) error {
	cost := l.s.Write(addr, l.demand)
	l.demand++
	c := cost.Cycles(l.timing)
	l.cycles += c
	if cost.Blocked {
		l.blocked++
	}
	l.fb = attack.Feedback{Blocked: cost.Blocked, Cycles: c}
	if l.metrics != nil {
		l.metrics.writes.Inc()
		if cost.Blocked {
			l.metrics.blocked.Inc()
		}
		l.metrics.latency.Observe(float64(c))
	}
	if l.traceEvery > 0 && l.demand%l.traceEvery == 0 {
		l.emitProgress()
	}
	return l.checkAt()
}

// readOne serves one demand read with full per-request accounting. Reads
// don't advance demand, can't fail the device, and don't hit the check or
// trace cadences.
func (l *lifetimeState) readOne(addr int) {
	_, cost := l.s.Read(addr)
	c := cost.Cycles(l.timing)
	l.cycles += c
	if cost.Blocked {
		l.blocked++
	}
	l.fb = attack.Feedback{Blocked: cost.Blocked, Cycles: c}
	if l.metrics != nil {
		l.metrics.reads.Inc()
		if cost.Blocked {
			l.metrics.blocked.Inc()
		}
		l.metrics.latency.Observe(float64(c))
	}
}

// readN serves n > 0 demand reads with one ReadN call. The reads share one
// never-blocked cost (the wl.Scheme.ReadN contract), so cycles, metrics and
// feedback land exactly where n readOne calls would leave them.
func (l *lifetimeState) readN(n int) {
	c := l.s.ReadN(n).Cycles(l.timing)
	l.cycles += c * int64(n)
	l.fb = attack.Feedback{Blocked: false, Cycles: c}
	if l.metrics != nil {
		l.metrics.reads.Add(uint64(n))
		l.metrics.latency.ObserveN(float64(c), uint64(n))
	}
}

// checkAt runs the scheme's invariant checker when demand sits on the
// configured cadence.
func (l *lifetimeState) checkAt() error {
	if l.checkEvery > 0 && l.demand%l.checkEvery == 0 {
		if err := l.s.CheckInvariants(); err != nil {
			return fmt.Errorf("sim: invariant violation after %d writes: %w", l.demand, err)
		}
	}
	return nil
}

// failed records the first failed page, stopping the run.
func (l *lifetimeState) failed() bool {
	if page, isFailed := l.dev.Failed(); isFailed {
		l.res.FailedPage = page
		return true
	}
	return false
}
