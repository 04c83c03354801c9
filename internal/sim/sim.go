// Package sim is the experiment engine: it drives request sources (attacks
// or benchmark workloads) through a wear-leveling scheme until the PCM's
// first page failure (lifetime experiments, Figures 6–8) and accumulates
// per-request latencies for the performance experiments (Figure 9).
//
// Lifetime scaling. The paper simulates a 32 GB array with 10^8-write
// endurance; that is ~10^15 write events, so — like every wear-leveling
// study — the experiments here run on a scaled array (fewer pages, lower
// endurance) and report lifetime normalized to the array's total endurance:
//
//	normalized = demand writes at first failure / Σ endurance
//
// which is exactly the Figure 8 metric (a perfect, overhead-free leveler
// scores 1.0). Years are obtained as normalized × ideal-lifetime-years of
// the full-size system; see IdealYears and EXPERIMENTS.md for the
// calibration against the paper's Table 2 constants.
package sim

import (
	"errors"
	"fmt"

	"twl/internal/attack"
	"twl/internal/obs"
	"twl/internal/pcm"
	"twl/internal/trace"
	"twl/internal/wl"
)

// Source produces the request stream for a run. Implementations receive the
// attacker-visible feedback for the previous request (benign sources ignore
// it).
type Source interface {
	Next(fb attack.Feedback) (addr int, write bool)
}

// RunSource is the optional fast-forward extension of Source: the stream's
// next n requests are all writes to the same address (write is always true;
// RunLifetime fails on a run of reads). Sources implementing it must not
// vary their output based on the per-request Feedback (the simulator hands
// the fast path a per-batch feedback, not a per-request one) — unless they
// also implement FeedbackObserver, which restores per-request feedback
// delivery — and must treat all n requests as consumed even if the run ends
// early (device failure or the demand cap). RunLifetime consumes runs
// through the scheme's WriteRun and serves the event writes it declines as
// per-request Write calls, bit-identically.
type RunSource interface {
	Source
	NextRun(fb attack.Feedback) (addr int, write bool, n int)
}

// FeedbackObserver is the extension a RunSource implements when its stream
// is feedback-driven (the inconsistent attack): each NextRun commitment only
// extends as far as no feedback could change the stream's output, and the
// bulk loop relays the served requests' feedback through Observe — uniform
// per absorbed chunk, individual per event write — so the stream's
// detection state evolves exactly as under per-request Next calls. The
// feedback of a run's last request is not delivered here; it reaches the
// stream as the fb argument of the next NextRun, as in the serial protocol.
type FeedbackObserver interface {
	Observe(fb attack.Feedback, n int)
}

// SweepSource is the consecutive-address counterpart of RunSource: the next
// n requests are writes to addr, addr+1, …, addr+n-1 (no wrapping within a
// sweep). The same write-only, feedback-independence and all-consumed rules
// apply; schemes opt in via wl.SweepWriter.
type SweepSource interface {
	Source
	NextSweep(fb attack.Feedback) (addr int, write bool, n int)
}

// WriteSource is the extension a feedback-independent Source implements
// when its reads need no address and its writes come in same-address
// bursts: NextWrites advances the stream through up to max > 0 writes to
// one address and returns that address and, per write, the running count of
// reads in front of it since the call began (reads[k-1] is the read total
// in front of the first k writes). The slice may be the source's own
// buffer, valid until the next call. RunLifetime absorbs the writes through
// wl.Scheme.WriteRun and charges the reads in front of the applied writes
// with one ReadN call per chunk, so the stream never resolves a read's
// page. NextWrites must leave the stream exactly where the per-request Next
// calls serving the same requests would, so a checkpoint taken on either
// loop resumes on the other.
type WriteSource interface {
	Source
	NextWrites(max int) (addr int, reads []int)
}

// attackSource adapts an attack.Stream (write-only) to Source.
type attackSource struct{ s attack.Stream }

func (a attackSource) Next(fb attack.Feedback) (int, bool) { return a.s.Next(fb), true }

// runAttackSource lifts an attack.RunStream into a RunSource (all writes).
type runAttackSource struct {
	attackSource
	r attack.RunStream
}

func (a runAttackSource) NextRun(fb attack.Feedback) (int, bool, int) {
	addr, n := a.r.NextRun(fb)
	return addr, true, n
}

// sweepAttackSource lifts an attack.SweepStream into a SweepSource.
type sweepAttackSource struct {
	attackSource
	r attack.SweepStream
}

func (a sweepAttackSource) NextSweep(fb attack.Feedback) (int, bool, int) {
	addr, n := a.r.NextSweep(fb)
	return addr, true, n
}

// feedbackRunSource lifts an attack.FeedbackRunStream into a RunSource that
// also relays served-request feedback (FeedbackObserver).
type feedbackRunSource struct {
	attackSource
	r attack.FeedbackRunStream
}

func (a feedbackRunSource) NextRun(fb attack.Feedback) (int, bool, int) {
	addr, n := a.r.NextRun(fb)
	return addr, true, n
}

func (a feedbackRunSource) Observe(fb attack.Feedback, n int) { a.r.Observe(fb, n) }

// FromAttack wraps an attack stream as a request source, preserving the
// stream's run or sweep capability for the fast-forward path. The
// FeedbackRunStream case must precede RunStream: its method set contains
// RunStream's, but consuming it without the Observe relay would starve the
// stream of the feedback it reacts to.
func FromAttack(s attack.Stream) Source {
	base := attackSource{s}
	switch r := s.(type) {
	case attack.FeedbackRunStream:
		return feedbackRunSource{base, r}
	case attack.RunStream:
		return runAttackSource{base, r}
	case attack.SweepStream:
		return sweepAttackSource{base, r}
	}
	return base
}

// workloadSource adapts a synthetic benchmark generator to Source.
type workloadSource struct{ g *trace.Synthetic }

func (w workloadSource) Next(attack.Feedback) (int, bool) { return w.g.Next() }

func (w workloadSource) NextWrites(max int) (int, []int) { return w.g.NextWrites(max) }

// FromWorkload wraps a benchmark generator as a request source. The source
// is a WriteSource: lifetime runs serve each write burst through the
// scheme's WriteRun and skip resolving read addresses.
func FromWorkload(g *trace.Synthetic) Source { return workloadSource{g} }

// LifetimeConfig controls a lifetime run.
type LifetimeConfig struct {
	// MaxDemandWrites caps the run; 0 means 2 × total endurance (beyond
	// which the scheme is performing better than a perfect leveler could,
	// i.e. something is wrong).
	MaxDemandWrites uint64
	// CheckEvery runs the scheme's invariant checker every N demand writes
	// (0 disables). Paranoid mode for integration tests.
	CheckEvery uint64
	// Metrics, when non-nil, receives the run's counters (requests by op,
	// blocked requests, swaps) and the per-request latency histogram.
	// Counters accumulate, so sharing one registry across runs sums them.
	Metrics *obs.Registry
	// Trace, when non-nil, receives structured progress events: a start
	// event, one progress event every Trace.Every() demand writes (with a
	// wear-histogram snapshot), and an end event with the run summary.
	Trace *obs.Tracer
	// DisableFastForward forces the per-request loop even when the source
	// and scheme support run-length fast-forwarding or the source serves
	// write bursts (WriteSource). The fast paths are bit-identical by contract
	// (the differential tests pin them), so this exists for those tests and
	// for benchmarking the paths against each other.
	DisableFastForward bool
	// Checkpoint, when non-nil, periodically serializes the whole run state
	// to a file and/or resumes from one; see CheckpointConfig. The source
	// must implement wl.Snapshotter (every scheme does) or RunLifetime fails
	// before serving any request.
	Checkpoint *CheckpointConfig
	// Stop, when non-nil, is polled at the checkpoint cadence (or
	// DefaultCheckpointEvery when no checkpoint is configured); when it
	// returns true the run winds down with an error wrapping ErrRunStopped.
	// With checkpointing configured, a final checkpoint is written at the
	// stop point first, so a preempted run resumes without losing work.
	// Stop may be called from the simulation goroutine at any time and must
	// be safe for concurrent use (an atomic flag, a context check).
	Stop func() bool
}

// errReadRun is returned when a RunSource or SweepSource reports a run of
// reads: runs and sweeps are writes.
var errReadRun = errors.New("sim: bulk source returned a run of reads")

// ErrRunStopped is returned (wrapped, with the demand count) when a run
// winds down because LifetimeConfig.Stop reported true. It marks a
// preempted run, not a failed one: with checkpointing configured the run
// can be resumed and completed later.
var ErrRunStopped = errors.New("sim: run stopped")

// WearHistogramBuckets is the resolution of the wear/endurance snapshots in
// trace progress events.
const WearHistogramBuckets = 16

// lifetimeMetrics holds the registry handles RunLifetime updates in its
// request loop.
type lifetimeMetrics struct {
	writes  *obs.Counter
	reads   *obs.Counter
	blocked *obs.Counter
	latency *obs.Histogram
}

func newLifetimeMetrics(reg *obs.Registry) *lifetimeMetrics {
	reg.Help("twl_sim_requests_total", "logical requests served, by op")
	reg.Help("twl_sim_blocked_requests_total", "requests delayed behind an internal swap phase")
	reg.Help("twl_sim_request_cycles", "per-request latency in CPU cycles")
	return &lifetimeMetrics{
		writes:  reg.Counter("twl_sim_requests_total", obs.L("op", "write")),
		reads:   reg.Counter("twl_sim_requests_total", obs.L("op", "read")),
		blocked: reg.Counter("twl_sim_blocked_requests_total"),
		latency: reg.Histogram("twl_sim_request_cycles", obs.DefaultLatencyBuckets()),
	}
}

// finishLifetimeMetrics records the end-of-run aggregates. Runs under a
// retirement decorator additionally export the twl_retire_* series.
func finishLifetimeMetrics(reg *obs.Registry, res LifetimeResult, retiring bool) {
	reg.Help("twl_sim_swaps_total", "internal swap operations performed by the scheme")
	reg.Help("twl_sim_swap_writes_total", "device writes caused by internal swaps")
	reg.Help("twl_sim_device_writes_total", "physical page writes applied to the array")
	reg.Help("twl_sim_normalized_lifetime", "demand writes at first failure / total endurance")
	reg.Counter("twl_sim_swaps_total").Add(res.Swaps)
	reg.Counter("twl_sim_swap_writes_total").Add(res.SwapWrites)
	reg.Counter("twl_sim_device_writes_total").Add(res.DeviceWrites)
	reg.Gauge("twl_sim_normalized_lifetime").Set(res.Normalized)
	if !retiring {
		return
	}
	reg.Help("twl_retire_retired_pages", "visible pages retired to the spare pool")
	reg.Help("twl_retire_spares_used", "spare pages consumed (retirements plus spare replacements)")
	reg.Help("twl_retire_spare_pages", "size of the spare pool")
	reg.Help("twl_retire_capacity_exhausted", "1 if the run ended by spare exhaustion or the capacity threshold")
	reg.Gauge("twl_retire_retired_pages").Set(float64(res.RetiredPages))
	reg.Gauge("twl_retire_spares_used").Set(float64(res.SparesUsed))
	reg.Gauge("twl_retire_spare_pages").Set(float64(res.SparePages))
	exhausted := 0.0
	if res.FailCause != nil {
		exhausted = 1
	}
	reg.Gauge("twl_retire_capacity_exhausted").Set(exhausted)
}

// emitProgress writes one tracer progress event with current counters and a
// wear snapshot. Runs under a retirement decorator also report the retired
// and spare counts — the fast path clamps chunks at the trace cadence, so
// both paths observe identical retirement state at each event.
func (l *lifetimeState) emitProgress() {
	st := l.s.Stats()
	sum := l.dev.Summary()
	fields := []obs.Field{
		obs.F("demand_writes", l.demand),
		obs.F("demand_reads", st.DemandReads),
		obs.F("swaps", st.Swaps),
		obs.F("swap_writes", st.SwapWrites),
		obs.F("blocked", l.blocked),
		obs.F("cycles", l.cycles),
		obs.F("max_wear_fraction", sum.MaxFraction),
		obs.F("mean_wear_fraction", sum.MeanFraction),
		obs.F("wear_hist", l.dev.WearHistogram(WearHistogramBuckets)),
	}
	if l.capRep != nil {
		cs := l.capRep.CapacityStats()
		fields = append(fields,
			obs.F("retired", cs.Retired),
			obs.F("spares_used", cs.SparesUsed),
		)
	}
	l.tracer.Emit("progress", fields...)
}

// LifetimeResult summarizes a lifetime run. It stays comparable with ==
// (the differential and checkpoint tests rely on that), so the capacity
// curve lives behind wl.AsCapacityReporter on the scheme, not here.
type LifetimeResult struct {
	Scheme       string
	DemandWrites uint64 // demand writes served before first failure
	DemandReads  uint64
	DeviceWrites uint64
	SwapWrites   uint64
	Swaps        uint64
	// FailedPage is the physical page whose death ended the run (-1 if
	// capped). Under a retirement decorator this is the first failure the
	// spare pool could not cover, and may be a spare index (>= Pages) when
	// an in-service spare died after the pool emptied.
	FailedPage int
	Capped     bool // run hit MaxDemandWrites without a failure
	// FailCause refines FailedPage for runs under a retirement decorator:
	// wl.ErrCapacityExhausted when the run ended because the spare pool
	// emptied or the retired fraction crossed the capacity threshold, nil
	// for a plain first-page death (no decorator) or a capped run.
	FailCause error
	// RetiredPages, SparesUsed and SparePages mirror the decorator's
	// wl.CapacityStats at run end; all zero when no decorator is attached.
	RetiredPages int
	SparesUsed   int
	SparePages   int
	// Normalized is DemandWrites / Σ endurance — the Figure 8 metric. The
	// denominator includes spare-pool endurance, so retirement runs are
	// judged against the capacity they actually had.
	Normalized float64
	// Cycles is the total request latency accumulated over the run.
	Cycles int64
}

// Years converts the normalized lifetime to years given the full-size
// system's ideal lifetime (see IdealYears).
func (r LifetimeResult) Years(idealYears float64) float64 {
	return r.Normalized * idealYears
}

// RunLifetime drives src through s until the device's first page failure or
// the configured cap, and returns the summary.
func RunLifetime(s wl.Scheme, src Source, cfg LifetimeConfig) (LifetimeResult, error) {
	dev := s.Device()
	if _, failed := dev.Failed(); failed {
		return LifetimeResult{}, errors.New("sim: device already failed before the run")
	}
	totalEnd := dev.TotalEndurance()
	limit := cfg.MaxDemandWrites
	if limit == 0 {
		// Full-scale geometries (8Mi pages × 10^8 endurance ≈ 2^63 total)
		// would overflow the doubling; saturate instead of wrapping to a
		// tiny cap.
		if limit = 2 * totalEnd; limit < totalEnd {
			limit = ^uint64(0)
		}
	}
	timing := dev.Timing()
	capRep, _ := wl.AsCapacityReporter(s)

	if cfg.Checkpoint != nil {
		if err := validateCheckpointConfig(src, cfg.Checkpoint); err != nil {
			return LifetimeResult{}, err
		}
	}

	var metrics *lifetimeMetrics
	if cfg.Metrics != nil {
		metrics = newLifetimeMetrics(cfg.Metrics)
	}
	var traceEvery uint64
	if cfg.Trace != nil {
		traceEvery = cfg.Trace.Every()
	}

	l := &lifetimeState{
		s:          s,
		dev:        dev,
		timing:     timing,
		capRep:     capRep,
		checkEvery: cfg.CheckEvery,
		metrics:    metrics,
		reg:        cfg.Metrics,
		tracer:     cfg.Trace,
		traceEvery: traceEvery,
		limit:      limit,
		src:        src,
		res:        LifetimeResult{Scheme: s.Name(), FailedPage: -1},
	}

	resuming := false
	if ckpt := cfg.Checkpoint; ckpt != nil {
		l.ckptPath = ckpt.Path
		l.ckptEvery = ckpt.Every
		if l.ckptEvery == 0 {
			l.ckptEvery = DefaultCheckpointEvery
		}
		if cfg.Metrics != nil {
			l.initCkptMetrics(cfg.Metrics)
		}
		if ckpt.Resume {
			resuming = true
			if err := l.restoreCheckpoint(); err != nil {
				return LifetimeResult{}, fmt.Errorf("sim: resume from %s: %w", ckpt.Path, err)
			}
			// The source has already committed past a pending bulk run, so
			// only bulkLoop can serve its remainder.
			_, run := src.(RunSource)
			_, sweep := src.(SweepSource)
			if l.runN > 0 && (cfg.DisableFastForward || !run && !sweep) {
				return LifetimeResult{}, fmt.Errorf("sim: resume from %s: %d writes of a bulk run are pending, and this run does not take the fast-forward loop", ckpt.Path, l.runN)
			}
		}
	}
	if cfg.Stop != nil {
		l.stop = cfg.Stop
		if l.stopEvery = l.ckptEvery; l.stopEvery == 0 {
			l.stopEvery = DefaultCheckpointEvery
		}
		// First poll after one full cadence past the (possibly resumed)
		// starting demand count.
		l.nextStop = l.demand + l.stopEvery
	}
	// A resumed run continues the interrupted trace stream mid-flight: the
	// start event was already emitted (and its seq restored), so only fresh
	// runs announce themselves.
	if cfg.Trace != nil && !resuming {
		cfg.Trace.Emit("start",
			obs.F("scheme", s.Name()),
			obs.F("pages", dev.Pages()),
			obs.F("total_endurance", totalEnd),
			obs.F("max_demand_writes", limit),
		)
	}

	// Fast-forward when the source can emit runs/sweeps; the bulk loop
	// serves a sweep per-request (bit-identically) over a scheme without a
	// sweep fast path. A WriteSource's bursts go through WriteRun with
	// their reads batched. The per-request loop remains for plain sources
	// and for callers that pin the baseline path.
	var err error
	if cfg.DisableFastForward {
		err = l.perRequestLoop(src)
	} else {
		switch bs := src.(type) {
		case RunSource:
			err = l.bulkLoop(bs.NextRun, false)
		case SweepSource:
			err = l.bulkLoop(bs.NextSweep, true)
		case WriteSource:
			err = l.writeLoop(bs)
		default:
			err = l.perRequestLoop(src)
		}
	}
	if err != nil {
		return l.res, err
	}

	res, blocked, cycles := l.res, l.blocked, l.cycles
	if res.FailedPage < 0 {
		res.Capped = true
	}
	st := s.Stats()
	res.DemandWrites = st.DemandWrites
	res.DemandReads = st.DemandReads
	res.SwapWrites = st.SwapWrites
	res.Swaps = st.Swaps
	res.DeviceWrites = dev.TotalWrites()
	res.Normalized = float64(st.DemandWrites) / float64(totalEnd)
	res.Cycles = cycles
	if capRep != nil {
		cs := capRep.CapacityStats()
		res.RetiredPages = cs.Retired
		res.SparesUsed = cs.SparesUsed
		res.SparePages = cs.SparePages
		if !res.Capped && cs.Exhausted {
			res.FailCause = wl.ErrCapacityExhausted
		}
	}
	if cfg.Metrics != nil {
		finishLifetimeMetrics(cfg.Metrics, res, capRep != nil)
	}
	if cfg.Trace != nil {
		fields := []obs.Field{
			obs.F("scheme", res.Scheme),
			obs.F("demand_writes", res.DemandWrites),
			obs.F("blocked", blocked),
			obs.F("swaps", res.Swaps),
			obs.F("failed_page", res.FailedPage),
			obs.F("capped", res.Capped),
			obs.F("normalized", res.Normalized),
			obs.F("cycles", res.Cycles),
			obs.F("wear_hist", dev.WearHistogram(WearHistogramBuckets)),
		}
		if capRep != nil {
			fields = append(fields,
				obs.F("retired", res.RetiredPages),
				obs.F("spares_used", res.SparesUsed),
				obs.F("spare_pages", res.SparePages),
				obs.F("capacity_exhausted", res.FailCause != nil),
			)
		}
		cfg.Trace.Emit("end", fields...)
	}
	return res, nil
}

// SecondsPerYear is the conversion constant for lifetime reporting.
const SecondsPerYear = 3.1536e7

// IdealYearsCalibration aligns the raw endurance-sum bound with the ideal
// lifetimes the paper reports. Table 2's ideal lifetimes are consistently
// 0.49 × capacity·endurance/bandwidth (e.g. vips: 32 GiB × 10^8 / 3309 MBps
// = 32.9 raw years vs 16 reported; blackscholes 900 vs 446), i.e. the
// authors assume an effective endurance of ~0.49×10^8 per cell. We adopt
// the same constant so absolute years are comparable; it cancels in every
// normalized comparison.
const IdealYearsCalibration = 0.49

// IdealYears returns the ideal lifetime in years of a full-size system:
// capacity × mean endurance / write bandwidth, calibrated to the paper's
// Table 2 convention.
func IdealYears(geom pcm.Geometry, meanEndurance, bytesPerSecond float64) float64 {
	totalBytes := float64(geom.Capacity()) * meanEndurance
	return IdealYearsCalibration * totalBytes / bytesPerSecond / SecondsPerYear
}
