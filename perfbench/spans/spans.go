// Package spans is the benchmark's traced mode: it times each simulator
// layer from outside, by wrapping the public seams a lifetime cell is built
// from — the cell constructors, the request source (sim.Source and its
// fast-forward extensions) and the scheme (composed with wl.Wrap so every
// fast-path capability survives). Spans are aggregated per layer in memory;
// the caller writes them out when the run ends.
//
// This is the only part of the benchmark that imports the simulator's
// internal packages. The timed end-to-end phases go through the twl facade
// and the twlsimd HTTP API alone.
package spans

import (
	"sort"
	"time"

	"twl"
	"twl/internal/attack"
	"twl/internal/obs"
	"twl/internal/pv"
	"twl/internal/sim"
	"twl/internal/trace"
	"twl/internal/wl"
	"twl/internal/wl/secref"
)

// Span accumulates the calls into one layer and the time spent inside them.
// Reading the clock costs more than many of the calls it would bracket, so a
// span times a pseudo-random 1 in sampleEvery of them, takes the clock's own
// cost (calibrated at start-up) off each timed interval, and scales up.
type Span struct {
	Calls uint64 // calls made
	Timed uint64 // calls timed
	Ns    int64  // time inside the timed calls
	rng   uint64
}

// sampleEvery is the sampling period; a power of two.
const sampleEvery = 32

// clockNs is the median of what timing an empty call records: the clock's
// own cost, taken off every timed interval. It is measured through the same
// Span method the wrappers use, so call overhead cancels too.
var clockNs = func() int64 {
	var s Span
	samples := make([]int64, 4001)
	for i := range samples {
		s.Ns = 0
		s.timedRaw(time.Now())
		samples[i] = s.Ns
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	return samples[len(samples)/2]
}()

// sample counts a call and reports whether to time it.
func (s *Span) sample() bool {
	s.Calls++
	if s.rng == 0 {
		s.rng = 0x9E3779B97F4A7C15
	}
	s.rng ^= s.rng << 13
	s.rng ^= s.rng >> 7
	s.rng ^= s.rng << 17
	return s.rng&(sampleEvery-1) == 0
}

// timed records one timed call that started at start.
func (s *Span) timed(start time.Time) {
	before := s.Ns
	s.timedRaw(start)
	if s.Ns -= clockNs; s.Ns < before {
		s.Ns = before
	}
}

// timedRaw records one timed call without the clock correction.
//
//go:noinline
func (s *Span) timedRaw(start time.Time) {
	s.Timed++
	s.Ns += int64(time.Since(start))
}

// Estimate is the time inside all calls: the timed calls' time scaled by
// calls over timed calls.
func (s Span) Estimate() int64 {
	if s.Timed == 0 {
		return 0
	}
	return int64(float64(s.Ns) * float64(s.Calls) / float64(s.Timed))
}

// SchemeSpans records time inside the scheme's request methods, and how much
// of the demand traffic the bulk fast path absorbed.
type SchemeSpans struct {
	Span
	Offered  uint64 // writes offered to WriteRun/WriteSweep
	Absorbed uint64 // writes those calls absorbed
}

// schemeBody is the wl.Wrap decorator body. Wrap exposes its bulk methods
// only when the wrapped scheme has the matching capability, so they may
// assert on the embedded scheme unconditionally.
type schemeBody struct {
	wl.Scheme
	sp *SchemeSpans
}

func (b *schemeBody) Write(la int, tag uint64) wl.Cost {
	if !b.sp.sample() {
		return b.Scheme.Write(la, tag)
	}
	start := time.Now()
	c := b.Scheme.Write(la, tag)
	b.sp.timed(start)
	return c
}

func (b *schemeBody) Read(la int) (uint64, wl.Cost) {
	if !b.sp.sample() {
		return b.Scheme.Read(la)
	}
	start := time.Now()
	v, c := b.Scheme.Read(la)
	b.sp.timed(start)
	return v, c
}

func (b *schemeBody) WriteRun(la int, tag uint64, n int) (c wl.Cost, absorbed int) {
	if b.sp.sample() {
		start := time.Now()
		defer b.sp.timed(start)
	}
	c, absorbed = b.Scheme.(wl.RunWriter).WriteRun(la, tag, n)
	b.sp.Offered += uint64(n)
	b.sp.Absorbed += uint64(absorbed)
	return c, absorbed
}

func (b *schemeBody) WriteSweep(la int, tag uint64, n int) (c wl.Cost, absorbed int) {
	if b.sp.sample() {
		start := time.Now()
		defer b.sp.timed(start)
	}
	c, absorbed = b.Scheme.(wl.SweepWriter).WriteSweep(la, tag, n)
	b.sp.Offered += uint64(n)
	b.sp.Absorbed += uint64(absorbed)
	return c, absorbed
}

// WrapScheme times the request methods of s. The result keeps exactly the
// optional interfaces s implements.
func WrapScheme(s wl.Scheme) (wl.Scheme, *SchemeSpans) {
	sp := &SchemeSpans{}
	return wl.Wrap(&schemeBody{Scheme: s, sp: sp}, s), sp
}

// The source wrapper is assembled from one part per method, so the
// composite implements exactly the extensions the wrapped source does: the
// simulator picks its loop (and relays feedback) by probing for them.
type nextPart struct {
	in sim.Source
	sp *Span
}

func (p nextPart) Next(fb attack.Feedback) (int, bool) {
	if !p.sp.sample() {
		return p.in.Next(fb)
	}
	start := time.Now()
	a, w := p.in.Next(fb)
	p.sp.timed(start)
	return a, w
}

type runPart struct {
	in sim.RunSource
	sp *Span
}

func (p runPart) NextRun(fb attack.Feedback) (int, bool, int) {
	if !p.sp.sample() {
		return p.in.NextRun(fb)
	}
	start := time.Now()
	a, w, n := p.in.NextRun(fb)
	p.sp.timed(start)
	return a, w, n
}

type sweepPart struct {
	in sim.SweepSource
	sp *Span
}

func (p sweepPart) NextSweep(fb attack.Feedback) (int, bool, int) {
	if !p.sp.sample() {
		return p.in.NextSweep(fb)
	}
	start := time.Now()
	a, w, n := p.in.NextSweep(fb)
	p.sp.timed(start)
	return a, w, n
}

type observePart struct {
	in sim.FeedbackObserver
	sp *Span
}

func (p observePart) Observe(fb attack.Feedback, n int) {
	if !p.sp.sample() {
		p.in.Observe(fb, n)
		return
	}
	start := time.Now()
	p.in.Observe(fb, n)
	p.sp.timed(start)
}

// WrapSource times calls into src. The result implements RunSource,
// SweepSource and FeedbackObserver exactly when src does.
func WrapSource(src sim.Source) (sim.Source, *Span) {
	sp := &Span{}
	n := nextPart{src, sp}
	run, isRun := src.(sim.RunSource)
	sweep, isSweep := src.(sim.SweepSource)
	obsv, isObs := src.(sim.FeedbackObserver)
	r, s, o := runPart{run, sp}, sweepPart{sweep, sp}, observePart{obsv, sp}
	switch {
	case isRun && isSweep && isObs:
		return struct {
			nextPart
			runPart
			sweepPart
			observePart
		}{n, r, s, o}, sp
	case isRun && isSweep:
		return struct {
			nextPart
			runPart
			sweepPart
		}{n, r, s}, sp
	case isRun && isObs:
		return struct {
			nextPart
			runPart
			observePart
		}{n, r, o}, sp
	case isSweep && isObs:
		return struct {
			nextPart
			sweepPart
			observePart
		}{n, s, o}, sp
	case isRun:
		return struct {
			nextPart
			runPart
		}{n, r}, sp
	case isSweep:
		return struct {
			nextPart
			sweepPart
		}{n, s}, sp
	case isObs:
		return struct {
			nextPart
			observePart
		}{n, o}, sp
	default:
		return n, sp
	}
}

// HasBulkPath reports whether the simulator serves src through its bulk
// loop (src emits runs or sweeps).
func HasBulkPath(src sim.Source) bool {
	_, run := src.(sim.RunSource)
	_, sweep := src.(sim.SweepSource)
	return run || sweep
}

// Cell is one lifetime cell built for a traced run, with the time each
// constructor took.
type Cell struct {
	Scheme   wl.Scheme
	Source   sim.Source
	DeviceNs int64 // SystemConfig.NewDevice, including pv.Generate
	SchemeNs int64
	SourceNs int64
}

// lifetimeScheme mirrors the facade's construction for lifetime cells:
// Security Refresh gets its endurance-rescaled two-level configuration,
// every other scheme its registry default.
func lifetimeScheme(name string, dev *twl.Device, seed uint64, sys twl.SystemConfig) (wl.Scheme, error) {
	if name == "SR" {
		return secref.NewTwoLevel(dev, secref.DefaultTwoLevelConfig(sys.Pages, sys.MeanEndurance, seed))
	}
	return twl.NewScheme(name, dev, seed)
}

// AttackCell builds the cell twl.RunAttackCell runs — the same device, the
// same derived seeds (scheme at Seed+7, attack at Seed+11) — timing each
// constructor. A traced result that differs from the facade's shows this
// mirror has drifted from it.
func AttackCell(sys twl.SystemConfig, scheme string, mode twl.AttackMode) (Cell, error) {
	var c Cell
	start := time.Now()
	dev, err := sys.NewDevice()
	c.DeviceNs = int64(time.Since(start))
	if err != nil {
		return c, err
	}
	start = time.Now()
	c.Scheme, err = lifetimeScheme(scheme, dev, sys.Seed+7, sys)
	c.SchemeNs = int64(time.Since(start))
	if err != nil {
		return c, err
	}
	start = time.Now()
	st, err := attack.New(attack.DefaultConfig(mode, sys.Pages, sys.Seed+11))
	if err == nil {
		c.Source = sim.FromAttack(st)
	}
	c.SourceNs = int64(time.Since(start))
	return c, err
}

// BenchCell builds the cell twl.RunBenchCell runs (scheme at Seed+13,
// synthetic workload at Seed+17), timing each constructor.
func BenchCell(sys twl.SystemConfig, scheme, bench string) (Cell, error) {
	var c Cell
	b, err := trace.BenchmarkByName(bench)
	if err != nil {
		return c, err
	}
	start := time.Now()
	dev, err := sys.NewDevice()
	c.DeviceNs = int64(time.Since(start))
	if err != nil {
		return c, err
	}
	start = time.Now()
	c.Scheme, err = lifetimeScheme(scheme, dev, sys.Seed+13, sys)
	c.SchemeNs = int64(time.Since(start))
	if err != nil {
		return c, err
	}
	start = time.Now()
	g, err := trace.NewSynthetic(b, sys.Pages, sys.Seed+17)
	if err == nil {
		c.Source = sim.FromWorkload(g)
	}
	c.SourceNs = int64(time.Since(start))
	return c, err
}

// Run is the outcome of one traced lifetime run.
type Run struct {
	Result twl.LifetimeResult
	Ns     int64 // the whole sim.RunLifetime call
	Scheme SchemeSpans
	Source Span
}

// RunCell drives the cell through timing wrappers, with reg (which may be
// nil) attached as the run's metrics registry.
func RunCell(c Cell, reg *twl.MetricsRegistry) (Run, error) {
	s, ssp := WrapScheme(c.Scheme)
	src, srcsp := WrapSource(c.Source)
	start := time.Now()
	res, err := sim.RunLifetime(s, src, sim.LifetimeConfig{Metrics: reg})
	return Run{Result: res, Ns: int64(time.Since(start)), Scheme: *ssp, Source: *srcsp}, err
}

// FastForward reads the fast-path series a run with a metrics registry
// leaves for scheme: writes absorbed by bulk calls, and event writes served
// one at a time inside the bulk loop.
func FastForward(reg *twl.MetricsRegistry, scheme string) (absorbed, events uint64) {
	label := obs.L("scheme", scheme)
	h := reg.Histogram("twl_ff_run_length", obs.ExponentialBuckets(1, 4, 11), label)
	return uint64(h.Sum()), reg.Counter("twl_ff_events_total", label).Value()
}

// Checkpoints reads the checkpoint series of a run with a metrics registry:
// the seconds spent writing checkpoints, how many were written, and the last
// one's size in bytes.
func Checkpoints(reg *twl.MetricsRegistry) (seconds float64, count uint64, bytes float64) {
	h := reg.Histogram("twl_ckpt_seconds", obs.ExponentialBuckets(1e-4, 4, 10))
	return h.Sum(), h.Count(), reg.Gauge("twl_ckpt_bytes").Value()
}

// Utilization reads the worker utilization gauge of the last grid run
// recorded in reg.
func Utilization(reg *twl.MetricsRegistry) float64 {
	return reg.Gauge("twl_cells_utilization").Value()
}

// GenerateNs times the process-variation map NewDevice builds for sys.
func GenerateNs(sys twl.SystemConfig) (int64, error) {
	start := time.Now()
	_, err := pv.Generate(pv.Config{
		Pages: sys.Pages + sys.SparePages,
		Mean:  sys.MeanEndurance,
		Sigma: sys.SigmaFraction * sys.MeanEndurance,
		Model: pv.Gaussian,
		Seed:  sys.Seed,
	})
	return int64(time.Since(start)), err
}
