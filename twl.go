// Package twl is the public API of the Toss-up Wear Leveling reproduction
// (Zhang & Sun, "Toss-up Wear Leveling: Protecting Phase-Change Memories
// from Inconsistent Write Patterns", DAC 2017).
//
// The package exposes three layers:
//
//   - System construction: build a PCM device with a process-variation
//     endurance map (SystemConfig) and attach any of the implemented
//     wear-leveling schemes to it (NewScheme) — TWL itself plus the
//     baselines the paper compares against (NOWL, Security Refresh,
//     Bloom-filter WL, Wear Rate Leveling, Start-Gap).
//   - Workloads: the four wear-out attacks of Section 5.2 (NewAttack) and
//     synthetic PARSEC benchmarks calibrated to Table 2 (NewWorkload).
//   - Experiments: one-call runners that regenerate every table and figure
//     of the evaluation (RunTable2, RunFig6, RunFig7, RunFig8, RunFig9,
//     HardwareCost) — see experiments.go and EXPERIMENTS.md.
//
// All randomness is seeded; every result in this package is reproducible.
package twl

import (
	"fmt"
	"io"
	"strings"

	"twl/internal/attack"
	"twl/internal/core"
	"twl/internal/detect"
	"twl/internal/obs"
	"twl/internal/pcm"
	"twl/internal/pv"
	"twl/internal/schemes"
	"twl/internal/sim"
	"twl/internal/trace"
	"twl/internal/wl"
	"twl/internal/wl/retire"
)

// Re-exported core types, so API users can name them without reaching into
// internal packages.
type (
	// Scheme is a wear-leveling scheme bound to a PCM device.
	Scheme = wl.Scheme
	// Cost is the per-request cost report (device writes/reads, controller
	// cycles, blocking).
	Cost = wl.Cost
	// SchemeStats aggregates scheme activity (demand writes, swaps, …).
	SchemeStats = wl.Stats
	// Device is the PCM array model.
	Device = pcm.Device
	// Geometry is the PCM array organization.
	Geometry = pcm.Geometry
	// Timing is the PCM latency model.
	Timing = pcm.Timing
	// AttackMode selects one of the four Figure 6 attacks.
	AttackMode = attack.Mode
	// Benchmark is a Table 2 PARSEC workload description.
	Benchmark = trace.Benchmark
	// LifetimeResult summarizes a run-to-first-failure experiment.
	LifetimeResult = sim.LifetimeResult
	// TWLConfig parameterizes the TWL engine directly.
	TWLConfig = core.Config
	// TWLEngine is the TWL scheme with its full API (PartnerOf, Config, …).
	TWLEngine = core.Engine
	// RetireConfig parameterizes the page-retirement decorator.
	RetireConfig = retire.Config
	// CapacityStats reports a retirement decorator's spare-pool usage and
	// its capacity-vs-writes curve.
	CapacityStats = wl.CapacityStats
	// CapacityPoint is one retirement event on the capacity curve.
	CapacityPoint = wl.CapacityPoint
	// Footprint itemizes a device's per-page state arrays in bytes (see
	// Device.Footprint); combined with TableBytesOf it yields the whole
	// stack's bytes-per-page.
	Footprint = pcm.Footprint
)

// Attack modes (Figure 6).
const (
	AttackRepeat       = attack.Repeat
	AttackRandom       = attack.Random
	AttackScan         = attack.Scan
	AttackInconsistent = attack.Inconsistent
)

// TWL pairing policies.
const (
	PairStrongWeak = core.StrongWeak
	PairAdjacent   = core.Adjacent
	PairRandom     = core.Random
)

// SystemConfig describes the simulated PCM system. The zero value is not
// valid; start from DefaultSystem.
type SystemConfig struct {
	// Pages is the simulated array size in pages. Experiments run on a
	// scaled array (see DESIGN.md); the full-size geometry is used only for
	// ideal-lifetime conversion.
	Pages int
	// PageSize in bytes (Table 1: 4096).
	PageSize int
	// MeanEndurance is the scaled mean endurance in writes, at most 2^31
	// (pcm.MaxEndurance); the paper's is 10^8.
	MeanEndurance float64
	// SigmaFraction is the endurance standard deviation as a fraction of
	// the mean (Section 5.1: 0.11).
	SigmaFraction float64
	// SparePages sizes the spare pool behind the visible array (0 = none).
	// Spares are invisible to schemes; they only absorb traffic once the
	// retirement decorator (AttachRetirement) remaps a failed page onto one.
	// Typical provisioning is 2–5% of Pages.
	SparePages int
	// Seed drives the endurance map and every scheme RNG derived from it.
	Seed uint64
}

// DefaultSystem returns the default scaled system: 2048 pages with mean
// endurance 20000 — small enough that a full lifetime run finishes in
// seconds, large enough that the endurance distribution and pairing
// statistics are faithful. Endurance is kept ~10× the page count so that
// sweep-based schemes (Security Refresh) can complete leveling rounds well
// within a page's life, as they do at full scale; see EXPERIMENTS.md.
func DefaultSystem(seed uint64) SystemConfig {
	return SystemConfig{
		Pages:         2048,
		PageSize:      4096,
		MeanEndurance: 20000,
		SigmaFraction: 0.11,
		Seed:          seed,
	}
}

// SmallSystem returns a reduced configuration used by the Go benchmark
// harness (bench_test.go) so that every figure regenerates in a few
// seconds. The endurance/page ratio matches DefaultSystem.
func SmallSystem(seed uint64) SystemConfig {
	return SystemConfig{
		Pages:         512,
		PageSize:      4096,
		MeanEndurance: 5000,
		SigmaFraction: 0.11,
		Seed:          seed,
	}
}

// Validate reports whether the configuration is usable. Every failure wraps
// ErrBadConfig, so callers can classify with errors.Is.
func (c SystemConfig) Validate() error {
	if c.Pages <= 0 {
		return fmt.Errorf("twl: %w: Pages must be positive, got %d", ErrBadConfig, c.Pages)
	}
	if c.PageSize <= 0 {
		return fmt.Errorf("twl: %w: PageSize must be positive, got %d", ErrBadConfig, c.PageSize)
	}
	if c.MeanEndurance <= 0 || c.MeanEndurance > pcm.MaxEndurance {
		return fmt.Errorf("twl: %w: MeanEndurance must be in (0, 2^31], got %g", ErrBadConfig, c.MeanEndurance)
	}
	if c.SigmaFraction < 0 || c.SigmaFraction >= 1 {
		return fmt.Errorf("twl: %w: SigmaFraction must be in [0, 1), got %g", ErrBadConfig, c.SigmaFraction)
	}
	if c.SparePages < 0 {
		return fmt.Errorf("twl: %w: SparePages must be non-negative, got %d", ErrBadConfig, c.SparePages)
	}
	return nil
}

// WithSpareFraction returns a copy of the configuration provisioning a spare
// pool of the given fraction of the visible pages (at least one page when
// the fraction is positive).
func (c SystemConfig) WithSpareFraction(frac float64) SystemConfig {
	spares := int(frac * float64(c.Pages))
	if frac > 0 && spares == 0 {
		spares = 1
	}
	c.SparePages = spares
	return c
}

// NewDevice builds the PCM device for the configuration.
func (c SystemConfig) NewDevice() (*Device, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	// One endurance map across visible and spare pages: the spare pool is
	// fabbed from the same process as the rest of the die.
	end, err := pv.Generate(pv.Config{
		Pages: c.Pages + c.SparePages,
		Mean:  c.MeanEndurance,
		Sigma: c.SigmaFraction * c.MeanEndurance,
		Model: pv.Gaussian,
		Seed:  c.Seed,
	})
	if err != nil {
		return nil, err
	}
	geom := pcm.Geometry{
		Pages:      c.Pages,
		PageSize:   c.PageSize,
		LineSize:   128,
		Ranks:      4,
		Banks:      32,
		SparePages: c.SparePages,
	}
	return pcm.NewDevice(geom, pcm.DefaultTiming(), end)
}

// Sentinel errors, re-exported for errors.Is checks against anything this
// package returns.
var (
	// ErrUnknownScheme is wrapped by NewScheme when the name is not
	// registered.
	ErrUnknownScheme = wl.ErrUnknownScheme
	// ErrBadConfig is wrapped by every constructor and Validate method when
	// a configuration value is out of range.
	ErrBadConfig = wl.ErrBadConfig
	// ErrCapacityExhausted is carried by LifetimeResult.FailCause when a run
	// under the retirement decorator ended because the spare pool emptied or
	// the capacity threshold was crossed, rather than at a bare first
	// failure.
	ErrCapacityExhausted = wl.ErrCapacityExhausted
	// ErrRunStopped is wrapped by preempted runs — a LifetimeConfig.Stop or
	// ShardedConfig.Stop hook reported true and the run wound down after its
	// final checkpoint. The run is resumable, not failed.
	ErrRunStopped = sim.ErrRunStopped
)

// SchemeNames lists the scheme identifiers accepted by NewScheme, in the
// order the paper's figures present them. It reads the scheme table
// (internal/schemes) that NewScheme builds from, so the two cannot
// disagree.
func SchemeNames() []string { return schemes.Names() }

// SchemeDocs returns one line of documentation per scheme, in SchemeNames
// order, for command-line usage messages.
func SchemeDocs() []string {
	names := schemes.Names()
	docs := make([]string, 0, len(names))
	for _, name := range names {
		e, _ := schemes.Lookup(name)
		line := e.Name
		if len(e.Aliases) > 0 {
			line += " (aliases: " + strings.Join(e.Aliases, ", ") + ")"
		}
		if e.Doc != "" {
			line += " — " + e.Doc
		}
		docs = append(docs, line)
	}
	return docs
}

// NewScheme constructs a wear-leveling scheme by name over dev. Recognized
// names (case-insensitive): BWL, SR, TWL_ap, TWL_swp (alias TWL), NOWL,
// TWL_rand, WRL, StartGap (aliases start-gap, sg), OD3P, RBSG, SR2 — see
// SchemeNames/SchemeDocs for the list the scheme table holds. An
// unrecognized name returns an error wrapping ErrUnknownScheme; a scheme
// rejecting its derived configuration returns an error wrapping
// ErrBadConfig.
func NewScheme(name string, dev *Device, seed uint64) (Scheme, error) {
	return schemes.Build(name, dev, seed)
}

// AttachRetirement decorates a built scheme with spare-pool page
// retirement: a page failure is remapped onto a spare (the device must be
// built with SystemConfig.SparePages > 0) and the run continues until the
// pool empties or cfg.CapacityThreshold of the visible pages have been
// retired. The decorated scheme keeps the bare one's sweep fast path
// exactly, so fast-forward and checkpointing work unchanged.
func AttachRetirement(s Scheme, cfg RetireConfig) (Scheme, error) {
	return retire.New(s, cfg)
}

// CapacityOf reports the retirement decorator's spare-pool state anywhere in
// s's decorator stack; ok is false when s has no retirement layer.
func CapacityOf(s Scheme) (CapacityStats, bool) {
	rep, ok := wl.AsCapacityReporter(s)
	if !ok {
		return CapacityStats{}, false
	}
	return rep.CapacityStats(), true
}

// TableBytesOf reports the heap bytes of the scheme's per-page metadata
// tables, searching the decorator stack for a memory-reporting layer; ok is
// false when no layer itemizes its memory (schemes other than TWL do not
// yet). Add the scheme's Device().Footprint().Total() for the full
// simulated-controller footprint.
func TableBytesOf(s Scheme) (int64, bool) {
	rep, ok := wl.AsMemoryReporter(s)
	if !ok {
		return 0, false
	}
	return rep.TableBytes(), true
}

// NewTWL constructs a TWL engine with an explicit configuration, for users
// who want direct control over pairing, intervals and RNG choice.
func NewTWL(dev *Device, cfg TWLConfig) (*TWLEngine, error) {
	return core.New(dev, cfg)
}

// DefaultTWLConfig returns the paper's evaluation configuration for TWL:
// strong-weak pairing, toss-up interval 32, inter-pair swap interval 128,
// Feistel RNG.
func DefaultTWLConfig(seed uint64) TWLConfig { return core.DefaultConfig(seed) }

// Detector re-exports the online malicious-write-stream detector (the
// defense direction of the paper's reference [11]); see internal/detect.
type Detector = detect.Detector

// NewDetector builds a write-stream attack detector with thresholds scaled
// to the logical page count.
func NewDetector(pages int) (*Detector, error) {
	return detect.New(detect.DefaultConfig(pages))
}

// AttackModes returns the four Figure 6 attack modes in presentation order.
func AttackModes() []AttackMode { return attack.Modes() }

// ParseAttackMode resolves an attack name ("repeat", "random", "scan",
// "inconsistent" — the AttackMode String forms) to its mode. Shared by the
// command-line tools and the twlsimd job decoder so every entry point
// accepts exactly the same vocabulary.
func ParseAttackMode(name string) (AttackMode, error) {
	for _, m := range attack.Modes() {
		if m.String() == name {
			return m, nil
		}
	}
	return 0, fmt.Errorf("twl: %w: unknown attack %q (repeat, random, scan, inconsistent)",
		ErrBadConfig, name)
}

// NewAttack constructs one of the Figure 6 attack streams over a system's
// logical space, wrapped as a simulation request source.
func NewAttack(mode AttackMode, pages int, seed uint64) (sim.Source, error) {
	st, err := attack.New(attack.DefaultConfig(mode, pages, seed))
	if err != nil {
		return nil, err
	}
	return sim.FromAttack(st), nil
}

// Benchmarks returns the Table 2 PARSEC workload descriptions.
func Benchmarks() []Benchmark { return trace.PARSEC() }

// BenchmarkByName returns the Table 2 entry for name.
func BenchmarkByName(name string) (Benchmark, error) { return trace.BenchmarkByName(name) }

// NewWorkload constructs a synthetic benchmark request source over pages
// logical pages, calibrated to the benchmark's Table 2 characteristics.
func NewWorkload(bench Benchmark, pages int, seed uint64) (sim.Source, error) {
	g, err := trace.NewSynthetic(bench, pages, seed)
	if err != nil {
		return nil, err
	}
	return sim.FromWorkload(g), nil
}

// Observability re-exports: a run can be pointed at a metrics registry
// (counters, gauges, latency histograms — exportable as text, JSON or
// Prometheus exposition) and a tracer (structured JSONL progress events).
// See internal/obs and DESIGN.md.
type (
	// MetricsRegistry collects named counters, gauges and histograms.
	MetricsRegistry = obs.Registry
	// Tracer emits structured progress events as JSON lines.
	Tracer = obs.Tracer
	// LifetimeConfig controls a lifetime run (caps, paranoid checking,
	// metrics, tracing).
	LifetimeConfig = sim.LifetimeConfig
	// CheckpointConfig controls periodic run-state serialization and resume
	// inside a LifetimeConfig.
	CheckpointConfig = sim.CheckpointConfig
)

// NewMetrics returns an empty metrics registry. Pass it in a LifetimeConfig
// (or the experiment configs) and render it afterwards with its WriteText,
// WriteJSON or WritePrometheus methods.
func NewMetrics() *MetricsRegistry { return obs.NewRegistry() }

// MetricLabel builds a registry label for series lookups
// (e.g. reg.Counter("twl_sim_requests_total", twl.MetricLabel("op", "write"))).
func MetricLabel(key, value string) obs.Label { return obs.L(key, value) }

// NewRunTracer returns a tracer writing JSON lines to w, emitting one
// progress event every `every` demand writes (0 uses obs.DefaultTraceEvery).
func NewRunTracer(w io.Writer, every uint64) *Tracer { return obs.NewTracer(w, every) }

// RunLifetime drives src through s until the first page failure and returns
// the summary. See sim.RunLifetime.
func RunLifetime(s Scheme, src sim.Source) (LifetimeResult, error) {
	return sim.RunLifetime(s, src, sim.LifetimeConfig{})
}

// RunLifetimeWith is RunLifetime with an explicit configuration — caps,
// paranoid invariant checking, a metrics registry and/or a tracer.
func RunLifetimeWith(s Scheme, src sim.Source, cfg LifetimeConfig) (LifetimeResult, error) {
	return sim.RunLifetime(s, src, cfg)
}

// IdealYears returns the full-size system's ideal lifetime in years at the
// given write bandwidth, using the paper's Table 2 calibration.
func IdealYears(bytesPerSecond float64) float64 {
	return sim.IdealYears(pcm.DefaultGeometry(), 1e8, bytesPerSecond)
}
