package sim

import (
	"errors"
	"fmt"

	"twl/internal/attack"
	"twl/internal/obs"
	"twl/internal/trace"
	"twl/internal/wl"
)

// PerfConfig controls a performance (Figure 9) run.
type PerfConfig struct {
	// Requests is how many memory requests to simulate per scheme.
	Requests int
	// Metrics, when non-nil, receives per-request latency histograms and
	// blocked-request counters labeled by scheme and benchmark — the raw
	// distributional material behind the Figure 9 means.
	Metrics *obs.Registry
}

// PerfResult reports a scheme's execution time normalized to NOWL.
type PerfResult struct {
	Scheme    string
	Benchmark string
	// MemCycles is the accumulated memory-request latency.
	MemCycles int64
	// BaselineMemCycles is NOWL's latency on the identical request stream.
	BaselineMemCycles int64
	// Normalized is the modeled execution-time ratio vs NOWL (≥ 1).
	Normalized float64
}

// memoryBoundedness models how much of a benchmark's execution time is
// memory time, from its write bandwidth relative to the most
// bandwidth-hungry benchmark in the PARSEC table (vips, 3309 MBps):
// bandwidth-saturating benchmarks are almost fully memory-bound; trickle
// writers (streamcluster) hide nearly all memory latency behind compute.
// The affine floor keeps every benchmark at least mildly sensitive,
// matching the non-zero overheads Figure 9 shows even for low-bandwidth
// benchmarks.
func memoryBoundedness(bench trace.Benchmark) float64 {
	peak := 0.0
	for _, b := range trace.PARSEC() {
		peak = max(peak, b.WriteBandwidthMBps)
	}
	return min(0.40+0.55*(bench.WriteBandwidthMBps/peak), 1)
}

// RunPerf measures a scheme's normalized execution time on a benchmark.
// build constructs the scheme under test over a fresh device; buildBaseline
// constructs the NOWL reference over an identical device. Both schemes see
// the identical request sequence (same generator seed).
//
// The model: exec = compute + mem, with compute = mem_nowl × (1−μ)/μ where
// μ is the benchmark's memory-boundedness. Then
//
//	normalized = (compute + mem_scheme) / (compute + mem_nowl)
//	           = 1 + μ × (mem_scheme − mem_nowl)/mem_nowl.
//
// This replaces the paper's gem5+NVMain full-system runs (DESIGN.md,
// substitution 2); the per-request latencies themselves come from the
// Table 1 timing and each scheme's reported Cost.
func RunPerf(bench trace.Benchmark, pages int, seed uint64, cfg PerfConfig,
	build func() (wl.Scheme, error), buildBaseline func() (wl.Scheme, error)) (PerfResult, error) {
	if cfg.Requests <= 0 {
		return PerfResult{}, errors.New("sim: PerfConfig.Requests must be positive")
	}
	mem, name, err := measure(bench, pages, seed, cfg.Requests, cfg.Metrics, build)
	if err != nil {
		return PerfResult{}, err
	}
	base, _, err := measure(bench, pages, seed, cfg.Requests, cfg.Metrics, buildBaseline)
	if err != nil {
		return PerfResult{}, err
	}
	if base <= 0 {
		return PerfResult{}, errors.New("sim: baseline accumulated no memory cycles")
	}
	mu := memoryBoundedness(bench)
	normalized := 1 + mu*float64(mem-base)/float64(base)
	if normalized < 1 {
		// A scheme cannot beat the no-op baseline; tiny negative deltas can
		// only come from modeling noise, clamp them.
		normalized = 1
	}
	return PerfResult{
		Scheme:            name,
		Benchmark:         bench.Name,
		MemCycles:         mem,
		BaselineMemCycles: base,
		Normalized:        normalized,
	}, nil
}

// measure replays the benchmark stream through a freshly built scheme and
// returns the accumulated memory cycles. When reg is non-nil the run's
// requests are recorded there (perfMetrics).
func measure(bench trace.Benchmark, pages int, seed uint64, requests int,
	reg *obs.Registry, build func() (wl.Scheme, error)) (int64, string, error) {
	s, err := build()
	if err != nil {
		return 0, "", err
	}
	if s.Device().Pages() < pages {
		return 0, "", fmt.Errorf("sim: scheme device has %d pages, need >= %d", s.Device().Pages(), pages)
	}
	name := s.Name()
	g, err := trace.NewSynthetic(bench, pages, seed)
	if err != nil {
		return 0, "", err
	}
	var pm *perfMetrics
	if reg != nil {
		pm = newPerfMetrics(reg, name, bench.Name)
	}
	timing := s.Device().Timing()
	var cycles int64
	var writes, blocked uint64
	src := FromWorkload(g)
	var fb attack.Feedback
	for i := 0; i < requests; i++ {
		addr, write := src.Next(fb)
		var cost wl.Cost
		if write {
			cost = s.Write(addr, uint64(i))
			writes++
		} else {
			_, cost = s.Read(addr)
		}
		if cost.Blocked {
			blocked++
		}
		c := cost.Cycles(timing)
		cycles += c
		if pm != nil {
			pm.latency.Observe(float64(c))
		}
	}
	if pm != nil {
		pm.writes.Add(writes)
		pm.reads.Add(uint64(requests) - writes)
		pm.blocked.Add(blocked)
		pm.requests.Add(uint64(requests))
	}
	return cycles, name, nil
}

// perfMetrics holds the series a performance run records: scheme-labeled
// request counts by op, blocked requests and a per-request latency
// histogram — the distributional material behind the Figure 9 means — and
// a benchmark-labeled request counter that tracks coverage.
type perfMetrics struct {
	writes, reads, blocked, requests *obs.Counter
	latency                          *obs.Histogram
}

// newPerfMetrics registers the series in the order exporters list them.
func newPerfMetrics(reg *obs.Registry, scheme, bench string) *perfMetrics {
	label := obs.L("scheme", scheme)
	reg.Help("twl_scheme_requests_total", "logical requests served by the scheme, by op")
	reg.Help("twl_scheme_blocked_total", "requests delayed behind an internal swap phase")
	reg.Help("twl_scheme_request_cycles", "per-request latency in CPU cycles")
	reg.Help("twl_perf_requests_total", "performance-run requests, by scheme and benchmark")
	return &perfMetrics{
		writes:   reg.Counter("twl_scheme_requests_total", label, obs.L("op", "write")),
		reads:    reg.Counter("twl_scheme_requests_total", label, obs.L("op", "read")),
		blocked:  reg.Counter("twl_scheme_blocked_total", label),
		latency:  reg.Histogram("twl_scheme_request_cycles", obs.DefaultLatencyBuckets(), label),
		requests: reg.Counter("twl_perf_requests_total", label, obs.L("benchmark", bench)),
	}
}
