package sim

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"twl/internal/attack"
	"twl/internal/core"
	"twl/internal/obs"
	"twl/internal/trace"
	"twl/internal/wl"
	"twl/internal/wl/wltest"
	"twl/internal/wl/wrl"

	// Populate the default registry with every scheme so the differential
	// test sweeps all of them (core and wrl register via the named imports).
	_ "twl/internal/wl/bwl"
	_ "twl/internal/wl/od3p"
	_ "twl/internal/wl/rbsg"
	_ "twl/internal/wl/secref"
	_ "twl/internal/wl/startgap"
)

// sweepless lists the registered schemes without a sweep fast path (BWL,
// whose per-address Bloom-filter walk has none); their sweeps take the
// per-request fallback. Every other scheme must implement wl.SweepWriter;
// wl.RunWriter is part of wl.Scheme.
var sweepless = map[string]bool{"BWL": true}

const (
	diffPages     = 256
	diffEndurance = 3000
	diffSeed      = 7
)

// diffTrace builds a replay trace with same-address write bursts of varying
// lengths, interleaved reads (including read runs), and raw addresses beyond
// the page range (exercising the FromTrace folding).
func diffTrace() []trace.Record {
	var recs []trace.Record
	for i := 0; i < 48; i++ {
		addr := uint64(i*37 + i%3*1000)
		for j := 0; j < i%7+1; j++ {
			recs = append(recs, trace.Record{Op: trace.Write, Addr: addr})
		}
		if i%3 == 0 {
			for j := 0; j < i%4+1; j++ {
				recs = append(recs, trace.Record{Op: trace.Read, Addr: addr + 5})
			}
		}
	}
	return recs
}

// diffKinds are the differential source kinds: each fast loop against the
// per-request reference. repeat and inconsistent drive bulkLoop's run path
// (inconsistent with deferred feedback), scan its sweep path, trace its run
// path with read runs, and parsec writeLoop's batched reads.
var diffKinds = []string{"repeat", "scan", "trace", "inconsistent", "parsec"}

// diffSource builds the request source for one differential run, sized to
// the scheme's demand-addressable space (schemes with spare gap pages serve
// fewer logical pages than the device holds).
func diffSource(t testing.TB, kind string, pages int) Source {
	t.Helper()
	switch kind {
	case "repeat", "scan", "inconsistent":
		mode := attack.Repeat
		switch kind {
		case "scan":
			mode = attack.Scan
		case "inconsistent":
			mode = attack.Inconsistent
		}
		st, err := attack.New(attack.DefaultConfig(mode, pages, diffSeed))
		if err != nil {
			t.Fatal(err)
		}
		return FromAttack(st)
	case "trace":
		src, err := FromTrace(diffTrace(), pages)
		if err != nil {
			t.Fatal(err)
		}
		return src
	case "parsec":
		b, err := trace.BenchmarkByName("canneal")
		if err != nil {
			t.Fatal(err)
		}
		g, err := trace.NewSynthetic(b, pages, diffSeed)
		if err != nil {
			t.Fatal(err)
		}
		return FromWorkload(g)
	}
	t.Fatalf("unknown source kind %q", kind)
	return nil
}

// metricsJSON renders the registry as JSON with the twl_ff_* and twl_ckpt_*
// series removed: twl_ff_* describes the simulator's own fast-path chunking
// (the per-write path never creates it, and checkpoint-cadence clamping
// legitimately reshapes it), and twl_ckpt_* describes the checkpoint
// machinery itself. Neither is part of the bit-identity contract.
// Everything else — request counters, latency histograms, run aggregates —
// must match exactly.
func metricsJSON(t *testing.T, reg *obs.Registry) string {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var series []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &series); err != nil {
		t.Fatal(err)
	}
	kept := series[:0]
	for _, s := range series {
		name, _ := s["name"].(string)
		if !strings.HasPrefix(name, "twl_ff_") && !strings.HasPrefix(name, "twl_ckpt_") {
			kept = append(kept, s)
		}
	}
	out, err := json.Marshal(kept)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// diffRun executes one lifetime run and captures everything comparable:
// the result, the full wear and payload maps, device totals, the metrics
// registry rendering, and the trace event log.
type diffRun struct {
	res         LifetimeResult
	wear        []uint64
	payload     []uint64
	writes      uint64
	reads       uint64
	metricsText string
	traceText   string
}

// schemeFactory builds a fresh scheme over a fresh device; the registry
// rows and the hand-built TWL/WRL variants share the differential harness
// through it.
type schemeFactory func(t *testing.T) wl.Scheme

// registryFactory adapts a registered scheme name to a schemeFactory.
func registryFactory(name string) schemeFactory {
	return func(t *testing.T) wl.Scheme {
		t.Helper()
		dev := wltest.NewDeviceEndurance(t, diffPages, diffEndurance, diffSeed)
		s, err := wl.Default.Build(name, dev, diffSeed)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
}

func diffRunOne(t *testing.T, build schemeFactory, kind string, disableFF bool) diffRun {
	t.Helper()
	s := build(t)
	dev := s.Device()
	reg := obs.NewRegistry()
	var traceBuf bytes.Buffer
	tr := obs.NewTracer(&traceBuf, 1000)
	res, err := RunLifetime(s, diffSource(t, kind, wl.LogicalPages(s)), LifetimeConfig{
		MaxDemandWrites:    3 * dev.TotalEndurance(),
		CheckEvery:         977,
		Metrics:            reg,
		Trace:              tr,
		DisableFastForward: disableFF,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Err(); err != nil {
		t.Fatal(err)
	}
	out := diffRun{
		res:         res,
		wear:        make([]uint64, dev.Pages()),
		payload:     make([]uint64, dev.Pages()),
		writes:      dev.TotalWrites(),
		reads:       dev.TotalReads(),
		metricsText: metricsJSON(t, reg),
		traceText:   traceBuf.String(),
	}
	for pp := 0; pp < dev.Pages(); pp++ {
		out.wear[pp] = dev.Wear(pp)
		out.payload[pp] = dev.Peek(pp)
	}
	return out
}

// diffCompare runs one configuration through both paths and requires
// bit-identical observables: the LifetimeResult struct, the per-page wear
// map, the per-page payload tags, device totals, the rendered metrics
// registry (minus the fast-path-only twl_ff_* diagnostics), and the emitted
// trace events.
func diffCompare(t *testing.T, build schemeFactory, kind string) {
	t.Helper()
	slow := diffRunOne(t, build, kind, true)
	fast := diffRunOne(t, build, kind, false)

	if fast.res != slow.res {
		t.Errorf("LifetimeResult differs:\nfast: %+v\nslow: %+v", fast.res, slow.res)
	}
	if slow.res.Capped && slow.res.DemandWrites == 0 {
		t.Fatal("slow run served no writes; differential test is vacuous")
	}
	for pp := range slow.wear {
		if fast.wear[pp] != slow.wear[pp] {
			t.Fatalf("wear[%d]: fast %d, slow %d", pp, fast.wear[pp], slow.wear[pp])
		}
		if fast.payload[pp] != slow.payload[pp] {
			t.Fatalf("payload[%d]: fast %d, slow %d", pp, fast.payload[pp], slow.payload[pp])
		}
	}
	if fast.writes != slow.writes || fast.reads != slow.reads {
		t.Errorf("device totals differ: fast %d/%d, slow %d/%d",
			fast.writes, fast.reads, slow.writes, slow.reads)
	}
	if fast.metricsText != slow.metricsText {
		t.Errorf("metrics registry differs:\nfast:\n%s\nslow:\n%s", fast.metricsText, slow.metricsText)
	}
	if fast.traceText != slow.traceText {
		t.Errorf("trace events differ:\nfast:\n%s\nslow:\n%s", fast.traceText, slow.traceText)
	}
}

// TestFastForwardImplementers pins which schemes have the sweep fast path,
// so an accidental interface change fails loudly.
func TestFastForwardImplementers(t *testing.T) {
	for _, name := range wl.Names() {
		dev := wltest.NewDeviceEndurance(t, diffPages, diffEndurance, diffSeed)
		s, err := wl.Default.Build(name, dev, diffSeed)
		if err != nil {
			t.Fatal(err)
		}
		if _, isSweep := s.(wl.SweepWriter); isSweep == sweepless[name] {
			t.Errorf("%s: SweepWriter = %v, want %v", name, isSweep, !sweepless[name])
		}
	}
}

// TestFastForwardDifferential runs every registered scheme against the
// repeat attack, the scan attack, a bursty RLE trace replay, the
// feedback-driven inconsistent attack and a PARSEC workload through both
// the fast paths and the per-request path, and requires bit-identical
// observables (see diffCompare). Every scheme has WriteRun, so only BWL's
// scan cell runs wholly through the bulk loop's per-write branch; the
// inconsistent column additionally proves that deferred feedback delivery
// (sim.FeedbackObserver) keeps the attacker's swap-phase detection — and
// hence every reversal — bit-aligned with the serial stream.
func TestFastForwardDifferential(t *testing.T) {
	for _, name := range wl.Names() {
		for _, kind := range diffKinds {
			t.Run(name+"/"+kind, func(t *testing.T) {
				diffCompare(t, registryFactory(name), kind)
			})
		}
	}
}

// twlFactory builds a hand-configured TWL engine variant.
func twlFactory(cfg func(seed uint64) core.Config) schemeFactory {
	return func(t *testing.T) wl.Scheme {
		t.Helper()
		dev := wltest.NewDeviceEndurance(t, diffPages, diffEndurance, diffSeed)
		e, err := core.New(dev, cfg(diffSeed))
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
}

// twlVariants are hand-configured TWL engines covering the dimensions the
// registry rows don't reach: every pairing under the xorshift alpha source
// (the registry uses Feistel), the toss-up interval at the 7-bit WCT wrap
// (tables.MaxInterval, where the firing condition is the wrap to zero
// rather than the >= interval compare), interval 1 (every write is a
// toss-up — the fast path must absorb nothing), and the inter-pair swap
// disabled and at its most aggressive setting.
var twlVariants = []struct {
	name string
	cfg  func(seed uint64) core.Config
}{
	{"swp_xorshift", func(seed uint64) core.Config {
		c := core.DefaultConfig(seed)
		c.UseFeistel = false
		return c
	}},
	{"ap_xorshift", func(seed uint64) core.Config {
		c := core.DefaultConfig(seed)
		c.Pairing = core.Adjacent
		c.UseFeistel = false
		return c
	}},
	{"rand_xorshift", func(seed uint64) core.Config {
		c := core.DefaultConfig(seed)
		c.Pairing = core.Random
		c.UseFeistel = false
		return c
	}},
	{"interval_wrap128", func(seed uint64) core.Config {
		c := core.DefaultConfig(seed)
		c.TossUpInterval = 128 // == tables.MaxInterval: fires on the WCT wrap to zero
		return c
	}},
	{"interval_1", func(seed uint64) core.Config {
		c := core.DefaultConfig(seed)
		c.TossUpInterval = 1 // every write tosses: absorbed must stay 0
		return c
	}},
	{"ips_disabled", func(seed uint64) core.Config {
		c := core.DefaultConfig(seed)
		c.InterPairSwapInterval = 0
		return c
	}},
	{"ips_1_xorshift", func(seed uint64) core.Config {
		c := core.DefaultConfig(seed)
		c.InterPairSwapInterval = 1 // every write inter-pair swaps
		c.UseFeistel = false
		return c
	}},
}

// TestFastForwardDifferentialTWLVariants extends the matrix across the
// twlVariants configurations.
func TestFastForwardDifferentialTWLVariants(t *testing.T) {
	for _, v := range twlVariants {
		for _, kind := range diffKinds {
			t.Run(v.name+"/"+kind, func(t *testing.T) {
				diffCompare(t, twlFactory(v.cfg), kind)
			})
		}
	}
}

// TestFastForwardDifferentialWRLVariants covers WRL configurations beyond
// the registered default: a short prediction window (events every few dozen
// writes, so event handling dominates), a long running phase, and a partial
// swap cap (the displaced-assignment path in swapPhase).
func TestFastForwardDifferentialWRLVariants(t *testing.T) {
	wrlFactory := func(cfg wrl.Config) schemeFactory {
		return func(t *testing.T) wl.Scheme {
			t.Helper()
			dev := wltest.NewDeviceEndurance(t, diffPages, diffEndurance, diffSeed)
			s, err := wrl.New(dev, cfg)
			if err != nil {
				t.Fatal(err)
			}
			return s
		}
	}
	variants := []struct {
		name string
		cfg  wrl.Config
	}{
		{"short_prediction", wrl.Config{PredictionWrites: 37, RunningMultiplier: 3, MaxSwapFraction: 1.0}},
		{"long_running", wrl.Config{PredictionWrites: 256, RunningMultiplier: 40, MaxSwapFraction: 1.0}},
		{"partial_swap", wrl.Config{PredictionWrites: 128, RunningMultiplier: 5, MaxSwapFraction: 0.25}},
	}
	for _, v := range variants {
		for _, kind := range diffKinds {
			t.Run(v.name+"/"+kind, func(t *testing.T) {
				diffCompare(t, wrlFactory(v.cfg), kind)
			})
		}
	}
}

// TestFastForwardMetrics pins the fast-path diagnostics themselves: a
// fast-forward run of a bulk-writer scheme must report its chunking (every
// absorbed chunk observed in twl_ff_run_length, every event write counted
// in twl_ff_events_total), and the two views must tile the run exactly —
// histogram count × observations + events == demand writes.
func TestFastForwardMetrics(t *testing.T) {
	s := registryFactory("TWL_swp")(t)
	reg := obs.NewRegistry()
	res, err := RunLifetime(s, diffSource(t, "repeat", wl.LogicalPages(s)), LifetimeConfig{
		MaxDemandWrites: 3 * s.Device().TotalEndurance(),
		Metrics:         reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	label := obs.L("scheme", s.Name())
	hist := reg.Histogram("twl_ff_run_length", obs.ExponentialBuckets(1, 4, 11), label).Snapshot()
	events := reg.Counter("twl_ff_events_total", label).Value()
	if hist.Count == 0 {
		t.Fatal("no fast-path chunks observed for TWL_swp under repeat")
	}
	if events == 0 {
		t.Fatal("no event writes counted; the toss-up interval guarantees some")
	}
	if got := uint64(hist.Sum) + events; got != res.DemandWrites {
		t.Errorf("chunked %v + events %d = %d, want demand writes %d",
			hist.Sum, events, got, res.DemandWrites)
	}
}
