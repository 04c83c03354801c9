package twl

import (
	"bytes"
	"io"
	"testing"

	"twl/internal/attack"
	"twl/internal/detect"
	"twl/internal/rng"
	"twl/internal/sim"
	"twl/internal/trace"
	"twl/internal/wl"
)

// Integration tests drive full experiment-scale scenarios across module
// boundaries with the paranoid invariant checker enabled.

// TestIntegrationParanoidLifetimes runs every scheme to first failure under
// a mixed workload with invariants checked throughout.
func TestIntegrationParanoidLifetimes(t *testing.T) {
	sys := SmallSystem(77)
	for _, name := range SchemeNames() {
		t.Run(name, func(t *testing.T) {
			dev, err := sys.NewDevice()
			if err != nil {
				t.Fatal(err)
			}
			s, err := NewScheme(name, dev, 5)
			if err != nil {
				t.Fatal(err)
			}
			b, err := trace.BenchmarkByName("x264")
			if err != nil {
				t.Fatal(err)
			}
			g, err := trace.NewSynthetic(b, sys.Pages, 9)
			if err != nil {
				t.Fatal(err)
			}
			res, err := sim.RunLifetime(s, sim.FromWorkload(g), sim.LifetimeConfig{
				CheckEvery:      50000,
				MaxDemandWrites: 3_000_000,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.DemandWrites == 0 {
				t.Fatal("no writes served")
			}
			// Wear conservation across the whole run.
			if res.DeviceWrites != res.DemandWrites+res.SwapWrites {
				t.Fatalf("wear not conserved: %d != %d + %d",
					res.DeviceWrites, res.DemandWrites, res.SwapWrites)
			}
		})
	}
}

// TestIntegrationDataIntegrityAllSchemes verifies that every scheme
// preserves data across hundreds of thousands of operations interleaved
// with its internal swaps — the end-to-end correctness property behind all
// lifetime numbers.
func TestIntegrationDataIntegrityAllSchemes(t *testing.T) {
	sys := SmallSystem(88)
	sys.MeanEndurance = 1e9 // integrity, not wear-out, is under test
	for _, name := range SchemeNames() {
		t.Run(name, func(t *testing.T) {
			dev, err := sys.NewDevice()
			if err != nil {
				t.Fatal(err)
			}
			s, err := NewScheme(name, dev, 3)
			if err != nil {
				t.Fatal(err)
			}
			logical := wl.LogicalPages(s)
			shadow := make([]uint64, logical)
			written := make([]bool, logical)
			src := rng.NewXorshift(11)
			for i := 0; i < 300000; i++ {
				la := src.Intn(logical)
				if src.Intn(5) == 0 {
					got, _ := s.Read(la)
					if written[la] && got != shadow[la] {
						t.Fatalf("op %d: Read(%d) = %d, want %d", i, la, got, shadow[la])
					}
				} else {
					tag := src.Uint64()
					s.Write(la, tag)
					shadow[la] = tag
					written[la] = true
				}
			}
		})
	}
}

// TestIntegrationWRLVulnerableTWLImmune reproduces the Section 3
// demonstration end-to-end: the same inconsistent attacker (full-space
// targets, as in Figure 3 where the malicious program owns all of memory)
// destroys WRL while TWL retains most of its lifetime.
func TestIntegrationWRLVulnerableTWLImmune(t *testing.T) {
	sys := SmallSystem(99)
	run := func(scheme string) float64 {
		dev, err := sys.NewDevice()
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewScheme(scheme, dev, 7)
		if err != nil {
			t.Fatal(err)
		}
		cfg := attack.DefaultConfig(attack.Inconsistent, sys.Pages, 13)
		cfg.TargetPages = sys.Pages
		st, err := attack.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.RunLifetime(s, sim.FromAttack(st), sim.LifetimeConfig{})
		if err != nil {
			t.Fatal(err)
		}
		return res.Normalized
	}
	wrl := run("WRL")
	twl := run("TWL_swp")
	if twl < 1.5*wrl {
		t.Fatalf("TWL %.3f not clearly above WRL %.3f under the inconsistent attack", twl, wrl)
	}
	if twl < 0.45 {
		t.Fatalf("TWL normalized %.3f; immunity broken", twl)
	}
}

// TestIntegrationDetectorSeesWhatTWLSurvives wires the attack, a scheme and
// the detector together: the detector flags the attack stream while TWL,
// unaware of the alarm, survives it anyway — defense in depth.
func TestIntegrationDetectorSeesWhatTWLSurvives(t *testing.T) {
	sys := SmallSystem(111)
	dev, err := sys.NewDevice()
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewScheme("TWL_swp", dev, 5)
	if err != nil {
		t.Fatal(err)
	}
	d, err := detect.New(detect.DefaultConfig(sys.Pages))
	if err != nil {
		t.Fatal(err)
	}
	st, err := attack.New(attack.DefaultConfig(attack.Inconsistent, sys.Pages, 17))
	if err != nil {
		t.Fatal(err)
	}
	timing := dev.Timing()
	fb := attack.Feedback{}
	for i := 0; i < 1_000_000; i++ {
		la := st.Next(fb)
		d.Observe(la)
		cost := s.Write(la, uint64(i))
		fb = attack.Feedback{Blocked: cost.Blocked, Cycles: cost.Cycles(timing)}
		if _, failed := dev.Failed(); failed {
			t.Fatalf("TWL died after only %d attack writes", i)
		}
	}
	if !d.EverAlarmed() {
		t.Fatal("detector never flagged the inconsistent attack")
	}
}

// TestIntegrationTraceFileRoundTrip generates a synthetic trace as tracegen
// does, round-trips it through the text codec, and requires every record to
// equal the request sim.FromWorkload serves from a generator of the same
// benchmark, pages and seed: what tracegen writes is what a lifetime run
// simulates.
func TestIntegrationTraceFileRoundTrip(t *testing.T) {
	const pages, n = 256, 50000
	b, err := trace.BenchmarkByName("ferret")
	if err != nil {
		t.Fatal(err)
	}
	g, err := trace.NewSynthetic(b, pages, 21)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	if err := g.Generate(n, w.Write); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	g2, err := trace.NewSynthetic(b, pages, 21)
	if err != nil {
		t.Fatal(err)
	}
	src := sim.FromWorkload(g2)
	r := trace.NewReader(&buf)
	for i := 0; i < n; i++ {
		rec, err := r.Read()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		addr, write := src.Next(attack.Feedback{})
		if rec.Addr != uint64(addr) || (rec.Op == trace.Write) != write {
			t.Fatalf("record %d = %c %d, source served addr %d write %v", i, rec.Op, rec.Addr, addr, write)
		}
	}
	if _, err := r.Read(); err != io.EOF {
		t.Fatalf("after %d records: %v, want EOF", n, err)
	}
}

// TestIntegrationCostCyclesConsistency: accumulated cycles reported by the
// lifetime engine must equal the sum of per-request costs under the Table 1
// timing for a deterministic run.
func TestIntegrationCostCyclesConsistency(t *testing.T) {
	sys := SmallSystem(123)
	dev, err := sys.NewDevice()
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewScheme("SR", dev, 3)
	if err != nil {
		t.Fatal(err)
	}
	timing := dev.Timing()
	var manual int64
	var costs []wl.Cost
	// Replay a fixed address pattern manually…
	for i := 0; i < 10000; i++ {
		cost := s.Write(i%sys.Pages, uint64(i))
		costs = append(costs, cost)
		manual += cost.Cycles(timing)
	}
	if manual <= 0 {
		t.Fatal("no cycles accumulated")
	}
	// …and verify each cost decomposes as writes×2000 + reads×250 + extra.
	for i, c := range costs {
		want := int64(c.DeviceWrites)*2000 + int64(c.DeviceReads)*250 + int64(c.ExtraCycles)
		if c.Cycles(timing) != want {
			t.Fatalf("op %d: cycles %d, want %d", i, c.Cycles(timing), want)
		}
	}
}

// TestIntegrationLocalScanVsStartGap: the extension attack — a scan
// confined to a small window — hurts slow-rotation Start-Gap far more than
// a full scan does, while TWL barely notices the difference.
func TestIntegrationLocalScanVsStartGap(t *testing.T) {
	sys := SmallSystem(55)
	run := func(scheme string, local bool) float64 {
		dev, err := sys.NewDevice()
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewScheme(scheme, dev, 3)
		if err != nil {
			t.Fatal(err)
		}
		var st attack.Stream
		if local {
			st, err = attack.NewLocalScan(sys.Pages, 8, 0)
		} else {
			st, err = attack.New(attack.DefaultConfig(attack.Scan, sys.Pages, 1))
		}
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.RunLifetime(s, sim.FromAttack(st), sim.LifetimeConfig{})
		if err != nil {
			t.Fatal(err)
		}
		return res.Normalized
	}
	sgFull := run("StartGap", false)
	sgLocal := run("StartGap", true)
	twlFull := run("TWL_swp", false)
	twlLocal := run("TWL_swp", true)
	if sgLocal > 0.6*sgFull {
		t.Fatalf("local scan barely hurt Start-Gap: %.3f vs %.3f", sgLocal, sgFull)
	}
	if twlLocal < 0.6*twlFull {
		t.Fatalf("local scan hurt TWL too much: %.3f vs %.3f", twlLocal, twlFull)
	}
}

// TestIntegrationReactiveDefenseLagsTWL quantifies the paper's core
// argument against detection-based defenses: the adaptive RBSG (detector +
// targeted relocation) handles the repeat attack well, but the inconsistent
// attack — many moderately-hot addresses, reversing faster than the
// detector's response can chase them — leaves it clearly behind TWL, whose
// protection needs no detection at all.
func TestIntegrationReactiveDefenseLagsTWL(t *testing.T) {
	sys := SmallSystem(222)
	run := func(scheme string, mode AttackMode) float64 {
		dev, err := sys.NewDevice()
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewScheme(scheme, dev, 7)
		if err != nil {
			t.Fatal(err)
		}
		logical := wl.LogicalPages(s)
		st, err := attack.New(attack.DefaultConfig(mode, logical, 13))
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.RunLifetime(s, sim.FromAttack(st), sim.LifetimeConfig{})
		if err != nil {
			t.Fatal(err)
		}
		return res.Normalized
	}
	rbsgRepeat := run("RBSG", AttackRepeat)
	if rbsgRepeat < 0.1 {
		t.Fatalf("adaptive RBSG collapsed under repeat (%.3f); its detector response is broken", rbsgRepeat)
	}
	rbsgInc := run("RBSG", AttackInconsistent)
	twlInc := run("TWL_swp", AttackInconsistent)
	if twlInc <= rbsgInc {
		t.Fatalf("TWL (%.3f) not above the reactive defense (%.3f) under the inconsistent attack",
			twlInc, rbsgInc)
	}
}

// TestIntegrationPhaseChangesAreNotAttacks: a benign program whose working
// set moves between phases must not trip the attack detector (single
// decorrelation events are not the repeated reversals of the inconsistent
// attack), and BWL must re-learn the hot set instead of collapsing.
func TestIntegrationPhaseChangesAreNotAttacks(t *testing.T) {
	const pages = 512
	b, err := trace.BenchmarkByName("canneal")
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDetector(pages)
	if err != nil {
		t.Fatal(err)
	}
	// Phases far apart relative to the detection window: the phase change
	// flags at most one window at a time.
	p, err := trace.NewPhased(b, pages, 200_000, 5)
	if err != nil {
		t.Fatal(err)
	}
	writes := 0
	for writes < 1_000_000 {
		addr, w := p.Next()
		if !w {
			continue
		}
		d.Observe(addr)
		writes++
	}
	if p.Phases() < 3 {
		t.Fatalf("only %d phases exercised", p.Phases())
	}
	if d.EverAlarmed() {
		t.Fatalf("detector false-alarmed on benign phase changes: %+v", d.Stats())
	}

	// Phase changes are mini "inconsistent writes": every boundary turns
	// previously-cold addresses hot, and a prediction-trusting scheme (BWL)
	// grinds weak pages until it re-learns. The damage is per-boundary, so
	// BWL's lifetime must degrade with phase *frequency* — while TWL, which
	// predicts nothing, must not care about phases at all. This is the
	// paper's consistency assumption made measurable on benign workloads.
	sys := SystemConfig{Pages: pages, PageSize: 4096, MeanEndurance: 5000, SigmaFraction: 0.11, Seed: 3}
	lifetime := func(scheme string, phaseWrites int) float64 {
		dev, err := sys.NewDevice()
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewScheme(scheme, dev, 7)
		if err != nil {
			t.Fatal(err)
		}
		var src sim.Source
		if phaseWrites > 0 {
			pg, err := trace.NewPhased(b, pages, phaseWrites, 9)
			if err != nil {
				t.Fatal(err)
			}
			src = phasedSource{pg}
		} else {
			g, err := trace.NewSynthetic(b, pages, 9)
			if err != nil {
				t.Fatal(err)
			}
			src = sim.FromWorkload(g)
		}
		res, err := sim.RunLifetime(s, src, sim.LifetimeConfig{})
		if err != nil {
			t.Fatal(err)
		}
		return res.Normalized
	}
	bwlFrequent := lifetime("BWL", 100_000)
	bwlRare := lifetime("BWL", 800_000)
	if bwlRare <= bwlFrequent {
		t.Fatalf("BWL not improving with rarer phases: %.3f (rare) vs %.3f (frequent)",
			bwlRare, bwlFrequent)
	}
	twlStationary := lifetime("TWL_swp", 0)
	twlPhased := lifetime("TWL_swp", 100_000)
	if twlPhased < 0.75*twlStationary {
		t.Fatalf("TWL affected by phases: %.3f vs stationary %.3f", twlPhased, twlStationary)
	}
}

// phasedSource adapts trace.Phased to sim.Source.
type phasedSource struct{ p *trace.Phased }

func (s phasedSource) Next(attack.Feedback) (int, bool) { return s.p.Next() }
