package twl

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (DESIGN.md's experiment index). Each benchmark runs the
// corresponding experiment at SmallSystem scale and attaches the reproduced
// headline values as custom metrics, so
//
//	go test -bench=. -benchmem
//
// prints the same rows/series the paper reports. The cmd/ tools run the
// same experiments at the larger default scale; EXPERIMENTS.md records the
// paper-vs-measured comparison.

import (
	"testing"

	"twl/internal/attack"
	"twl/internal/pcm"
)

// BenchmarkTable1Config regenerates the simulation setup of Table 1 by
// constructing the full configuration and reporting its headline constants.
func BenchmarkTable1Config(b *testing.B) {
	var geom pcm.Geometry
	var timing pcm.Timing
	for i := 0; i < b.N; i++ {
		geom = pcm.DefaultGeometry()
		timing = pcm.DefaultTiming()
		sys := DefaultSystem(1)
		if _, err := sys.NewDevice(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(geom.Capacity()>>30), "PCM-GB")
	b.ReportMetric(float64(geom.PageSize), "page-B")
	b.ReportMetric(float64(timing.SetCycles), "set-cycles")
}

// BenchmarkTable2Benchmarks regenerates Table 2: per-benchmark ideal
// lifetime (computed) and no-wear-leveling lifetime (simulated).
func BenchmarkTable2Benchmarks(b *testing.B) {
	var rows []Table2Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = RunTable2(SmallSystem(1))
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.Benchmark == "vips" {
			b.ReportMetric(r.IdealYears, "vips-ideal-y")
			b.ReportMetric(r.NoWLYears, "vips-nowl-y")
		}
		if r.Benchmark == "streamcluster" {
			b.ReportMetric(r.NoWLYears, "strmcl-nowl-y")
		}
	}
}

// BenchmarkFig6AttackLifetime regenerates Figure 6, one sub-benchmark per
// scheme, reporting the per-attack lifetimes in years.
func BenchmarkFig6AttackLifetime(b *testing.B) {
	for _, scheme := range []string{"BWL", "SR", "TWL_ap", "TWL_swp", "NOWL"} {
		b.Run(scheme, func(b *testing.B) {
			var res *Fig6Result
			for i := 0; i < b.N; i++ {
				var err error
				res, err = RunFig6(SmallSystem(1), Fig6Config{
					Schemes:              []string{scheme},
					Modes:                []AttackMode{AttackRepeat, AttackRandom, AttackScan, AttackInconsistent},
					BandwidthBytesPerSec: Fig6AttackBandwidth,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			for _, m := range res.Modes {
				b.ReportMetric(res.Cells[scheme][m.String()].Years, m.String()+"-y")
			}
			b.ReportMetric(res.Gmean[scheme], "gmean-y")
		})
	}
}

// BenchmarkFig7TossupInterval regenerates Figure 7's two panels across the
// interval sweep, reporting the values at the paper's chosen interval (32).
func BenchmarkFig7TossupInterval(b *testing.B) {
	cfg := Fig7Config{
		Intervals:            []int{1, 2, 4, 8, 16, 32, 64, 128},
		RequestsPerBenchmark: 60000,
		Benchmarks:           []string{"canneal", "vips", "streamcluster"},
		BandwidthBytesPerSec: Fig6AttackBandwidth,
	}
	var pts []Fig7Point
	for i := 0; i < b.N; i++ {
		var err error
		pts, err = RunFig7(SmallSystem(1), cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range pts {
		if p.Interval == 1 {
			b.ReportMetric(p.SwapWriteRatio, "ratio@1")
		}
		if p.Interval == 32 {
			b.ReportMetric(p.SwapWriteRatio, "ratio@32")
			b.ReportMetric(p.ScanLifetimeYears, "scan-y@32")
		}
	}
}

// BenchmarkFig8NormalizedLifetime regenerates Figure 8 on a three-benchmark
// subset, reporting the per-scheme mean normalized lifetimes.
func BenchmarkFig8NormalizedLifetime(b *testing.B) {
	cfg := Fig8Config{
		Schemes:    []string{"BWL", "SR", "TWL_swp", "NOWL"},
		Benchmarks: []string{"canneal", "vips", "streamcluster"},
	}
	var res *Fig8Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = RunFig8(SmallSystem(1), cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, s := range cfg.Schemes {
		b.ReportMetric(res.Mean[s], s+"-norm")
	}
}

// BenchmarkFig9ExecutionTime regenerates Figure 9 on a three-benchmark
// subset, reporting the per-scheme mean overhead in percent.
func BenchmarkFig9ExecutionTime(b *testing.B) {
	cfg := Fig9Config{
		Schemes:    []string{"BWL", "SR", "TWL_swp"},
		Benchmarks: []string{"canneal", "vips", "streamcluster"},
		Requests:   150000,
	}
	var res *Fig9Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = RunFig9(SmallSystem(1), cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, s := range cfg.Schemes {
		b.ReportMetric(100*(res.Mean[s]-1), s+"-ovh-%")
	}
}

// BenchmarkSec54HardwareCost regenerates the Section 5.4 design-overhead
// numbers.
func BenchmarkSec54HardwareCost(b *testing.B) {
	var hc HardwareCostReport
	for i := 0; i < b.N; i++ {
		hc = HardwareCost()
	}
	b.ReportMetric(float64(hc.TotalBits), "bits/page")
	b.ReportMetric(hc.StorageRatio, "storage-ratio")
	b.ReportMetric(float64(hc.Logic.TotalGates), "gates")
}

// BenchmarkAblationPairing compares the three pairing policies under the
// inconsistent attack — the design choice behind "TWL_swp vs TWL_ap"
// (21.7% lifetime improvement in the paper).
func BenchmarkAblationPairing(b *testing.B) {
	for _, scheme := range []string{"TWL_swp", "TWL_ap", "TWL_rand"} {
		b.Run(scheme, func(b *testing.B) {
			var norm float64
			for i := 0; i < b.N; i++ {
				res, err := RunFig6(SmallSystem(1), Fig6Config{
					Schemes:              []string{scheme},
					Modes:                []AttackMode{AttackInconsistent},
					BandwidthBytesPerSec: Fig6AttackBandwidth,
				})
				if err != nil {
					b.Fatal(err)
				}
				norm = res.Cells[scheme]["inconsistent"].Normalized
			}
			b.ReportMetric(norm, "norm-lifetime")
		})
	}
}

// BenchmarkAblationInterPairSwap measures what the inter-pair swap buys:
// without it, a toss-up pair is an island and a concentrated stream
// exhausts one pair instead of spreading across the array.
func BenchmarkAblationInterPairSwap(b *testing.B) {
	for _, tc := range []struct {
		name     string
		interval int
	}{{"on-128", 128}, {"off", 0}} {
		b.Run(tc.name, func(b *testing.B) {
			var norm float64
			for i := 0; i < b.N; i++ {
				sys := SmallSystem(1)
				dev, err := sys.NewDevice()
				if err != nil {
					b.Fatal(err)
				}
				cfg := TWLConfig{
					Pairing: PairStrongWeak, TossUpInterval: 32,
					InterPairSwapInterval: tc.interval, Seed: 5, UseFeistel: true,
				}
				e, err := NewTWL(dev, cfg)
				if err != nil {
					b.Fatal(err)
				}
				src, err := NewAttack(AttackRepeat, sys.Pages, 7)
				if err != nil {
					b.Fatal(err)
				}
				res, err := RunLifetime(e, src)
				if err != nil {
					b.Fatal(err)
				}
				norm = res.Normalized
			}
			b.ReportMetric(norm, "norm-lifetime")
		})
	}
}

// BenchmarkAblationRNG compares the hardware-faithful Feistel RNG against
// xorshift in the toss-up: lifetimes must agree (the 8-bit quantization is
// statistically irrelevant), while the Feistel costs a few more ns.
func BenchmarkAblationRNG(b *testing.B) {
	for _, tc := range []struct {
		name    string
		feistel bool
	}{{"feistel", true}, {"xorshift", false}} {
		b.Run(tc.name, func(b *testing.B) {
			var norm float64
			for i := 0; i < b.N; i++ {
				sys := SmallSystem(1)
				dev, err := sys.NewDevice()
				if err != nil {
					b.Fatal(err)
				}
				cfg := DefaultTWLConfig(5)
				cfg.UseFeistel = tc.feistel
				e, err := NewTWL(dev, cfg)
				if err != nil {
					b.Fatal(err)
				}
				src, err := NewAttack(AttackInconsistent, sys.Pages, 7)
				if err != nil {
					b.Fatal(err)
				}
				res, err := RunLifetime(e, src)
				if err != nil {
					b.Fatal(err)
				}
				norm = res.Normalized
			}
			b.ReportMetric(norm, "norm-lifetime")
		})
	}
}

// BenchmarkAblationETNoise measures how TWL's attack immunity degrades as
// the manufacturer-tested endurance table gets noisy — TWL's placement is
// driven entirely by the ET, so this is its key robustness question.
func BenchmarkAblationETNoise(b *testing.B) {
	for _, tc := range []struct {
		name  string
		sigma float64
	}{{"exact", 0}, {"noise-10pct", 0.10}, {"noise-50pct", 0.50}} {
		b.Run(tc.name, func(b *testing.B) {
			var norm float64
			for i := 0; i < b.N; i++ {
				sys := SmallSystem(1)
				dev, err := sys.NewDevice()
				if err != nil {
					b.Fatal(err)
				}
				cfg := DefaultTWLConfig(5)
				cfg.ETNoiseSigma = tc.sigma
				e, err := NewTWL(dev, cfg)
				if err != nil {
					b.Fatal(err)
				}
				src, err := NewAttack(AttackInconsistent, sys.Pages, 7)
				if err != nil {
					b.Fatal(err)
				}
				res, err := RunLifetime(e, src)
				if err != nil {
					b.Fatal(err)
				}
				norm = res.Normalized
			}
			b.ReportMetric(norm, "norm-lifetime")
		})
	}
}

// BenchmarkExtensionOD3PDegradation measures the graceful-degradation
// extension (reference [1]): demand writes served until 10% of the pages
// have failed, versus the first-failure metric the paper's figures use.
func BenchmarkExtensionOD3PDegradation(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		sys := SmallSystem(1)
		dev, err := sys.NewDevice()
		if err != nil {
			b.Fatal(err)
		}
		s, err := NewScheme("OD3P", dev, 3)
		if err != nil {
			b.Fatal(err)
		}
		src, err := NewWorkload(mustBench(b, "canneal"), sys.Pages, 9)
		if err != nil {
			b.Fatal(err)
		}
		var firstFailure, total uint64
		for total < 50_000_000 {
			addr, write := src.Next(attack.Feedback{})
			if !write {
				continue
			}
			s.Write(addr, total)
			total++
			if _, failed := dev.Failed(); failed && firstFailure == 0 {
				firstFailure = total
			}
			if float64(dev.FailedPages())/float64(sys.Pages) > 0.10 {
				break
			}
		}
		ratio = float64(total) / float64(firstFailure)
	}
	b.ReportMetric(ratio, "writes-past-first-failure-x")
}

func mustBench(b *testing.B, name string) Benchmark {
	bench, err := BenchmarkByName(name)
	if err != nil {
		b.Fatal(err)
	}
	return bench
}
