package sim

import (
	"testing"

	"twl/internal/attack"
	"twl/internal/trace"
	"twl/internal/wl"
	"twl/internal/wl/wltest"
)

// benchSchemes are the fast-forward (RunWriter/SweepWriter) schemes; the
// benchmark compares each against its own per-request baseline.
var benchSchemes = []string{"NOWL", "StartGap", "SR", "SR2", "BWL", "TWL_swp", "TWL_ap", "TWL_rand", "WRL"}

// benchLifetime times full lifetime runs (to first page failure) at the
// SmallSystem scale: 512 pages, mean endurance 5000, σ = 11%. newSource
// builds the request stream over the scheme's demand-addressable pages.
func benchLifetime(b *testing.B, scheme string, newSource func(pages int) (Source, error), disableFF bool) {
	b.Helper()
	var writes uint64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dev := wltest.NewDeviceEndurance(b, 512, 5000, 1)
		s, err := wl.Default.Build(scheme, dev, 1)
		if err != nil {
			b.Fatal(err)
		}
		src, err := newSource(wl.LogicalPages(s))
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		res, err := RunLifetime(s, src, LifetimeConfig{DisableFastForward: disableFF})
		if err != nil {
			b.Fatal(err)
		}
		writes += res.DemandWrites
	}
	b.ReportMetric(float64(writes)/float64(b.N), "writes/op")
}

// BenchmarkFastForward is the hot-loop benchmark pair behind BENCH_PR2.json
// (cmd/benchff regenerates the committed numbers): each scheme × attack runs
// once through the fast-forward path and once pinned to the per-request
// path. The parsec rows do the same for the canneal workload, whose fast
// path is writeLoop's batched reads. `make check` runs this with
// -benchtime=1x as a smoke test.
func BenchmarkFastForward(b *testing.B) {
	for _, mode := range []attack.Mode{attack.Repeat, attack.Scan} {
		attackSource := func(pages int) (Source, error) {
			st, err := attack.New(attack.DefaultConfig(mode, pages, 1))
			if err != nil {
				return nil, err
			}
			return FromAttack(st), nil
		}
		for _, scheme := range benchSchemes {
			b.Run(mode.String()+"/"+scheme+"/fast", func(b *testing.B) {
				benchLifetime(b, scheme, attackSource, false)
			})
			b.Run(mode.String()+"/"+scheme+"/perwrite", func(b *testing.B) {
				benchLifetime(b, scheme, attackSource, true)
			})
		}
	}
	canneal := func(pages int) (Source, error) {
		bench, err := trace.BenchmarkByName("canneal")
		if err != nil {
			return nil, err
		}
		g, err := trace.NewSynthetic(bench, pages, 1)
		if err != nil {
			return nil, err
		}
		return FromWorkload(g), nil
	}
	for _, scheme := range benchSchemes {
		b.Run("parsec/"+scheme+"/fast", func(b *testing.B) {
			benchLifetime(b, scheme, canneal, false)
		})
		b.Run("parsec/"+scheme+"/perwrite", func(b *testing.B) {
			benchLifetime(b, scheme, canneal, true)
		})
	}
}
