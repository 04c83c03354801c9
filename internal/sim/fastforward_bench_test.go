package sim

import (
	"testing"

	"twl/internal/schemes"
	"twl/internal/wl"
	"twl/internal/wl/wltest"
)

// benchKinds are the source kinds BenchmarkFastForward times: repeat and
// inconsistent drive bulkLoop's run path, scan its sweep path, and parsec
// (canneal) writeLoop's same-page bursts. The random attack has no run
// structure for a fast path to absorb.
var benchKinds = []string{"repeat", "scan", "inconsistent", "parsec"}

// benchLifetime times full lifetime runs (to first page failure) at the
// SmallSystem scale (512 pages, mean endurance 5000, σ = 11%), with the
// differential tests' seed and sources: diffSource builds the stream over
// the scheme's demand-addressable pages.
func benchLifetime(b *testing.B, scheme, kind string, disableFF bool) {
	b.Helper()
	var writes uint64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dev := wltest.NewDeviceEndurance(b, 512, 5000, diffSeed)
		s, err := schemes.Build(scheme, dev, diffSeed)
		if err != nil {
			b.Fatal(err)
		}
		src := diffSource(b, kind, wl.LogicalPages(s))
		b.StartTimer()
		res, err := RunLifetime(s, src, LifetimeConfig{DisableFastForward: disableFF})
		if err != nil {
			b.Fatal(err)
		}
		writes += res.DemandWrites
	}
	b.ReportMetric(float64(writes)/float64(b.N), "writes/op")
}

// BenchmarkFastForward times every scheme of the table under each benchKinds
// source twice: once through the fast paths (bulkLoop, writeLoop) and once
// pinned to the per-request loop. Both rows of a pair serve the same
// writes (TestFastForwardDifferential pins that), so the ratio of their
// ns/op is the fast paths' speedup. `make bench` runs it with -count 5 and
// writes no file; `make check` runs it with -benchtime=1x as a smoke test
// over every cell.
func BenchmarkFastForward(b *testing.B) {
	for _, kind := range benchKinds {
		for _, scheme := range schemes.Names() {
			b.Run(kind+"/"+scheme+"/fast", func(b *testing.B) {
				benchLifetime(b, scheme, kind, false)
			})
			b.Run(kind+"/"+scheme+"/perwrite", func(b *testing.B) {
				benchLifetime(b, scheme, kind, true)
			})
		}
	}
}
