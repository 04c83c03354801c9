package trace

import (
	"math"
	"sort"
	"testing"

	"twl/internal/rng"
)

// checkRank requires the guide table to return exactly the rank the binary
// search it replaces returns.
func checkRank(t *testing.T, g guideTable, u float64) {
	t.Helper()
	if got, want := g.rank(u), sort.SearchFloat64s(g.cdf, u); got != want {
		t.Fatalf("rank(%v) = %d, sort.SearchFloat64s = %d (len %d)", u, got, want, len(g.cdf))
	}
}

// checkEdges probes u at, just below and just above x (u >= 0 only).
func checkEdges(t *testing.T, g guideTable, x float64) {
	t.Helper()
	for _, u := range []float64{math.Nextafter(x, -1), x, math.Nextafter(x, 2)} {
		if u >= 0 {
			checkRank(t, g, u)
		}
	}
}

// TestGuideTableMatchesBinarySearch: over every PARSEC benchmark's Zipf cdf
// at three page counts, the guide table maps 10^6 seeded draws, every
// bucket edge, every cdf entry and their float64 neighbours (including u
// just above cdf[last]) to the rank sort.SearchFloat64s returns — so the
// per-request stream picks the same page for every draw.
func TestGuideTableMatchesBinarySearch(t *testing.T) {
	pageCounts := []int{512, 2048, 16384}
	benches := PARSEC()
	draws := 1_000_000 / (len(pageCounts) * len(benches))
	for _, b := range benches {
		for _, pages := range pageCounts {
			g, err := NewSynthetic(b, pages, 1)
			if err != nil {
				t.Fatal(err)
			}
			tbl := newGuideTable(g.cdf)
			for e := 0; e <= len(tbl.start); e++ {
				checkEdges(t, tbl, float64(e)/float64(len(tbl.start)))
			}
			for _, c := range g.cdf {
				checkEdges(t, tbl, c)
			}
			r := rng.NewXorshift(uint64(pages) ^ uint64(len(b.Name)))
			for i := 0; i < draws; i++ {
				checkRank(t, tbl, r.Float64())
			}
		}
	}
}

// FuzzSampleRank drives the guide table over arbitrary nondecreasing cdfs:
// weights (zeros give runs of equal entries) and a slack mass that keeps
// cdf[last] below 1, so draws can exceed every entry.
func FuzzSampleRank(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4}, uint8(0), uint64(0))
	f.Add([]byte{200, 0, 0, 1, 0, 7}, uint8(9), uint64(1<<63))
	f.Add([]byte{0, 0, 0}, uint8(1), ^uint64(0))
	f.Fuzz(func(t *testing.T, weights []byte, slack uint8, bits uint64) {
		if len(weights) == 0 {
			return
		}
		total := float64(slack)
		for _, w := range weights {
			total += float64(w)
		}
		if total == 0 {
			return
		}
		cdf := make([]float64, len(weights))
		sum := 0.0
		for i, w := range weights {
			sum += float64(w)
			cdf[i] = sum / total
		}
		tbl := newGuideTable(cdf)
		checkRank(t, tbl, float64(bits>>11)/(1<<53))
		checkEdges(t, tbl, cdf[bits%uint64(len(cdf))])
		checkEdges(t, tbl, float64(bits%uint64(len(tbl.start)+1))/float64(len(tbl.start)))
	})
}
