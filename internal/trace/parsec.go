package trace

import (
	"fmt"
	"math"

	"twl/internal/rng"
)

// Benchmark describes one PARSEC workload as Table 2 characterizes it.
type Benchmark struct {
	Name string
	// WriteBandwidthMBps is the PCM write bandwidth in MB/s (Table 2).
	WriteBandwidthMBps float64
	// IdealLifetimeYears is the lifetime under perfect leveling (Table 2).
	IdealLifetimeYears float64
	// NoWLLifetimeYears is the lifetime with no wear leveling (Table 2).
	NoWLLifetimeYears float64
	// WriteFraction is the fraction of memory requests that are writes;
	// Table 2 does not report it, so a typical PCM-main-memory mix is
	// assumed (reads dominate because the CPU caches absorb most writes,
	// and dirty evictions are about a third of traffic).
	WriteFraction float64
	// FootprintFraction is the fraction of the page space the benchmark
	// ever writes. Real applications touch a working set far smaller than
	// a 32 GB main memory, which matters for pair-based schemes: an active
	// page is usually bonded to an idle one, so the pair's write stream is
	// single-sided (the consistent-traffic regime of the paper's Section
	// 4.2 model). 0 selects the default (0.25).
	FootprintFraction float64
	// GapFactor controls temporal clustering: writes to a page arrive in
	// runs whose length is proportional to the page's write rate, so every
	// page is revisited about every GapFactor × pages writes. Real traces
	// are temporally clustered — a hot 4 KB page absorbs many dirty
	// evictions in a row while its working-set phase lasts, while its
	// inter-visit gap stays bounded — and this clustering is what per-pair
	// mechanisms (TWL's sticky toss-up placement, BWL's hot promotion)
	// exploit. 0 selects the default (8).
	GapFactor int
}

// DefaultGapFactor is the inter-visit gap multiplier when a Benchmark does
// not specify one: every active page is revisited roughly every
// 8 × footprint writes.
const DefaultGapFactor = 8

// DefaultFootprintFraction is the written working-set size as a fraction of
// the page space when a Benchmark does not specify one.
const DefaultFootprintFraction = 0.25

// ConcentrationRatio returns NoWL/Ideal lifetime — the fraction of the
// array's total endurance a no-wear-leveling run extracts before the
// hottest page dies. It is the calibration target for the generator.
func (b Benchmark) ConcentrationRatio() float64 {
	return b.NoWLLifetimeYears / b.IdealLifetimeYears
}

// Footprint returns the number of distinct pages a generator over pages
// logical pages writes: FootprintFraction of them (DefaultFootprintFraction
// when unset), capped at pages.
func (b Benchmark) Footprint(pages int) int {
	frac := b.FootprintFraction
	if frac <= 0 {
		frac = DefaultFootprintFraction
	}
	f := int(frac * float64(pages))
	// The hottest-page share target 1/(r·N) needs the footprint to hold at
	// least r·N pages (a uniform spread over fewer pages would already be
	// more concentrated than the benchmark).
	if least := int(b.ConcentrationRatio()*float64(pages)) + 2; f < least {
		f = least
	}
	return min(f, pages)
}

// PARSEC returns the thirteen benchmarks of Table 2.
func PARSEC() []Benchmark {
	return []Benchmark{
		{Name: "blackscholes", WriteBandwidthMBps: 121, IdealLifetimeYears: 446, NoWLLifetimeYears: 14.5, WriteFraction: 1.0 / 3},
		{Name: "bodytrack", WriteBandwidthMBps: 271, IdealLifetimeYears: 199, NoWLLifetimeYears: 8.0, WriteFraction: 1.0 / 3},
		{Name: "canneal", WriteBandwidthMBps: 319, IdealLifetimeYears: 169, NoWLLifetimeYears: 2.9, WriteFraction: 1.0 / 3},
		{Name: "dedup", WriteBandwidthMBps: 1529, IdealLifetimeYears: 35, NoWLLifetimeYears: 2.5, WriteFraction: 1.0 / 3},
		{Name: "facesim", WriteBandwidthMBps: 1101, IdealLifetimeYears: 49, NoWLLifetimeYears: 3.0, WriteFraction: 1.0 / 3},
		{Name: "ferret", WriteBandwidthMBps: 1025, IdealLifetimeYears: 52, NoWLLifetimeYears: 1.2, WriteFraction: 1.0 / 3},
		{Name: "fluidanimate", WriteBandwidthMBps: 1092, IdealLifetimeYears: 49, NoWLLifetimeYears: 2.0, WriteFraction: 1.0 / 3},
		{Name: "freqmine", WriteBandwidthMBps: 491, IdealLifetimeYears: 110, NoWLLifetimeYears: 6.4, WriteFraction: 1.0 / 3},
		{Name: "rtview", WriteBandwidthMBps: 351, IdealLifetimeYears: 154, NoWLLifetimeYears: 5.4, WriteFraction: 1.0 / 3},
		{Name: "streamcluster", WriteBandwidthMBps: 12, IdealLifetimeYears: 4229, NoWLLifetimeYears: 132.2, WriteFraction: 1.0 / 3},
		{Name: "swaptions", WriteBandwidthMBps: 120, IdealLifetimeYears: 449, NoWLLifetimeYears: 12.8, WriteFraction: 1.0 / 3},
		{Name: "vips", WriteBandwidthMBps: 3309, IdealLifetimeYears: 16, NoWLLifetimeYears: 0.9, WriteFraction: 1.0 / 3},
		{Name: "x264", WriteBandwidthMBps: 538, IdealLifetimeYears: 100, NoWLLifetimeYears: 2.0, WriteFraction: 1.0 / 3},
	}
}

// BenchmarkByName returns the Table 2 entry with the given name.
func BenchmarkByName(name string) (Benchmark, error) {
	for _, b := range PARSEC() {
		if b.Name == name {
			return b, nil
		}
	}
	return Benchmark{}, fmt.Errorf("trace: unknown benchmark %q", name)
}

// Synthetic generates a benchmark's memory-request stream over a given page
// count: writes follow a Zipf distribution whose exponent is solved so the
// hottest page receives a 1/(r·N) share of writes, where r is the
// benchmark's Table 2 concentration ratio — this makes a no-wear-leveling
// run die at the same normalized lifetime the paper reports. Reads follow
// the same locality.
type Synthetic struct {
	bench     Benchmark // snap: construction input
	pages     int       // snap: construction input
	footprint int       // snap: derived at NewSynthetic; active (written) pages
	s         float64   // snap: derived at NewSynthetic; solved Zipf exponent

	cdf  []float64 // snap: derived by buildCDF; cumulative write probability by rank
	perm []int     // snap: derived by buildPerm; rank → logical page (seeded shuffle)
	src  *rng.Xorshift

	// Write-burst state: pages are visited in a fixed round-robin sweep
	// while burst *lengths* are proportional to the page's Zipf weight, so
	// the long-run per-page write share follows the Zipf weights exactly
	// and the Table 2 calibration is unaffected, while every page's
	// inter-visit gap is exactly GapFactor × pages writes — matching the
	// bounded recurrence of real working sets (a hot page is written a lot
	// and often; it does not vanish for arbitrarily long stretches).
	pdf       []float64 // snap: derived by buildCDF; write probability by rank
	visit     int       // next rank in the sweep
	burstPage int
	burstLeft int
	gapWrites float64 // snap: derived at NewSynthetic; GapFactor × pages

	// guide resolves read ranks for Next. It is built on the first read
	// Next serves, so streams consumed through NextWrite never allocate it.
	guide guideTable // snap: derived from cdf on first use
}

// NewSynthetic builds a generator for bench over pages logical pages.
func NewSynthetic(bench Benchmark, pages int, seed uint64) (*Synthetic, error) {
	if pages < 2 {
		return nil, fmt.Errorf("trace: need at least 2 pages, got %d", pages)
	}
	if bench.IdealLifetimeYears <= 0 || bench.NoWLLifetimeYears <= 0 {
		return nil, fmt.Errorf("trace: benchmark %q has non-positive lifetimes", bench.Name)
	}
	if bench.WriteFraction <= 0 || bench.WriteFraction > 1 {
		return nil, fmt.Errorf("trace: benchmark %q WriteFraction %v outside (0,1]",
			bench.Name, bench.WriteFraction)
	}
	r := bench.ConcentrationRatio()
	if r >= 1 {
		return nil, fmt.Errorf("trace: benchmark %q concentration ratio %v >= 1", bench.Name, r)
	}
	g := &Synthetic{bench: bench, pages: pages, src: rng.NewXorshift(seed)}
	if bench.FootprintFraction > 1 {
		return nil, fmt.Errorf("trace: FootprintFraction %v > 1", bench.FootprintFraction)
	}
	g.footprint = bench.Footprint(pages)
	gf := bench.GapFactor
	if gf <= 0 {
		gf = DefaultGapFactor
	}
	g.gapWrites = float64(gf) * float64(g.footprint)
	g.s = solveZipfExponent(g.footprint, r*float64(pages))
	g.buildCDF()
	g.buildPerm(seed)
	return g, nil
}

// Footprint returns the number of distinct pages the generator writes.
func (g *Synthetic) Footprint() int { return g.footprint }

// Exponent returns the solved Zipf exponent (exposed for tests and logs).
func (g *Synthetic) Exponent() float64 { return g.s }

// Benchmark returns the benchmark this generator models.
func (g *Synthetic) Benchmark() Benchmark { return g.bench }

// solveZipfExponent finds s such that the hottest page's write share
// 1/H(f,s) equals 1/target, i.e. H(f, s) = target, over a footprint of f
// pages. H decreases monotonically in s from H(f,0) = f, so a binary search
// suffices; target must be ≤ f (the caller pads the footprint to ensure it).
func solveZipfExponent(f int, target float64) float64 {
	lo, hi := 0.0, 8.0
	for iter := 0; iter < 80; iter++ {
		mid := (lo + hi) / 2
		if harmonic(f, mid) > target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// harmonic computes the generalized harmonic number H(n, s) = Σ 1/i^s.
func harmonic(n int, s float64) float64 {
	sum := 0.0
	for i := 1; i <= n; i++ {
		sum += math.Pow(float64(i), -s)
	}
	return sum
}

// buildCDF precomputes the Zipf pdf and cdf over footprint ranks.
func (g *Synthetic) buildCDF() {
	g.pdf = make([]float64, g.footprint)
	g.cdf = make([]float64, g.footprint)
	sum := 0.0
	for i := 0; i < g.footprint; i++ {
		g.pdf[i] = math.Pow(float64(i+1), -g.s)
		sum += g.pdf[i]
		g.cdf[i] = sum
	}
	for i := range g.cdf {
		g.pdf[i] /= sum
		g.cdf[i] /= sum
	}
}

// buildPerm shuffles the rank → page assignment so hot pages are scattered
// across the address space (as real heaps are), not clustered at address 0.
func (g *Synthetic) buildPerm(seed uint64) {
	g.perm = make([]int, g.pages)
	for i := range g.perm {
		g.perm[i] = i
	}
	src := rng.NewXorshift(seed ^ 0x5DEECE66D)
	for i := g.pages - 1; i > 0; i-- {
		j := src.Intn(i + 1)
		g.perm[i], g.perm[j] = g.perm[j], g.perm[i]
	}
}

// samplePage draws a page according to the Zipf locality.
func (g *Synthetic) samplePage() int {
	if g.guide.start == nil {
		g.guide = newGuideTable(g.cdf)
	}
	rank := g.guide.rank(g.src.Float64())
	if rank >= g.footprint {
		rank = g.footprint - 1
	}
	return g.perm[rank]
}

// Next returns the next request: a logical page and whether it is a write.
// Writes follow the bursty Zipf process; reads sample the same locality
// independently (read placement does not affect wear).
func (g *Synthetic) Next() (addr int, write bool) {
	if g.src.Float64() >= g.bench.WriteFraction {
		return g.samplePage(), false
	}
	return g.burstWrite(), true
}

// NextWrite advances the stream through its next write and returns how many
// reads preceded it and the write's page. Each read consumes the same RNG
// draws as under Next, but its page is never resolved, so a caller that
// does not need read addresses skips the rank lookup. The stream stops
// right after the returned write: the generator's state then equals the
// state a Next caller reaches after the same write, so Snapshot bytes and
// the continuation of either method agree.
//
//twl:hotpath
func (g *Synthetic) NextWrite() (reads, addr int) {
	for g.src.Float64() >= g.bench.WriteFraction {
		g.src.Uint64() // the read's page draw (samplePage's Float64)
		reads++
	}
	return reads, g.burstWrite()
}

// burstWrite serves one write from the burst machine, starting the next
// burst when the current one is spent.
func (g *Synthetic) burstWrite() int {
	for g.burstLeft <= 0 {
		// Round-robin arrival, rate-proportional length (probabilistically
		// rounded so even tail pages keep their exact long-run share).
		rank := g.visit
		g.visit++
		if g.visit >= g.footprint {
			g.visit = 0
		}
		length := g.pdf[rank] * g.gapWrites
		g.burstLeft = int(length)
		if g.src.Float64() < length-float64(int(length)) {
			g.burstLeft++
		}
		g.burstPage = g.perm[rank]
	}
	g.burstLeft--
	return g.burstPage
}

// HottestShare returns the designed write share of the hottest page.
func (g *Synthetic) HottestShare() float64 {
	return 1 / harmonic(g.footprint, g.s)
}

// Generate writes n records to w.
func (g *Synthetic) Generate(n int, emit func(Record) error) error {
	for i := 0; i < n; i++ {
		addr, write := g.Next()
		op := Read
		if write {
			op = Write
		}
		if err := emit(Record{Op: op, Addr: uint64(addr)}); err != nil {
			return err
		}
	}
	return nil
}
