package trace

import (
	"bytes"
	"math"
	"testing"
)

func TestPARSECMatchesTable2(t *testing.T) {
	bs := PARSEC()
	if len(bs) != 13 {
		t.Fatalf("PARSEC has %d benchmarks, Table 2 lists 13", len(bs))
	}
	// Spot-check the extreme rows of Table 2.
	v, err := BenchmarkByName("vips")
	if err != nil {
		t.Fatal(err)
	}
	if v.WriteBandwidthMBps != 3309 || v.IdealLifetimeYears != 16 || v.NoWLLifetimeYears != 0.9 {
		t.Fatalf("vips row mismatch: %+v", v)
	}
	sc, err := BenchmarkByName("streamcluster")
	if err != nil {
		t.Fatal(err)
	}
	if sc.WriteBandwidthMBps != 12 || sc.IdealLifetimeYears != 4229 {
		t.Fatalf("streamcluster row mismatch: %+v", sc)
	}
	if _, err := BenchmarkByName("doom"); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestConcentrationRatios(t *testing.T) {
	for _, b := range PARSEC() {
		r := b.ConcentrationRatio()
		if r <= 0 || r >= 1 {
			t.Errorf("%s: concentration ratio %v outside (0,1)", b.Name, r)
		}
	}
}

func TestSolveZipfExponentMonotonic(t *testing.T) {
	// Lower target (more concentrated) needs a larger exponent.
	n := 4096
	s1 := solveZipfExponent(n, 0.20*float64(n))
	s2 := solveZipfExponent(n, 0.05*float64(n))
	s3 := solveZipfExponent(n, 0.01*float64(n))
	if !(s1 < s2 && s2 < s3) {
		t.Fatalf("exponents not monotonic: %v %v %v", s1, s2, s3)
	}
}

func TestSolveZipfExponentHitsTarget(t *testing.T) {
	n := 2048
	for _, target := range []float64{40.96, 102.4, 614.4} {
		s := solveZipfExponent(n, target)
		if got := harmonic(n, s); math.Abs(got-target)/target > 0.01 {
			t.Fatalf("target=%v: H(n,s)=%v", target, got)
		}
	}
}

func TestSyntheticValidation(t *testing.T) {
	b, _ := BenchmarkByName("vips")
	if _, err := NewSynthetic(b, 1, 1); err == nil {
		t.Error("1-page generator accepted")
	}
	bad := b
	bad.WriteFraction = 0
	if _, err := NewSynthetic(bad, 64, 1); err == nil {
		t.Error("zero write fraction accepted")
	}
	bad = b
	bad.NoWLLifetimeYears = bad.IdealLifetimeYears + 1
	if _, err := NewSynthetic(bad, 64, 1); err == nil {
		t.Error("ratio >= 1 accepted")
	}
}

// TestSyntheticHottestShare: the empirical share of the hottest page matches
// the calibration target 1/(r·N) — the property that makes NOWL die at the
// Table 2 normalized lifetime.
func TestSyntheticHottestShare(t *testing.T) {
	const pages = 1024
	b, _ := BenchmarkByName("canneal") // r = 2.9/169 ≈ 0.0172
	g, err := NewSynthetic(b, pages, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := 1 / (b.ConcentrationRatio() * pages)
	if math.Abs(g.HottestShare()-want)/want > 0.02 {
		t.Fatalf("designed hottest share %v, want %v", g.HottestShare(), want)
	}
	// Empirical check.
	counts := make([]int, pages)
	writes := 0
	const n = 2_000_000
	for i := 0; i < n; i++ {
		addr, w := g.Next()
		if w {
			counts[addr]++
			writes++
		}
	}
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	got := float64(max) / float64(writes)
	if math.Abs(got-want)/want > 0.10 {
		t.Fatalf("empirical hottest share %v, want %v ± 10%%", got, want)
	}
}

func TestSyntheticWriteFraction(t *testing.T) {
	b, _ := BenchmarkByName("ferret")
	g, err := NewSynthetic(b, 256, 5)
	if err != nil {
		t.Fatal(err)
	}
	writes := 0
	const n = 300000
	for i := 0; i < n; i++ {
		if _, w := g.Next(); w {
			writes++
		}
	}
	frac := float64(writes) / n
	if math.Abs(frac-b.WriteFraction) > 0.01 {
		t.Fatalf("write fraction %v, want %v", frac, b.WriteFraction)
	}
}

func TestSyntheticDeterministic(t *testing.T) {
	b, _ := BenchmarkByName("dedup")
	g1, _ := NewSynthetic(b, 128, 9)
	g2, _ := NewSynthetic(b, 128, 9)
	for i := 0; i < 10000; i++ {
		a1, w1 := g1.Next()
		a2, w2 := g2.Next()
		if a1 != a2 || w1 != w2 {
			t.Fatalf("streams diverged at %d", i)
		}
	}
}

func TestSyntheticHotPagesScattered(t *testing.T) {
	b, _ := BenchmarkByName("vips")
	g, err := NewSynthetic(b, 4096, 11)
	if err != nil {
		t.Fatal(err)
	}
	// The top-ranked (hottest) pages must not all sit at low addresses.
	low := 0
	for rank := 0; rank < 32; rank++ {
		if g.perm[rank] < 2048 {
			low++
		}
	}
	if low == 32 || low == 0 {
		t.Fatalf("hot ranks not scattered: %d/32 in lower half", low)
	}
}

func TestGenerateEmitsN(t *testing.T) {
	b, _ := BenchmarkByName("x264")
	g, err := NewSynthetic(b, 64, 13)
	if err != nil {
		t.Fatal(err)
	}
	var recs []Record
	if err := g.Generate(500, func(r Record) error {
		recs = append(recs, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(recs) != 500 {
		t.Fatalf("Generate emitted %d records, want 500", len(recs))
	}
	for _, r := range recs {
		if r.Addr >= 64 {
			t.Fatalf("record address %d out of range", r.Addr)
		}
	}
}

func BenchmarkSyntheticNext(b *testing.B) {
	bench, _ := BenchmarkByName("canneal")
	g, err := NewSynthetic(bench, 1<<14, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Next()
	}
}

// TestNextWriteMatchesNext: NextWrite returns the read count and write page
// the per-request Next stream produces, and leaves the generator in the same
// state (identical Snapshot bytes) after every write, so a stream can switch
// between the two methods at any write boundary.
func TestNextWriteMatchesNext(t *testing.T) {
	for _, b := range PARSEC() {
		batched, err := NewSynthetic(b, 512, 5)
		if err != nil {
			t.Fatal(err)
		}
		serial, err := NewSynthetic(b, 512, 5)
		if err != nil {
			t.Fatal(err)
		}
		var sb, ss bytes.Buffer
		for w := 0; w < 20000; w++ {
			reads, addr := batched.NextWrite()
			n := 0
			for {
				a, write := serial.Next()
				if write {
					if a != addr || n != reads {
						t.Fatalf("%s write %d: NextWrite (%d reads, page %d), Next (%d reads, page %d)",
							b.Name, w, reads, addr, n, a)
					}
					break
				}
				n++
			}
			if w%1000 != 0 {
				continue
			}
			sb.Reset()
			ss.Reset()
			if err := batched.Snapshot(&sb); err != nil {
				t.Fatal(err)
			}
			if err := serial.Snapshot(&ss); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(sb.Bytes(), ss.Bytes()) {
				t.Fatalf("%s write %d: snapshots differ", b.Name, w)
			}
		}
	}
}
