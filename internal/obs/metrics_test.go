package obs

import (
	"math"
	"sync"
	"testing"
)

func TestCounterConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_total")
	const goroutines, per = 16, 10000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != goroutines*per {
		t.Fatalf("counter = %d, want %d", got, goroutines*per)
	}
}

func TestGaugeSetAdd(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("test_gauge")
	g.Set(1.5)
	g.Add(2.25)
	if got := g.Value(); got != 3.75 {
		t.Fatalf("gauge = %v, want 3.75", got)
	}
	g.Add(-10)
	if got := g.Value(); got != -6.25 {
		t.Fatalf("gauge = %v, want -6.25", got)
	}
}

func TestGaugeConcurrentAdd(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("test_gauge")
	const goroutines, per = 8, 1000
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < per; j++ {
				g.Add(1)
			}
		}()
	}
	wg.Wait()
	if got := g.Value(); got != goroutines*per {
		t.Fatalf("gauge = %v, want %d", got, goroutines*per)
	}
}

// TestHistogramBucketBoundaries pins the le semantics: a value equal to a
// bound lands in that bound's bucket, a value above every bound lands in
// +Inf.
func TestHistogramBucketBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_hist", []float64{10, 20, 40})
	for _, v := range []float64{0, 10, 10.0001, 20, 39.9, 40, 40.5, 1e9} {
		h.Observe(v)
	}
	s := h.Snapshot()
	want := []uint64{2, 2, 2, 2} // {0,10}, {10.0001,20}, {39.9,40}, {40.5,1e9}
	if len(s.Counts) != len(want) {
		t.Fatalf("bucket count %d, want %d", len(s.Counts), len(want))
	}
	for i, c := range s.Counts {
		if c != want[i] {
			t.Fatalf("bucket %d = %d, want %d (counts %v)", i, c, want[i], s.Counts)
		}
	}
	if s.Count != 8 {
		t.Fatalf("count = %d, want 8", s.Count)
	}
	wantSum := 0 + 10 + 10.0001 + 20 + 39.9 + 40 + 40.5 + 1e9
	if math.Abs(s.Sum-wantSum) > 1e-6 {
		t.Fatalf("sum = %v, want %v", s.Sum, wantSum)
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_hist", ExponentialBuckets(1, 2, 8))
	const goroutines, per = 8, 5000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(float64(g*per+i) / 100)
			}
		}()
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != goroutines*per {
		t.Fatalf("count = %d, want %d", s.Count, goroutines*per)
	}
	var total uint64
	for _, c := range s.Counts {
		total += c
	}
	if total != s.Count {
		t.Fatalf("bucket total %d != count %d", total, s.Count)
	}
}

func TestRegistryGetOrCreateIdentity(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("same", L("x", "1"))
	b := r.Counter("same", L("x", "1"))
	if a != b {
		t.Fatal("same name+labels returned distinct counters")
	}
	c := r.Counter("same", L("x", "2"))
	if a == c {
		t.Fatal("different labels returned the same counter")
	}
	if r.Len() != 2 {
		t.Fatalf("Len = %d, want 2", r.Len())
	}
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("dual")
	defer func() {
		if recover() == nil {
			t.Fatal("kind mismatch did not panic")
		}
	}()
	r.Gauge("dual")
}

func TestRegistryInvalidNamePanics(t *testing.T) {
	r := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Fatal("invalid name did not panic")
		}
	}()
	r.Counter("bad name with spaces")
}

func TestBucketHelpers(t *testing.T) {
	exp := ExponentialBuckets(250, 2, 4)
	if exp[0] != 250 || exp[3] != 2000 {
		t.Fatalf("ExponentialBuckets = %v", exp)
	}
	def := DefaultLatencyBuckets()
	for i := 1; i < len(def); i++ {
		if def[i] <= def[i-1] {
			t.Fatalf("DefaultLatencyBuckets not increasing: %v", def)
		}
	}
}
