// Package obs is the observability layer of the simulator: a
// concurrency-safe metrics registry (counters, gauges, fixed-bucket
// histograms), a structured run tracer, and text/JSON/Prometheus exporters.
//
// The paper's attacker works by observing the memory system — timing the
// blocked swap phases of Section 3.1 — so the simulator itself should be
// observable too: lifetime runs emit progress events, per-request cost
// distributions survive the run (the Figure 9 raw material), and every
// experiment grid reports its own cell timing and worker utilization.
//
// The package is stdlib-only and imports nothing else from this module, so
// any layer (device, scheme, simulator, experiment runner, CLI) can depend
// on it without cycles. Hot-path operations (Counter.Inc, Histogram.Observe)
// are lock-free after creation; metric creation takes a registry lock and is
// expected at setup time.
package obs

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"sync"
	"sync/atomic"
)

// Label is one key=value dimension of a metric. Metrics with the same name
// but different label sets are distinct time series, as in Prometheus.
type Label struct {
	Key   string
	Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

var (
	nameRe  = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelRe = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// Counter is a monotonically increasing uint64 metric.
type Counter struct {
	v atomic.Uint64
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a float64 metric that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adjusts the gauge by delta.
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		nv := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, nv) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket distribution metric. A bucket with upper
// bound b counts observations v <= b (Prometheus "le" semantics); values
// above the last bound land in the implicit +Inf bucket.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1; last is the +Inf bucket
	count  atomic.Uint64
	sum    Gauge
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// ObserveN records the value v, n times, in one step. For integer-valued
// observations (all cycle latencies are) whose running sum stays below 2^53
// the result is bit-identical to n repeated Observe calls: both the single
// v*n product and the incremental sum are exact in float64.
func (h *Histogram) ObserveN(v float64, n uint64) {
	if n == 0 {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(n)
	h.count.Add(n)
	h.sum.Add(v * float64(n))
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return h.sum.Value() }

// HistogramSnapshot is a point-in-time copy of a histogram.
type HistogramSnapshot struct {
	// Bounds are the bucket upper bounds; Counts[i] is the number of
	// observations v <= Bounds[i] not counted by an earlier bucket.
	// Counts has one extra entry for the +Inf bucket.
	Bounds []float64
	Counts []uint64
	Count  uint64
	Sum    float64
}

// Snapshot copies the histogram state. Concurrent observations may land
// between field reads; each individual bucket is consistent.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: h.bounds,
		Counts: make([]uint64, len(h.counts)),
		Count:  h.count.Load(),
		Sum:    h.sum.Value(),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// AddSnapshot merges a previously captured snapshot into the histogram: each
// bucket count, the total count, and the sum are added. Restoring a
// checkpoint into a freshly created (all-zero) histogram therefore
// reproduces the captured state exactly — for the integer-valued
// observations the simulator records, adding the snapshot's sum to 0.0 is
// bit-exact. The snapshot's bounds must equal the histogram's.
func (h *Histogram) AddSnapshot(s HistogramSnapshot) error {
	if len(s.Bounds) != len(h.bounds) || len(s.Counts) != len(h.counts) {
		return fmt.Errorf("obs: histogram snapshot has %d bounds, histogram has %d", len(s.Bounds), len(h.bounds))
	}
	for i, b := range s.Bounds {
		if b != h.bounds[i] {
			return fmt.Errorf("obs: histogram snapshot bound %d is %g, histogram has %g", i, b, h.bounds[i])
		}
	}
	for i, c := range s.Counts {
		h.counts[i].Add(c)
	}
	h.count.Add(s.Count)
	h.sum.Add(s.Sum)
	return nil
}

// ExponentialBuckets returns n bounds start, start·factor, start·factor², …
func ExponentialBuckets(start, factor float64, n int) []float64 {
	b := make([]float64, n)
	v := start
	for i := range b {
		b[i] = v
		v *= factor
	}
	return b
}

// DefaultLatencyBuckets covers per-request latencies in CPU cycles for the
// Table 1 timing: a bare read is 250 cycles, a write 2000, and swap-blocked
// requests stack several writes, so the range spans one read to many swaps.
func DefaultLatencyBuckets() []float64 {
	return ExponentialBuckets(250, 2, 12) // 250 … 512000 cycles
}

// kind discriminates the metric types inside the registry.
type kind int

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// metric is one registered time series.
type metric struct {
	name   string
	labels []Label // sorted by key
	kind   kind
	help   string

	counter   *Counter
	gauge     *Gauge
	histogram *Histogram
}

// key renders the identity of a series: name plus sorted labels.
func seriesKey(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	k := name + "{"
	for i, l := range labels {
		if i > 0 {
			k += ","
		}
		k += l.Key + "=" + l.Value
	}
	return k + "}"
}

// Registry holds a set of named metrics. The zero value is not usable; call
// NewRegistry. All methods are safe for concurrent use; the returned
// Counter/Gauge/Histogram handles are lock-free.
type Registry struct {
	mu      sync.Mutex
	ordered []*metric          //twl:guardedby mu
	index   map[string]*metric //twl:guardedby mu
	help    map[string]string  //twl:guardedby mu
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{index: map[string]*metric{}, help: map[string]string{}}
}

// Help attaches a help string to a metric name; exporters emit it. Safe to
// call before or after the metric is created.
func (r *Registry) Help(name, text string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.help[name] = text
}

// lookup returns the existing series or creates it via make. It panics on a
// malformed name/label or when the name is already registered with a
// different kind — both are programmer errors, caught at setup time.
func (r *Registry) lookup(name string, labels []Label, k kind, make func() *metric) *metric {
	if !nameRe.MatchString(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	sorted := append([]Label(nil), labels...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Key < sorted[j].Key })
	for _, l := range sorted {
		if !labelRe.MatchString(l.Key) {
			panic(fmt.Sprintf("obs: invalid label key %q on metric %q", l.Key, name))
		}
	}
	key := seriesKey(name, sorted)
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.index[key]; ok {
		if m.kind != k {
			panic(fmt.Sprintf("obs: metric %q registered as %s, requested as %s", key, m.kind, k))
		}
		return m
	}
	m := make()
	m.name = name
	m.labels = sorted
	m.kind = k
	r.index[key] = m
	r.ordered = append(r.ordered, m)
	return m
}

// Counter returns the counter with the given name and labels, creating it on
// first use.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	m := r.lookup(name, labels, kindCounter, func() *metric {
		return &metric{counter: &Counter{}}
	})
	return m.counter
}

// Gauge returns the gauge with the given name and labels, creating it on
// first use.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	m := r.lookup(name, labels, kindGauge, func() *metric {
		return &metric{gauge: &Gauge{}}
	})
	return m.gauge
}

// Histogram returns the histogram with the given name, bounds and labels,
// creating it on first use. Bounds must be strictly increasing and
// non-empty; they are fixed at creation, and later calls for the same series
// ignore the bounds argument.
func (r *Registry) Histogram(name string, bounds []float64, labels ...Label) *Histogram {
	m := r.lookup(name, labels, kindHistogram, func() *metric {
		if len(bounds) == 0 {
			panic(fmt.Sprintf("obs: histogram %q needs at least one bucket bound", name))
		}
		for i := 1; i < len(bounds); i++ {
			if bounds[i] <= bounds[i-1] {
				panic(fmt.Sprintf("obs: histogram %q bounds must be strictly increasing", name))
			}
		}
		b := append([]float64(nil), bounds...)
		return &metric{histogram: &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}}
	})
	return m.histogram
}

// snapshot copies the registered series (in registration order) and help
// texts for the exporters.
func (r *Registry) snapshot() ([]*metric, map[string]string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	ms := append([]*metric(nil), r.ordered...)
	help := make(map[string]string, len(r.help))
	for k, v := range r.help {
		help[k] = v
	}
	return ms, help
}

// Len returns the number of registered series.
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.ordered)
}
