package wl

import (
	"io"

	"twl/internal/obs"
	"twl/internal/pcm"
	"twl/internal/snap"
)

// Instrument wraps a scheme so that every request it serves is recorded in
// reg: per-operation counters, a blocked-request counter, and a latency
// histogram, all labeled with the scheme name. Every baseline gets metrics
// for free — no scheme needs its own instrumentation code.
//
// The wrapper is built with Wrap, so it keeps the scheme's sweep fast path
// exactly when the scheme has one. The bulk fast paths account absorbed
// writes in the same counters the per-request path uses, so both paths
// report identical metrics, and a checkpoint persists the wrapper's counter
// state ahead of the scheme's, so a resumed run's metrics continue where the
// checkpointed run left off.
func Instrument(s Scheme, reg *obs.Registry) Scheme {
	label := obs.L("scheme", s.Name())
	reg.Help("twl_scheme_requests_total", "logical requests served by the scheme, by op")
	reg.Help("twl_scheme_blocked_total", "requests delayed behind an internal swap phase")
	reg.Help("twl_scheme_request_cycles", "per-request latency in CPU cycles")
	w := &instrumented{
		Scheme:  s,
		timing:  s.Device().Timing(),
		writes:  reg.Counter("twl_scheme_requests_total", label, obs.L("op", "write")),
		reads:   reg.Counter("twl_scheme_requests_total", label, obs.L("op", "read")),
		blocked: reg.Counter("twl_scheme_blocked_total", label),
		latency: reg.Histogram("twl_scheme_request_cycles", obs.DefaultLatencyBuckets(), label),
	}
	return Wrap(w, s)
}

// instrumented decorates a Scheme with metric recording. Wrap exposes its
// WriteSweep only when the wrapped scheme has a sweep fast path, so that
// method may assert on w.Scheme unconditionally.
type instrumented struct {
	Scheme             // snap: wrapped scheme; checkpointed by its own Snapshot call below
	timing  pcm.Timing // snap: construction input
	writes  *obs.Counter
	reads   *obs.Counter
	blocked *obs.Counter
	latency *obs.Histogram
}

func (w *instrumented) Write(la int, tag uint64) Cost {
	cost := w.Scheme.Write(la, tag)
	w.writes.Inc()
	w.record(cost)
	return cost
}

func (w *instrumented) Read(la int) (uint64, Cost) {
	v, cost := w.Scheme.Read(la)
	w.reads.Inc()
	w.record(cost)
	return v, cost
}

// ReadN forwards bulk reads and accounts them as n identical per-request
// reads (ReadN's cost is shared and never blocked).
func (w *instrumented) ReadN(n int) Cost {
	cost := w.Scheme.ReadN(n)
	w.recordBulk(cost, n, w.reads)
	return cost
}

func (w *instrumented) record(cost Cost) {
	if cost.Blocked {
		w.blocked.Inc()
	}
	w.latency.Observe(float64(cost.Cycles(w.timing)))
}

// WriteRun forwards the same-address fast path and accounts the absorbed
// prefix as `absorbed` identical per-request writes. Absorbed writes share
// one unblocked cost by the RunWriter contract, so a single counter add and
// one ObserveN leave the metrics bit-identical to the per-request path.
//
//twl:hotpath
func (w *instrumented) WriteRun(la int, tag uint64, n int) (Cost, int) {
	cost, absorbed := w.Scheme.WriteRun(la, tag, n)
	w.recordBulk(cost, absorbed, w.writes)
	return cost, absorbed
}

// WriteSweep forwards the consecutive-address fast path; accounting matches
// WriteRun.
//
//twl:hotpath
func (w *instrumented) WriteSweep(la int, tag uint64, n int) (Cost, int) {
	cost, absorbed := w.Scheme.(SweepWriter).WriteSweep(la, tag, n)
	w.recordBulk(cost, absorbed, w.writes)
	return cost, absorbed
}

func (w *instrumented) recordBulk(cost Cost, absorbed int, op *obs.Counter) {
	if absorbed <= 0 {
		return
	}
	op.Add(uint64(absorbed))
	w.latency.ObserveN(float64(cost.Cycles(w.timing)), uint64(absorbed))
}

// CheckInvariants forwards paranoid-mode checks to the wrapped scheme.
func (w *instrumented) CheckInvariants() error {
	return w.Scheme.CheckInvariants()
}

// Snapshot persists the wrapper's counter values ahead of the wrapped
// scheme's state. The metric handles live in the caller's registry, which a
// resumed run recreates from scratch; restoring the recorded values keeps
// twl_scheme_* series identical to an uninterrupted run.
func (w *instrumented) Snapshot(out io.Writer) error {
	sw := snap.NewWriter(out)
	sw.Tag("instr")
	sw.U64(w.writes.Value())
	sw.U64(w.reads.Value())
	sw.U64(w.blocked.Value())
	hs := w.latency.Snapshot()
	sw.F64s(hs.Bounds)
	sw.U64s(hs.Counts)
	sw.U64(hs.Count)
	sw.F64(hs.Sum)
	if err := sw.Err(); err != nil {
		return err
	}
	return w.Scheme.Snapshot(out)
}

// Restore loads counter values written by Snapshot into the (freshly
// created, all-zero) metric handles, then restores the wrapped scheme.
func (w *instrumented) Restore(in io.Reader) error {
	sr := snap.NewReader(in)
	sr.Expect("instr")
	w.writes.Add(sr.U64())
	w.reads.Add(sr.U64())
	w.blocked.Add(sr.U64())
	cur := w.latency.Snapshot()
	hs := obs.HistogramSnapshot{
		Bounds: make([]float64, len(cur.Bounds)),
		Counts: make([]uint64, len(cur.Counts)),
	}
	sr.F64sInto(hs.Bounds)
	sr.U64sInto(hs.Counts)
	hs.Count = sr.U64()
	hs.Sum = sr.F64()
	if err := sr.Err(); err != nil {
		return err
	}
	if err := w.latency.AddSnapshot(hs); err != nil {
		return err
	}
	return w.Scheme.Restore(in)
}
