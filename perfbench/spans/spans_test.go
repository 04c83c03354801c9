package spans

import (
	"testing"

	"twl"
	"twl/internal/attack"
	"twl/internal/sim"
	"twl/internal/wl"
)

// fakeSource implements Next; the embedding types below add capabilities.
type fakeSource struct{ calls int }

func (f *fakeSource) Next(attack.Feedback) (int, bool) { f.calls++; return 0, true }

type runSrc struct{ *fakeSource }

func (runSrc) NextRun(attack.Feedback) (int, bool, int) { return 0, true, 4 }

type sweepSrc struct{ *fakeSource }

func (sweepSrc) NextSweep(attack.Feedback) (int, bool, int) { return 0, true, 4 }

type obsSrc struct{ *fakeSource }

func (obsSrc) Observe(attack.Feedback, int) {}

type runObsSrc struct{ *fakeSource }

func (runObsSrc) NextRun(attack.Feedback) (int, bool, int) { return 0, true, 4 }
func (runObsSrc) Observe(attack.Feedback, int)             {}

type sweepObsSrc struct{ *fakeSource }

func (sweepObsSrc) NextSweep(attack.Feedback) (int, bool, int) { return 0, true, 4 }
func (sweepObsSrc) Observe(attack.Feedback, int)               {}

type runSweepSrc struct{ *fakeSource }

func (runSweepSrc) NextRun(attack.Feedback) (int, bool, int)   { return 0, true, 4 }
func (runSweepSrc) NextSweep(attack.Feedback) (int, bool, int) { return 0, true, 4 }

type allSrc struct{ *fakeSource }

func (allSrc) NextRun(attack.Feedback) (int, bool, int)   { return 0, true, 4 }
func (allSrc) NextSweep(attack.Feedback) (int, bool, int) { return 0, true, 4 }
func (allSrc) Observe(attack.Feedback, int)               {}

func caps(s sim.Source) (run, sweep, obs bool) {
	_, run = s.(sim.RunSource)
	_, sweep = s.(sim.SweepSource)
	_, obs = s.(sim.FeedbackObserver)
	return
}

func TestWrapSourceKeepsExactlyItsCapabilities(t *testing.T) {
	f := &fakeSource{}
	for _, src := range []sim.Source{
		f, runSrc{f}, sweepSrc{f}, obsSrc{f}, runObsSrc{f}, sweepObsSrc{f}, runSweepSrc{f}, allSrc{f},
	} {
		w, sp := WrapSource(src)
		wr, ws, wo := caps(w)
		r, s, o := caps(src)
		if wr != r || ws != s || wo != o {
			t.Errorf("%T: wrapper capabilities run=%v sweep=%v observe=%v, want %v %v %v",
				src, wr, ws, wo, r, s, o)
		}
		calls := f.calls
		w.Next(attack.Feedback{})
		if rs, ok := w.(sim.RunSource); ok {
			if _, _, n := rs.NextRun(attack.Feedback{}); n != 4 {
				t.Errorf("%T: NextRun not forwarded", src)
			}
		}
		if ss, ok := w.(sim.SweepSource); ok {
			ss.NextSweep(attack.Feedback{})
		}
		if ob, ok := w.(sim.FeedbackObserver); ok {
			ob.Observe(attack.Feedback{}, 1)
		}
		want := uint64(1)
		for _, c := range []bool{r, s, o} {
			if c {
				want++
			}
		}
		if f.calls != calls+1 || sp.Calls != want {
			t.Errorf("%T: inner Next calls %d, spans %+v; want 1 Next and %d spans",
				src, f.calls-calls, *sp, want)
		}
	}
}

func TestSpanSamplesAndEstimates(t *testing.T) {
	var s Span
	const calls = 32000
	for i := 0; i < calls; i++ {
		if s.sample() {
			s.Timed++
			s.Ns += 100
		}
	}
	if s.Calls != calls {
		t.Fatalf("%d calls counted, want %d", s.Calls, calls)
	}
	if want := uint64(calls / sampleEvery); s.Timed < want*8/10 || s.Timed > want*12/10 {
		t.Errorf("%d of %d calls timed, want about %d", s.Timed, calls, want)
	}
	if est := s.Estimate(); est != calls*100 {
		t.Errorf("estimate %d ns, want %d calls x 100 ns", est, calls)
	}
	if (Span{Calls: 5}).Estimate() != 0 {
		t.Error("a span with no timed call estimates non-zero time")
	}
}

func tinySystem(seed uint64) twl.SystemConfig {
	sys := twl.SmallSystem(seed)
	sys.Pages, sys.MeanEndurance = 64, 640
	return sys
}

// A traced cell reproduces the facade's result, keeps the scheme's bulk
// fast path, and absorbs exactly the writes an unwrapped run absorbs.
func TestTracedCellsMatchTheFacade(t *testing.T) {
	for _, mode := range twl.AttackModes() {
		for _, scheme := range []string{"TWL_swp", "SR", "StartGap"} {
			sys := tinySystem(5)
			reg := twl.NewMetrics()
			want, err := twl.RunAttackCell(sys, scheme, mode, twl.LifetimeConfig{Metrics: reg})
			if err != nil {
				t.Fatal(err)
			}
			refAbsorbed, _ := FastForward(reg, want.Scheme)

			cell, err := AttackCell(sys, scheme, mode)
			if err != nil {
				t.Fatal(err)
			}
			_, run := cell.Scheme.(wl.RunWriter)
			ws, _ := WrapScheme(cell.Scheme)
			if _, wrun := ws.(wl.RunWriter); wrun != run {
				t.Errorf("%s: wrapped RunWriter=%v, scheme %v", scheme, wrun, run)
			}
			got, err := RunCell(cell, twl.NewMetrics())
			if err != nil {
				t.Fatal(err)
			}
			if got.Result != want {
				t.Errorf("%s/%s: traced %+v, facade %+v", scheme, mode, got.Result, want)
			}
			if got.Scheme.Absorbed != refAbsorbed {
				t.Errorf("%s/%s: traced run absorbed %d, unwrapped %d", scheme, mode, got.Scheme.Absorbed, refAbsorbed)
			}
			if got.Scheme.Calls == 0 || got.Source.Calls == 0 || got.Ns <= 0 {
				t.Errorf("%s/%s: empty spans %+v", scheme, mode, got)
			}
		}
	}
}

func TestTracedBenchCellMatchesTheFacade(t *testing.T) {
	sys := tinySystem(2)
	want, err := twl.RunBenchCell(sys, "TWL_swp", "vips", twl.LifetimeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	cell, err := BenchCell(sys, "TWL_swp", "vips")
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunCell(cell, twl.NewMetrics())
	if err != nil {
		t.Fatal(err)
	}
	if got.Result != want {
		t.Errorf("traced %+v, facade %+v", got.Result, want)
	}
	// Every request of a benchmark source is one Next call and one scheme
	// call: no bulk path.
	if got.Scheme.Absorbed != 0 || got.Source.Calls != want.DemandWrites+want.DemandReads {
		t.Errorf("spans %+v for %d writes and %d reads", got, want.DemandWrites, want.DemandReads)
	}
}
