package sim

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"twl/internal/obs"
	"twl/internal/wl"
	"twl/internal/wl/retire"
	"twl/internal/wl/wltest"
)

// Lifetime beyond first failure: these tests drive every registered scheme
// through the retirement decorator and hold the decorated runs to the same
// bit-identity contracts as bare ones — fast-forward vs per-request, and
// kill/resume vs uninterrupted.

// retireSpares is ~3% of diffPages, inside the paper-style 2–5% provisioning
// band.
const retireSpares = 8

// retireStack names the decorated stack in subtest names: the retirement
// decorator as the outer layer over the bare scheme.
const retireStack = "retire_outer"

// buildRetired constructs a registered scheme over a spare-pool device and
// puts the retirement decorator over it.
func buildRetired(t *testing.T, name string) wl.Scheme {
	t.Helper()
	dev := wltest.NewSpareDevice(t, diffPages, retireSpares, diffEndurance, diffSeed)
	s, err := wl.Default.Build(name, dev, diffSeed)
	if err != nil {
		t.Fatal(err)
	}
	if s, err = retire.New(s, retire.Config{}); err != nil {
		t.Fatal(err)
	}
	return s
}

// retireRunOne is diffRunOne for decorated runs: same capture, except wear
// and payload cover the spare region too.
func retireRunOne(t *testing.T, name, kind string, disableFF bool, maxWrites uint64, ckpt *CheckpointConfig) diffRun {
	t.Helper()
	reg := obs.NewRegistry()
	s := buildRetired(t, name)
	dev := s.Device()
	if maxWrites == 0 {
		maxWrites = 3 * dev.TotalEndurance()
	}
	var traceBuf bytes.Buffer
	tr := obs.NewTracer(&traceBuf, 1000)
	res, err := RunLifetime(s, diffSource(t, kind, wl.LogicalPages(s)), LifetimeConfig{
		MaxDemandWrites:    maxWrites,
		CheckEvery:         977,
		Metrics:            reg,
		Trace:              tr,
		DisableFastForward: disableFF,
		Checkpoint:         ckpt,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Err(); err != nil {
		t.Fatal(err)
	}
	out := diffRun{
		res:         res,
		wear:        make([]uint64, dev.TotalPages()),
		payload:     make([]uint64, dev.TotalPages()),
		writes:      dev.TotalWrites(),
		reads:       dev.TotalReads(),
		metricsText: metricsJSON(t, reg),
		traceText:   traceBuf.String(),
	}
	for pp := 0; pp < dev.TotalPages(); pp++ {
		out.wear[pp] = dev.Wear(pp)
		out.payload[pp] = dev.Peek(pp)
	}
	return out
}

// requireRetired fails unless the run actually exercised retirement: it must
// have survived past the first page failure and ended by capacity
// exhaustion, not a bare first death.
func requireRetired(t *testing.T, r diffRun) {
	t.Helper()
	if r.res.RetiredPages == 0 {
		t.Fatal("run retired no pages; decorated differential is vacuous")
	}
	if r.res.Capped {
		t.Fatalf("decorated run capped instead of exhausting the pool: %+v", r.res)
	}
	if r.res.FailCause != wl.ErrCapacityExhausted {
		t.Fatalf("FailCause = %v, want wl.ErrCapacityExhausted", r.res.FailCause)
	}
}

// TestRetireDifferential: every registered scheme under the retirement
// decorator must stay bit-identical between the fast-forward and
// per-request paths while retirements fire mid-run — the capacity curve,
// spare wear, metrics and trace events all land at the same demand counts
// either way.
func TestRetireDifferential(t *testing.T) {
	kinds := []string{"repeat", "scan"}
	if testing.Short() {
		kinds = kinds[:1]
	}
	for _, name := range wl.Names() {
		for _, kind := range kinds {
			t.Run(name+"/"+retireStack+"/"+kind, func(t *testing.T) {
				slow := retireRunOne(t, name, kind, true, 0, nil)
				fast := retireRunOne(t, name, kind, false, 0, nil)
				requireRetired(t, slow)

				if fast.res != slow.res {
					t.Errorf("LifetimeResult differs:\nfast: %+v\nslow: %+v", fast.res, slow.res)
				}
				for pp := range slow.wear {
					if fast.wear[pp] != slow.wear[pp] {
						t.Fatalf("wear[%d]: fast %d, slow %d", pp, fast.wear[pp], slow.wear[pp])
					}
					if fast.payload[pp] != slow.payload[pp] {
						t.Fatalf("payload[%d]: fast %d, slow %d", pp, fast.payload[pp], slow.payload[pp])
					}
				}
				if fast.writes != slow.writes || fast.reads != slow.reads {
					t.Errorf("device totals differ: fast %d/%d, slow %d/%d",
						fast.writes, fast.reads, slow.writes, slow.reads)
				}
				if fast.metricsText != slow.metricsText {
					t.Errorf("metrics registry differs:\nfast:\n%s\nslow:\n%s", fast.metricsText, slow.metricsText)
				}
				if fast.traceText != slow.traceText {
					t.Errorf("trace events differ:\nfast:\n%s\nslow:\n%s", fast.traceText, slow.traceText)
				}
			})
		}
	}
}

// TestRetireLifetimeExtension pins the decorator's payoff: under the repeat
// attack the decorated run serves strictly more demand writes than the bare
// run on the same device, reports its death cause and pool usage in the
// result, exposes a monotone capacity curve, still absorbs bulk chunks, and
// exports the twl_retire_* series.
func TestRetireLifetimeExtension(t *testing.T) {
	bare := diffRunOne(t, func(t *testing.T) wl.Scheme {
		t.Helper()
		dev := wltest.NewSpareDevice(t, diffPages, retireSpares, diffEndurance, diffSeed)
		s, err := wl.Default.Build("TWL_swp", dev, diffSeed)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}, "repeat", false)

	reg := obs.NewRegistry()
	s := buildRetired(t, "TWL_swp")
	res, err := RunLifetime(s, diffSource(t, "repeat", wl.LogicalPages(s)), LifetimeConfig{
		MaxDemandWrites: 3 * s.Device().TotalEndurance(),
		Metrics:         reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.DemandWrites <= bare.res.DemandWrites {
		t.Errorf("retired run served %d demand writes, bare run %d — no lifetime extension",
			res.DemandWrites, bare.res.DemandWrites)
	}
	if res.FailCause != wl.ErrCapacityExhausted || res.SparesUsed != retireSpares || res.SparePages != retireSpares {
		t.Errorf("result does not report exhaustion: %+v", res)
	}
	if res.RetiredPages == 0 || res.RetiredPages > res.SparesUsed {
		t.Errorf("RetiredPages = %d outside (0, SparesUsed=%d]", res.RetiredPages, res.SparesUsed)
	}

	rep, ok := wl.AsCapacityReporter(s)
	if !ok {
		t.Fatal("decorated scheme lost the capacity reporter")
	}
	cs := rep.CapacityStats()
	if len(cs.Curve) != cs.SparesUsed {
		t.Fatalf("curve has %d points for %d spares used", len(cs.Curve), cs.SparesUsed)
	}
	for i, p := range cs.Curve {
		if p.SparesUsed != i+1 {
			t.Fatalf("curve[%d].SparesUsed = %d, want %d", i, p.SparesUsed, i+1)
		}
		if i > 0 && p.DemandWrites < cs.Curve[i-1].DemandWrites {
			t.Fatalf("curve demand writes not monotone at %d: %d < %d", i, p.DemandWrites, cs.Curve[i-1].DemandWrites)
		}
	}
	if last := cs.Curve[len(cs.Curve)-1].DemandWrites; last > res.DemandWrites {
		t.Fatalf("last retirement at %d demand writes, run ended at %d", last, res.DemandWrites)
	}

	// The decorated stack keeps the scheme's bulk path.
	hist := reg.Histogram("twl_ff_run_length", obs.ExponentialBuckets(1, 4, 11), obs.L("scheme", s.Name())).Snapshot()
	if hist.Count == 0 {
		t.Error("retired TWL_swp absorbed no bulk chunks: fast path not taken")
	}
	if got := reg.Gauge("twl_retire_retired_pages").Value(); got != float64(res.RetiredPages) {
		t.Errorf("twl_retire_retired_pages = %v, want %d", got, res.RetiredPages)
	}
	if got := reg.Gauge("twl_retire_capacity_exhausted").Value(); got != 1 {
		t.Errorf("twl_retire_capacity_exhausted = %v, want 1", got)
	}
}

// TestRetireCheckpointResume: a decorated run killed after its first
// retirement (and again one write before its capacity death) must resume
// bit-identically — the decorator's pool bookkeeping and curve ride the
// scheme snapshot through the checkpoint.
func TestRetireCheckpointResume(t *testing.T) {
	schemes := []string{"NOWL", "TWL_swp", "StartGap"}
	if testing.Short() {
		schemes = schemes[:1]
	}
	for _, name := range schemes {
		t.Run(name+"/"+retireStack, func(t *testing.T) {
			baseline := retireRunOne(t, name, "repeat", false, 0, nil)
			requireRetired(t, baseline)
			every := baseline.res.DemandWrites/16 | 1
			// Kill one write short of the capacity death: the last
			// checkpoint sits beyond the first retirement, so the resumed
			// run starts with a partially consumed spare pool.
			for _, killAt := range []uint64{baseline.res.DemandWrites / 2, baseline.res.DemandWrites - 1} {
				path := filepath.Join(t.TempDir(), "run.ckpt")
				killed := retireRunOne(t, name, "repeat", false, killAt, &CheckpointConfig{Path: path, Every: every})
				if !killed.res.Capped {
					t.Fatalf("killed run was not capped at %d: %+v", killAt, killed.res)
				}
				if _, err := os.Stat(path); err != nil {
					t.Fatalf("killed run left no checkpoint: %v", err)
				}
				resumed := retireRunOne(t, name, "repeat", false, 0, &CheckpointConfig{Path: path, Every: every, Resume: true})
				if resumed.res != baseline.res {
					t.Errorf("kill at %d: LifetimeResult differs:\nresumed:  %+v\nbaseline: %+v", killAt, resumed.res, baseline.res)
				}
				for pp := range baseline.wear {
					if resumed.wear[pp] != baseline.wear[pp] || resumed.payload[pp] != baseline.payload[pp] {
						t.Fatalf("kill at %d: device state diverges at page %d", killAt, pp)
					}
				}
				if resumed.metricsText != baseline.metricsText {
					t.Errorf("kill at %d: metrics diverge", killAt)
				}
			}
		})
	}
}

// TestDecoratorStackingSnapshots: for every registered scheme, the
// retirement composite keeps the bare scheme's sweep fast path exactly, and
// a mid-traffic snapshot restores into a fresh composite byte-identically.
func TestDecoratorStackingSnapshots(t *testing.T) {
	for _, name := range wl.Names() {
		t.Run(name+"/"+retireStack, func(t *testing.T) {
			bareDev := wltest.NewSpareDevice(t, 64, 4, 1e9, diffSeed)
			bare, err := wl.Default.Build(name, bareDev, diffSeed)
			if err != nil {
				t.Fatal(err)
			}
			s := buildRetired(t, name)
			_, bareSW := bare.(wl.SweepWriter)
			if _, ok := s.(wl.SweepWriter); ok != bareSW {
				t.Errorf("SweepWriter: composite %v, bare %v", ok, bareSW)
			}
			if _, ok := wl.AsCapacityReporter(s); !ok {
				t.Error("composite hides the capacity reporter")
			}

			n := wl.LogicalPages(s)
			for i := 0; i < 5000; i++ {
				s.Write(i*13%n, uint64(i))
			}
			if err := s.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := s.Snapshot(&buf); err != nil {
				t.Fatal(err)
			}
			s2 := buildRetired(t, name)
			if err := s2.Restore(bytes.NewReader(buf.Bytes())); err != nil {
				t.Fatal(err)
			}
			var buf2 bytes.Buffer
			if err := s2.Snapshot(&buf2); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
				t.Error("snapshot round trip through the decorator stack not byte-identical")
			}
		})
	}
}
