package sim

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"twl/internal/obs"
	"twl/internal/schemes"
	"twl/internal/snap"
	"twl/internal/wl"
	"twl/internal/wl/wltest"
)

// The checkpoint/resume contract: a run that is killed at an arbitrary
// point and resumed from its last checkpoint must be indistinguishable from
// a run that was never interrupted — same LifetimeResult, same per-page
// wear and payload, same device totals, same metrics (minus the excluded
// fast-path/checkpoint diagnostics), and a trace stream whose resumed tail
// matches the baseline's byte for byte. The tests below enforce that for
// every scheme of the table against every differential source kind, with
// kills placed mid-fast-forward and one write before the page failure.

// ckptCadence is deliberately prime and unaligned with the trace cadence
// (1000) and check cadence (977), so checkpoints land mid-source-run on the
// fast path — the pending-run state must survive the round trip.
const ckptCadence = 4099

// ckptRunOne is diffRunOne with a demand cap and a checkpoint config.
func ckptRunOne(t *testing.T, build schemeFactory, kind string, disableFF bool, maxWrites uint64, ckpt *CheckpointConfig) diffRun {
	t.Helper()
	s := build(t)
	dev := s.Device()
	if maxWrites == 0 {
		maxWrites = 3 * dev.TotalEndurance()
	}
	reg := obs.NewRegistry()
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
		wear:        make([]uint64, dev.Pages()),
		payload:     make([]uint64, dev.Pages()),
		writes:      dev.TotalWrites(),
		reads:       dev.TotalReads(),
		metricsText: metricsJSON(t, reg),
		traceText:   traceBuf.String(),
	}
	for pp := 0; pp < dev.Pages(); pp++ {
		out.wear[pp] = dev.Wear(pp)
		out.payload[pp] = dev.Peek(pp)
	}
	return out
}

// ckptCompare kills a run at killAt demand writes (leaving its last
// checkpoint on disk), resumes it into a freshly constructed system, and
// requires the resumed run to match the uninterrupted baseline exactly.
// killFF and resumeFF pick each leg's loop (DisableFastForward), so a
// checkpoint can be resumed on the loop that did not write it.
func ckptCompare(t *testing.T, build schemeFactory, kind string, killFF, resumeFF bool, baseline diffRun, killAt, every uint64) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "run.ckpt")
	killed := ckptRunOne(t, build, kind, killFF, killAt, &CheckpointConfig{Path: path, Every: every})
	if !killed.res.Capped {
		t.Fatalf("killed run was not capped at %d (res %+v)", killAt, killed.res)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("killed run left no checkpoint: %v", err)
	}
	resumed := ckptRunOne(t, build, kind, resumeFF, 0, &CheckpointConfig{Path: path, Every: every, Resume: true})

	if resumed.res != baseline.res {
		t.Errorf("LifetimeResult differs:\nresumed:  %+v\nbaseline: %+v", resumed.res, baseline.res)
	}
	for pp := range baseline.wear {
		if resumed.wear[pp] != baseline.wear[pp] {
			t.Fatalf("wear[%d]: resumed %d, baseline %d", pp, resumed.wear[pp], baseline.wear[pp])
		}
		if resumed.payload[pp] != baseline.payload[pp] {
			t.Fatalf("payload[%d]: resumed %d, baseline %d", pp, resumed.payload[pp], baseline.payload[pp])
		}
	}
	if resumed.writes != baseline.writes || resumed.reads != baseline.reads {
		t.Errorf("device totals differ: resumed %d/%d, baseline %d/%d",
			resumed.writes, resumed.reads, baseline.writes, baseline.reads)
	}
	if resumed.metricsText != baseline.metricsText {
		t.Errorf("metrics differ:\nresumed:\n%s\nbaseline:\n%s", resumed.metricsText, baseline.metricsText)
	}
	// The resumed tracer continues the interrupted stream: its events must
	// be the exact tail of the uninterrupted baseline's stream.
	if resumed.traceText == "" {
		t.Fatal("resumed run emitted no trace events (the end event alone is guaranteed)")
	}
	if !strings.HasSuffix(baseline.traceText, resumed.traceText) {
		t.Errorf("resumed trace is not a tail of the baseline trace:\nresumed:\n%s\nbaseline:\n%s",
			resumed.traceText, baseline.traceText)
	}
}

// TestCheckpointResumeDifferential sweeps every scheme of the table against
// the differential source kinds, killing each run both mid-lifetime
// (mid-fast-forward for bulk-writer schemes: the cadence is unaligned, so
// checkpoints capture partially consumed source runs — under the
// inconsistent attack that includes the stream's deferred-feedback debt)
// and one demand write before the page failure.
func TestCheckpointResumeDifferential(t *testing.T) {
	kinds := diffKinds
	if testing.Short() {
		kinds = kinds[:1]
	}
	for _, name := range schemes.Names() {
		for _, kind := range kinds {
			t.Run(name+"/"+kind, func(t *testing.T) {
				build := tableFactory(name)
				baseline := ckptRunOne(t, build, kind, false, 0, nil)
				// An odd cadence scaled to the run keeps roughly a dozen
				// checkpoints per killed run while staying unaligned with
				// the trace (1000) and check (977) cadences.
				every := baseline.res.DemandWrites/16 | 1
				if baseline.res.DemandWrites/2 <= every {
					t.Fatalf("baseline too short (%d writes) to place a meaningful kill", baseline.res.DemandWrites)
				}
				// Mid-run kill: the last checkpoint precedes it by up to a
				// full cadence, so the resume replays a partial interval.
				ckptCompare(t, build, kind, false, false, baseline, baseline.res.DemandWrites/2, every)
				// Kill one write before the failure: the resume must carry
				// the run over the failure edge.
				if !baseline.res.Capped {
					ckptCompare(t, build, kind, false, false, baseline, baseline.res.DemandWrites-1, every)
				}
			})
		}
	}
}

// TestCheckpointResumePerRequestPath pins the same contract on the
// per-request loop (fast-forward disabled), which uses a different
// checkpoint call site and no pending-run state.
func TestCheckpointResumePerRequestPath(t *testing.T) {
	for _, name := range []string{"TWL_swp", "StartGap", "WRL"} {
		t.Run(name, func(t *testing.T) {
			build := tableFactory(name)
			baseline := ckptRunOne(t, build, "repeat", true, 0, nil)
			every := baseline.res.DemandWrites/16 | 1
			ckptCompare(t, build, "repeat", true, true, baseline, baseline.res.DemandWrites/2, every)
		})
	}
}

// TestCheckpointResumeAcrossPaths kills a PARSEC run on the per-request loop
// and resumes it on writeLoop, and the reverse. Both loops stop the stream
// right after a write and checkpoint the same loop and source state, so
// either resume must match the uninterrupted run exactly. The handoff is
// loop code, so the Fig. 8 schemes cover it across writeLoop's branches:
// NOWL absorbs whole bursts through WriteRun, BWL serves every cold-silent
// write through writeOne, TWL_swp and SR mix the two.
//
// For run and sweep sources, a per-request checkpoint resumes on bulkLoop.
// A checkpoint bulkLoop writes mid-run holds the unserved rest of a run the
// source has already committed past, which only bulkLoop can serve.
// Resuming one with the fast path disabled must fail before a request is
// served, and leave the checkpoint resumable on the fast path.
func TestCheckpointResumeAcrossPaths(t *testing.T) {
	for _, name := range []string{"TWL_swp", "SR", "NOWL", "BWL"} {
		t.Run(name, func(t *testing.T) {
			build := tableFactory(name)
			baseline := ckptRunOne(t, build, "parsec", false, 0, nil)
			every := baseline.res.DemandWrites/16 | 1
			killAt := baseline.res.DemandWrites / 2
			ckptCompare(t, build, "parsec", true, false, baseline, killAt, every)
			ckptCompare(t, build, "parsec", false, true, baseline, killAt, every)
		})
	}
	for _, name := range []string{"NOWL", "TWL_swp"} {
		for _, kind := range []string{"scan", "inconsistent"} {
			t.Run(name+"/"+kind, func(t *testing.T) {
				build := tableFactory(name)
				baseline := ckptRunOne(t, build, kind, false, 0, nil)
				every := baseline.res.DemandWrites/16 | 1
				killAt := baseline.res.DemandWrites / 2
				ckptCompare(t, build, kind, true, false, baseline, killAt, every)

				path := filepath.Join(t.TempDir(), "run.ckpt")
				ckpt := &CheckpointConfig{Path: path, Every: every, Resume: true}
				ckptRunOne(t, build, kind, false, killAt, &CheckpointConfig{Path: path, Every: every})

				s := build(t)
				_, err := RunLifetime(s, diffSource(t, kind, wl.LogicalPages(s)), LifetimeConfig{
					Metrics:            obs.NewRegistry(),
					Trace:              obs.NewTracer(io.Discard, 1000),
					DisableFastForward: true,
					Checkpoint:         ckpt,
				})
				if err == nil || !strings.Contains(err.Error(), "bulk run") {
					t.Fatalf("per-request resume of a mid-run bulk checkpoint: err %v, want a pending bulk run error", err)
				}
				if got, want := s.Stats().DemandWrites, killAt/every*every; got != want {
					t.Errorf("refused resume served writes: demand %d, checkpoint holds %d", got, want)
				}
				if resumed := ckptRunOne(t, build, kind, false, 0, ckpt); resumed.res != baseline.res {
					t.Errorf("fast-path resume after the refusal:\nresumed:  %+v\nbaseline: %+v", resumed.res, baseline.res)
				}
			})
		}
	}
}

// TestCheckpointValidation: a checkpointed run must fail fast on an
// unserializable scheme or source, an empty path, or a checkpoint that does
// not match the run it is applied to.
func TestCheckpointValidation(t *testing.T) {
	build := tableFactory("TWL_swp")
	path := filepath.Join(t.TempDir(), "run.ckpt")
	// Produce a valid checkpoint to mismatch against.
	_ = ckptRunOne(t, build, "repeat", false, 3*ckptCadence, &CheckpointConfig{Path: path, Every: ckptCadence})

	s := build(t)
	if _, err := RunLifetime(s, diffSource(t, "repeat", wl.LogicalPages(s)), LifetimeConfig{
		Checkpoint: &CheckpointConfig{},
	}); err == nil {
		t.Error("empty checkpoint path accepted")
	}

	// Resuming under a different scheme must be rejected by the meta check.
	other, err := schemes.Build("NOWL", wltest.NewDeviceEndurance(t, diffPages, diffEndurance, diffSeed), diffSeed)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunLifetime(other, diffSource(t, "repeat", wl.LogicalPages(other)), LifetimeConfig{
		Checkpoint: &CheckpointConfig{Path: path, Resume: true},
	}); err == nil || !strings.Contains(err.Error(), "scheme") {
		t.Errorf("scheme mismatch not rejected: %v", err)
	}

	// Resuming without the metrics sink the checkpoint was taken with.
	s2 := build(t)
	if _, err := RunLifetime(s2, diffSource(t, "repeat", wl.LogicalPages(s2)), LifetimeConfig{
		Checkpoint: &CheckpointConfig{Path: path, Resume: true},
	}); err == nil || !strings.Contains(err.Error(), "metrics") {
		t.Errorf("metrics-config mismatch not rejected: %v", err)
	}

	// A corrupted checkpoint must be rejected by the CRC.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff
	bad := filepath.Join(t.TempDir(), "bad.ckpt")
	if err := os.WriteFile(bad, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	s3 := build(t)
	reg := obs.NewRegistry()
	var traceBuf bytes.Buffer
	if _, err := RunLifetime(s3, diffSource(t, "repeat", wl.LogicalPages(s3)), LifetimeConfig{
		Metrics:    reg,
		Trace:      obs.NewTracer(&traceBuf, 1000),
		Checkpoint: &CheckpointConfig{Path: bad, Resume: true},
	}); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Errorf("corrupted checkpoint not rejected by CRC: %v", err)
	}
}

// TestCheckpointWriteFailureAborts: a run that cannot write its checkpoint
// must stop rather than silently continue without crash safety.
func TestCheckpointWriteFailureAborts(t *testing.T) {
	build := tableFactory("TWL_swp")
	s := build(t)
	path := filepath.Join(t.TempDir(), "no-such-dir", "run.ckpt")
	_, err := RunLifetime(s, diffSource(t, "repeat", wl.LogicalPages(s)), LifetimeConfig{
		MaxDemandWrites: 3 * ckptCadence,
		Checkpoint:      &CheckpointConfig{Path: path, Every: ckptCadence},
	})
	if err == nil || !strings.Contains(err.Error(), "checkpoint") {
		t.Fatalf("unwritable checkpoint path did not abort the run: %v", err)
	}
}

// FuzzCheckpointResume drives random (scheme, source, kill point, cadence)
// tuples through the kill/resume cycle and requires the resumed result to
// match the uninterrupted baseline.
func FuzzCheckpointResume(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint16(2), uint32(1000), false)
	f.Add(uint8(3), uint8(1), uint16(3), uint32(977), false)
	f.Add(uint8(5), uint8(2), uint16(5), uint32(64), true)
	f.Add(uint8(7), uint8(0), uint16(2), uint32(4099), false)
	f.Add(uint8(9), uint8(3), uint16(2), uint32(512), false)
	f.Add(uint8(2), uint8(4), uint16(3), uint32(701), false)
	f.Add(uint8(6), uint8(4), uint16(2), uint32(1500), true)
	f.Fuzz(func(t *testing.T, schemeSel, kindSel uint8, killDiv uint16, cadence uint32, disableFF bool) {
		names := schemes.Names()
		name := names[int(schemeSel)%len(names)]
		kind := diffKinds[int(kindSel)%len(diffKinds)]
		every := uint64(cadence%65536 + 1)
		build := func(t *testing.T) wl.Scheme {
			t.Helper()
			dev := wltest.NewDeviceEndurance(t, 64, 500, diffSeed)
			s, err := schemes.Build(name, dev, diffSeed)
			if err != nil {
				t.Fatal(err)
			}
			return s
		}
		baseline := ckptRunOne(t, build, kind, disableFF, 0, nil)
		if killDiv < 2 {
			killDiv = 2
		}
		killAt := baseline.res.DemandWrites / uint64(killDiv)
		if killAt <= every {
			// No checkpoint would be taken before the kill; nothing to
			// resume from.
			t.Skip("kill point before first checkpoint")
		}
		path := filepath.Join(t.TempDir(), "fuzz.ckpt")
		killed := ckptRunOne(t, build, kind, disableFF, killAt, &CheckpointConfig{Path: path, Every: every})
		if !killed.res.Capped {
			t.Fatalf("killed run not capped: %+v", killed.res)
		}
		resumed := ckptRunOne(t, build, kind, disableFF, 0, &CheckpointConfig{Path: path, Every: every, Resume: true})
		if resumed.res != baseline.res {
			t.Errorf("LifetimeResult differs:\nresumed:  %+v\nbaseline: %+v", resumed.res, baseline.res)
		}
		for pp := range baseline.wear {
			if resumed.wear[pp] != baseline.wear[pp] || resumed.payload[pp] != baseline.payload[pp] {
				t.Fatalf("device state diverges at page %d", pp)
			}
		}
		if resumed.metricsText != baseline.metricsText {
			t.Error("metrics diverge")
		}
		if !strings.HasSuffix(baseline.traceText, resumed.traceText) {
			t.Error("resumed trace is not a tail of the baseline trace")
		}
	})
}

// TestCheckpointFileFormat pins the container invariants the resume path
// relies on: magic, version, and the atomic-replace behavior (a checkpoint
// is either the previous complete file or the new complete file, never a
// torn mix — emulated here by checking the temp file never survives).
func TestCheckpointFileFormat(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt")
	build := tableFactory("TWL_swp")
	_ = ckptRunOne(t, build, "repeat", false, 3*ckptCadence, &CheckpointConfig{Path: path, Every: ckptCadence})

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) < 20 {
		t.Fatalf("checkpoint only %d bytes", len(raw))
	}
	var magic, version uint32
	sr := snap.NewReader(bytes.NewReader(raw))
	magic = sr.U32()
	version = sr.U32()
	if magic != snap.Magic || version != snap.Version {
		t.Fatalf("header magic=%#x version=%d, want %#x/%d", magic, version, snap.Magic, snap.Version)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Errorf("temp checkpoint file %s survived the atomic rename", e.Name())
		}
	}
}

// TestStopPreemption pins the preemption contract: a run whose Stop hook
// fires winds down with ErrRunStopped after writing a final checkpoint, and
// resuming that checkpoint with Stop unset completes bit-identically to a
// run that was never preempted. repeat stops bulkLoop, parsec writeLoop.
func TestStopPreemption(t *testing.T) {
	for _, kind := range []string{"repeat", "parsec"} {
		t.Run(kind, func(t *testing.T) {
			build := tableFactory("TWL_swp")
			baseline := ckptRunOne(t, build, kind, false, 0, nil)

			path := filepath.Join(t.TempDir(), "run.ckpt")
			s := build(t)
			polled := false
			res, err := RunLifetime(s, diffSource(t, kind, wl.LogicalPages(s)), LifetimeConfig{
				Checkpoint: &CheckpointConfig{Path: path, Every: ckptCadence},
				Stop:       func() bool { polled = true; return true },
			})
			if !errors.Is(err, ErrRunStopped) {
				t.Fatalf("preempted run returned %v, want ErrRunStopped", err)
			}
			if !polled {
				t.Fatal("Stop hook was never polled")
			}
			if res.FailedPage >= 0 {
				t.Fatalf("preempted run reports a failed page: %+v", res)
			}
			if _, err := os.Stat(path); err != nil {
				t.Fatalf("no checkpoint at the stop point: %v", err)
			}

			s2 := build(t)
			resumed, err := RunLifetime(s2, diffSource(t, kind, wl.LogicalPages(s2)), LifetimeConfig{
				Checkpoint: &CheckpointConfig{Path: path, Every: ckptCadence, Resume: true},
			})
			if err != nil {
				t.Fatal(err)
			}
			if resumed != baseline.res {
				t.Errorf("resumed result differs from uninterrupted baseline:\n  resumed  %+v\n  baseline %+v", resumed, baseline.res)
			}
			dev := s2.Device()
			for pp := 0; pp < dev.Pages(); pp++ {
				if dev.Wear(pp) != baseline.wear[pp] || dev.Peek(pp) != baseline.payload[pp] {
					t.Fatalf("page %d wear/payload diverged after preempted resume", pp)
				}
			}
		})
	}
}

// TestStopWithoutCheckpoint: with no checkpoint configured the hook is
// polled at DefaultCheckpointEvery; the run still winds down cleanly, it
// just cannot be resumed.
func TestStopWithoutCheckpoint(t *testing.T) {
	dev := wltest.NewDeviceEndurance(t, 64, 1<<20, diffSeed)
	s, err := schemes.Build("StartGap", dev, diffSeed)
	if err != nil {
		t.Fatal(err)
	}
	src := diffSource(t, "repeat", wl.LogicalPages(s))
	stops := 0
	res, err := RunLifetime(s, src, LifetimeConfig{
		Stop: func() bool { stops++; return true },
	})
	if !errors.Is(err, ErrRunStopped) {
		t.Fatalf("got %v, want ErrRunStopped", err)
	}
	if stops != 1 {
		t.Errorf("Stop polled %d times, want 1", stops)
	}
	if res.FailedPage >= 0 || res.Capped {
		t.Errorf("preempted run reports completion: %+v", res)
	}
}
