package sim

import (
	"errors"
	"fmt"
	"io"

	"twl/internal/clock"
	"twl/internal/obs"
	"twl/internal/snap"
	"twl/internal/wl"
)

// Crash-safe checkpointing. A lifetime run is hours of simulated writes; a
// crash (or SIGKILL) used to throw all of it away. With a CheckpointConfig
// the run periodically serializes every piece of mutable state — device
// wear, scheme tables, RNG stream positions, source position, the request
// loop's own accounting, metrics and trace sequence — into one versioned,
// CRC-checked file (internal/snap), written atomically so a crash mid-write
// leaves the previous checkpoint intact. Resuming reloads that file into a
// freshly constructed, identically configured system and continues
// bit-identically: the resumed run's results, wear, payloads, metrics and
// trace tail are indistinguishable from a run that was never interrupted,
// under both the per-request and the fast-forward paths.

// CheckpointConfig enables periodic checkpoints of a lifetime run.
type CheckpointConfig struct {
	// Path is the checkpoint file. Each checkpoint atomically replaces it
	// (write to temp file, fsync, rename), so the file always holds the
	// latest complete checkpoint.
	Path string
	// Every is the checkpoint cadence in demand writes (0 selects
	// DefaultCheckpointEvery). The fast-forward path clamps its bulk chunks
	// at this cadence, so checkpoints land at exactly the same demand counts
	// as on the per-request path.
	Every uint64
	// Resume loads Path before serving the first request. The scheme,
	// source and config must be constructed exactly as for the interrupted
	// run (same seeds, same geometry); the checkpoint carries every byte of
	// mutable state but no construction inputs. Metrics and Trace sinks, if
	// configured, should be fresh: restored counter and histogram values are
	// added onto whatever the registry already holds.
	Resume bool
}

// DefaultCheckpointEvery is the checkpoint cadence when CheckpointConfig
// leaves Every zero: every 2^22 ≈ 4.2M demand writes keeps a scaled-system
// lifetime run to a handful of checkpoints.
const DefaultCheckpointEvery = 1 << 22

// Source snapshot support. The wrapper types delegate to the wrapped
// stream's or generator's own Snapshot and Restore, so every source this
// package builds checkpoints.

// Snapshot implements wl.Snapshotter via the attack stream.
func (a attackSource) Snapshot(w io.Writer) error { return a.s.Snapshot(w) }

// Restore implements wl.Snapshotter via the attack stream.
func (a attackSource) Restore(r io.Reader) error { return a.s.Restore(r) }

// Snapshot implements wl.Snapshotter via the synthetic generator.
func (w workloadSource) Snapshot(wr io.Writer) error { return w.g.Snapshot(wr) }

// Restore implements wl.Snapshotter via the synthetic generator.
func (w workloadSource) Restore(r io.Reader) error { return w.g.Restore(r) }

// validateCheckpointConfig fails fast — before any request is served — when
// a checkpointed run has no path or a source that cannot be serialized (a
// caller-built Source need not checkpoint; every scheme does).
func validateCheckpointConfig(src Source, ckpt *CheckpointConfig) error {
	if ckpt.Path == "" {
		return errors.New("sim: CheckpointConfig needs a path")
	}
	if _, ok := src.(wl.Snapshotter); !ok {
		return fmt.Errorf("sim: source %T does not support checkpointing", src)
	}
	return nil
}

// initCkptMetrics registers the checkpoint observability series. They
// describe the checkpoint machinery itself, not the simulated system, so
// they are not part of a checkpoint and resume comparisons exclude them.
func (l *lifetimeState) initCkptMetrics(reg *obs.Registry) {
	reg.Help("twl_ckpt_total", "checkpoints written during the run")
	reg.Help("twl_ckpt_bytes", "size of the most recent checkpoint file")
	reg.Help("twl_ckpt_seconds", "wall-clock seconds per checkpoint write")
	l.ckptTotal = reg.Counter("twl_ckpt_total")
	l.ckptBytes = reg.Gauge("twl_ckpt_bytes")
	l.ckptSecs = reg.Histogram("twl_ckpt_seconds", obs.ExponentialBuckets(1e-4, 4, 10))
}

// ckptAt writes a checkpoint when demand sits on the configured cadence,
// then polls the preemption hook when one is set. Called by the request
// loops after a write's accounting, invariant check and failure check, so a
// checkpoint always captures a consistent, non-failed state. A checkpoint
// that cannot be written aborts the run: a caller who asked for crash
// safety must not silently lose it.
//
// A stop request returns an error wrapping ErrRunStopped; with
// checkpointing configured, a final checkpoint is written at the stop point
// first (unless the cadence checkpoint above just captured this exact
// demand count), so a preempted run resumes from where it stopped.
func (l *lifetimeState) ckptAt() error {
	if l.ckptEvery != 0 && l.demand != 0 && l.demand%l.ckptEvery == 0 {
		if err := l.writeCheckpoint(); err != nil {
			return err
		}
	}
	if l.stop != nil && l.demand >= l.nextStop {
		l.nextStop = l.demand + l.stopEvery
		if l.stop() {
			if l.ckptEvery != 0 && l.demand%l.ckptEvery != 0 {
				if err := l.writeCheckpoint(); err != nil {
					return err
				}
			}
			return fmt.Errorf("%w after %d demand writes", ErrRunStopped, l.demand)
		}
	}
	return nil
}

// writeCheckpoint serializes the full run state into the checkpoint file.
func (l *lifetimeState) writeCheckpoint() error {
	start := clock.Now()
	n, err := snap.WriteFile(l.ckptPath, l.encodeCheckpoint)
	if err != nil {
		return fmt.Errorf("sim: checkpoint at %d demand writes: %w", l.demand, err)
	}
	if l.ckptTotal != nil {
		l.ckptTotal.Inc()
		l.ckptBytes.Set(float64(n))
		l.ckptSecs.Observe(clock.Since(start).Seconds())
	}
	return nil
}

// encodeCheckpoint writes the tagged checkpoint sections: run identity,
// loop accounting (including a partially consumed source run — the source
// has already committed past it, so the remainder must survive the resume),
// then the device, scheme, source, metrics and trace state.
func (l *lifetimeState) encodeCheckpoint(sw *snap.Writer) error {
	sw.Tag("meta")
	sw.String(l.s.Name())
	sw.Int(l.dev.Pages())
	sw.U64(l.dev.TotalEndurance())

	sw.Tag("loop")
	sw.U64(l.demand)
	sw.U64(l.blocked)
	sw.I64(l.cycles)
	sw.Bool(l.fb.Blocked)
	sw.I64(l.fb.Cycles)
	sw.Bool(l.runActive)
	sw.Int(l.runAddr)
	sw.Int(l.runN)
	sw.Int(l.runOff)
	if err := sw.Err(); err != nil {
		return err
	}

	sw.Tag("device")
	if err := l.dev.Snapshot(sw); err != nil {
		return err
	}
	sw.Tag("scheme")
	if err := l.s.Snapshot(sw); err != nil {
		return err
	}
	sw.Tag("source")
	if err := l.src.(wl.Snapshotter).Snapshot(sw); err != nil {
		return err
	}

	sw.Tag("metrics")
	sw.Bool(l.metrics != nil)
	if l.metrics != nil {
		sw.U64(l.metrics.writes.Value())
		sw.U64(l.metrics.reads.Value())
		sw.U64(l.metrics.blocked.Value())
		snapHistogram(sw, l.metrics.latency)
	}
	sw.Bool(l.ffRunLen != nil)
	if l.ffRunLen != nil {
		snapHistogram(sw, l.ffRunLen)
		sw.U64(l.ffEvents.Value())
	}

	sw.Tag("trace")
	sw.Bool(l.tracer != nil)
	if l.tracer != nil {
		sw.U64(l.tracer.Seq())
	}
	return sw.Err()
}

// restoreCheckpoint loads the checkpoint file into the freshly constructed
// run. The device, scheme and source were built with the same configuration
// and seeds as the interrupted run; this overwrites their mutable state and
// the loop accounting, after validating that the checkpoint matches the run
// it is being applied to.
func (l *lifetimeState) restoreCheckpoint() error {
	return snap.ReadFile(l.ckptPath, func(sr *snap.Reader) error {
		sr.Expect("meta")
		name := sr.String(128)
		pages := sr.Int()
		totalEnd := sr.U64()
		if err := sr.Err(); err != nil {
			return err
		}
		if name != l.s.Name() {
			return fmt.Errorf("sim: checkpoint is for scheme %q, run uses %q", name, l.s.Name())
		}
		if pages != l.dev.Pages() {
			return fmt.Errorf("sim: checkpoint has %d pages, device has %d", pages, l.dev.Pages())
		}
		if totalEnd != l.dev.TotalEndurance() {
			return fmt.Errorf("sim: checkpoint total endurance %d, device has %d", totalEnd, l.dev.TotalEndurance())
		}

		sr.Expect("loop")
		l.demand = sr.U64()
		l.blocked = sr.U64()
		l.cycles = sr.I64()
		l.fb.Blocked = sr.Bool()
		l.fb.Cycles = sr.I64()
		l.runActive = sr.Bool()
		l.runAddr = sr.Int()
		l.runN = sr.Int()
		l.runOff = sr.Int()
		if err := sr.Err(); err != nil {
			return err
		}

		sr.Expect("device")
		if err := l.dev.Restore(sr); err != nil {
			return err
		}
		sr.Expect("scheme")
		if err := l.s.Restore(sr); err != nil {
			return err
		}
		sr.Expect("source")
		if err := l.src.(wl.Snapshotter).Restore(sr); err != nil {
			return err
		}

		sr.Expect("metrics")
		hasMetrics := sr.Bool()
		if hasMetrics != (l.metrics != nil) {
			return fmt.Errorf("sim: checkpoint metrics=%v but run metrics=%v; resume with the same Metrics configuration", hasMetrics, l.metrics != nil)
		}
		if hasMetrics {
			l.metrics.writes.Add(sr.U64())
			l.metrics.reads.Add(sr.U64())
			l.metrics.blocked.Add(sr.U64())
			if err := restoreHistogram(sr, l.metrics.latency); err != nil {
				return err
			}
		}
		if sr.Bool() { // fast-forward series were live when the checkpoint was taken
			if l.reg == nil {
				return errors.New("sim: checkpoint has fast-forward metrics but run has no registry")
			}
			l.initFFMetrics()
			if err := restoreHistogram(sr, l.ffRunLen); err != nil {
				return err
			}
			l.ffEvents.Add(sr.U64())
		}

		sr.Expect("trace")
		hasTrace := sr.Bool()
		if hasTrace != (l.tracer != nil) {
			return fmt.Errorf("sim: checkpoint trace=%v but run trace=%v; resume with the same Trace configuration", hasTrace, l.tracer != nil)
		}
		if hasTrace {
			l.tracer.SetSeq(sr.U64())
		}
		return sr.Err()
	})
}

// snapHistogram appends a histogram's full state (bounds, buckets, count,
// sum) to the checkpoint.
func snapHistogram(sw *snap.Writer, h *obs.Histogram) {
	s := h.Snapshot()
	sw.F64s(s.Bounds)
	sw.U64s(s.Counts)
	sw.U64(s.Count)
	sw.F64(s.Sum)
}

// restoreHistogram merges a checkpointed histogram into the live (freshly
// created, all-zero) handle. Histogram.AddSnapshot validates that the
// bucket bounds match.
func restoreHistogram(sr *snap.Reader, h *obs.Histogram) error {
	cur := h.Snapshot()
	s := obs.HistogramSnapshot{
		Bounds: make([]float64, len(cur.Bounds)),
		Counts: make([]uint64, len(cur.Counts)),
	}
	sr.F64sInto(s.Bounds)
	sr.U64sInto(s.Counts)
	s.Count = sr.U64()
	s.Sum = sr.F64()
	if err := sr.Err(); err != nil {
		return err
	}
	return h.AddSnapshot(s)
}
