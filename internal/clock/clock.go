// Package clock is the module's single sanctioned wall-clock access point.
//
// Simulations must be bit-reproducible, so the determinism analyzer
// (twlint) forbids calling time.Now and time.Since everywhere in the
// simulation packages; this package stores time.Now as a function value
// instead of calling it, so the analyzer never fires on it. Anything that
// legitimately needs wall time — worker utilization in the experiment
// grids, benchmark harnesses, replication timing — reads it through Now and
// Since, which also makes those durations injectable in tests: swap the
// source with SetForTest and timing-dependent code becomes deterministic.
package clock

import (
	"sync/atomic"
	"time"
)

// source holds the active time source. An atomic pointer (not a plain
// package variable) so tests swapping the source do not race with worker
// goroutines reading it.
var source atomic.Pointer[func() time.Time]

func init() {
	f := time.Now
	source.Store(&f)
}

// Now returns the current time from the active source (wall clock by
// default).
func Now() time.Time { return (*source.Load())() }

// Since returns the time elapsed since t under the active source.
func Since(t time.Time) time.Duration { return Now().Sub(t) }

// SetForTest replaces the time source and returns a function restoring the
// previous one; callers defer it. Intended for tests only — production code
// never swaps the source.
func SetForTest(f func() time.Time) (restore func()) {
	prev := source.Swap(&f)
	return func() { source.Store(prev) }
}

// Stepper returns a deterministic fake source: the first call yields start,
// and every subsequent call advances by step. Safe for concurrent use, so
// it can back parallel code paths in tests.
func Stepper(start time.Time, step time.Duration) func() time.Time {
	var calls atomic.Int64
	return func() time.Time {
		n := calls.Add(1) - 1
		return start.Add(time.Duration(n) * step)
	}
}
