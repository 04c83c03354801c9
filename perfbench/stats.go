package main

import (
	"fmt"
	"math"
	"sort"
)

// percentile returns the p-quantile (0 < p <= 1) of xs by the nearest-rank
// rule: the smallest sample with at least p·n samples at or below it. It
// returns NaN for an empty slice and does not modify xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// median is the 0.5 percentile.
func median(xs []float64) float64 { return percentile(xs, 0.5) }

// minTail is the number of samples that must lie beyond a reported
// percentile for it to be more than one outlier's worth of evidence.
const minTail = 10

// tailSamples is the number of samples strictly beyond the nearest-rank
// p-quantile of n samples.
func tailSamples(n int, p float64) int {
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		return 0
	}
	return n - rank
}

// checkTail reports an error when fewer than minTail of n samples lie beyond
// the p-quantile, so a run never reports a tail it did not observe.
func checkTail(n int, p float64) error {
	if got := tailSamples(n, p); got < minTail {
		return fmt.Errorf("p%g of %d samples has %d beyond it, need %d", p*100, n, got, minTail)
	}
	return nil
}

// tally counts attempted and failed operations. An operation fails on an
// error, a recovered panic or a result that differs from its expectation;
// each operation is recorded exactly once, so a panicking cell is one
// failure.
type tally struct {
	attempted  int
	failed     int
	mismatched int      // failures that were wrong results, not errors
	notes      []string // one line per failure, for the report
}

// ok records a successful operation.
func (t *tally) ok() { t.attempted++ }

// fail records a failed operation with its reason.
func (t *tally) fail(what string, err error) {
	t.attempted++
	t.failed++
	t.notes = append(t.notes, fmt.Sprintf("%s: %v", what, err))
}

// mismatch records an operation whose result differs from its expectation.
func (t *tally) mismatch(what string, err error) {
	t.fail(what, err)
	t.mismatched++
}

// record files one operation by its outcome: nil is success, a
// *mismatchError a wrong result, anything else an error.
func (t *tally) record(what string, err error) {
	switch e := err.(type) {
	case nil:
		t.ok()
	case *mismatchError:
		t.mismatch(what, e)
	default:
		t.fail(what, err)
	}
}

// share is failed over attempted (0 when nothing was attempted).
func (t *tally) share() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}

// guard runs f and converts a panic into an error, so one crashing cell is
// counted as a failed operation instead of ending the benchmark.
func guard(f func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return f()
}
