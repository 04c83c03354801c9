package twl

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
)

// TestDispatchCellsMidGridFailure: when a cell fails, the remaining queued
// cells are dropped — the returned mask must say exactly which cells ran to
// success, so callers never read a zero-valued result slot as a result.
func TestDispatchCellsMidGridFailure(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{1, 4} {
		const n = 32
		var ran [n]atomic.Bool
		tasks := make([]cellTask, n)
		for i := range tasks {
			tasks[i] = cellTask{name: "cell", run: func() error {
				if i == n/2 {
					return boom
				}
				ran[i].Store(true)
				return nil
			}}
		}
		completed, err := dispatchCells(workers, nil, nil, tasks)
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: error %v, want boom", workers, err)
		}
		if len(completed) != n {
			t.Fatalf("workers=%d: mask has %d entries, want %d", workers, len(completed), n)
		}
		// The mask must agree exactly with what actually ran: no false
		// positives (a slot the caller would wrongly trust) and no false
		// negatives (completed work reported as dropped).
		for i := range tasks {
			if completed[i] != ran[i].Load() {
				t.Fatalf("workers=%d: cell %d completed=%v but ran=%v", workers, i, completed[i], ran[i].Load())
			}
		}
		if completed[n/2] {
			t.Fatalf("workers=%d: failed cell marked completed", workers)
		}
		if got := countCompleted(completed); got == n {
			t.Fatalf("workers=%d: all %d cells marked completed despite failure", workers, n)
		}
		// Sequential dispatch additionally guarantees nothing after the
		// failing cell started.
		if workers == 1 {
			for i := n/2 + 1; i < n; i++ {
				if completed[i] {
					t.Fatalf("sequential: cell %d after the failure completed", i)
				}
			}
		}
	}
}

// TestDispatchCellsAllComplete: the success path reports a full mask.
func TestDispatchCellsAllComplete(t *testing.T) {
	tasks := make([]cellTask, 9)
	for i := range tasks {
		tasks[i] = cellTask{name: "ok", run: func() error { return nil }}
	}
	completed, err := dispatchCells(3, nil, nil, tasks)
	if err != nil {
		t.Fatal(err)
	}
	if countCompleted(completed) != len(tasks) {
		t.Fatalf("completed %d/%d on clean grid", countCompleted(completed), len(tasks))
	}
}

// TestGridErrorReportsPartialCount: the experiment entry points surface how
// much of the grid ran before the abort.
func TestGridErrorReportsPartialCount(t *testing.T) {
	sys := SmallSystem(42)
	_, err := RunFig6(sys, Fig6Config{
		Schemes:              []string{"TWL_swp", "no-such-scheme"},
		Modes:                []AttackMode{AttackRepeat},
		BandwidthBytesPerSec: Fig6AttackBandwidth,
	})
	if err == nil {
		t.Fatal("unknown scheme accepted")
	}
	if !strings.Contains(err.Error(), "cells done") {
		t.Fatalf("grid error lacks partial-completion count: %v", err)
	}
}

// TestDispatchCellsStop: once the preemption hook fires, no further tasks
// are handed out, and the partial mask tells the caller exactly what ran.
func TestDispatchCellsStop(t *testing.T) {
	for _, workers := range []int{1, 4} {
		const n = 32
		var served atomic.Int32
		var stopped atomic.Bool
		tasks := make([]cellTask, n)
		for i := range tasks {
			tasks[i] = cellTask{name: "cell", run: func() error {
				if served.Add(1) >= n/4 {
					stopped.Store(true)
				}
				return nil
			}}
		}
		completed, err := dispatchCells(workers, nil, stopped.Load, tasks)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		got := countCompleted(completed)
		if got == n {
			t.Fatalf("workers=%d: grid ran to completion despite the stop", workers)
		}
		if int32(got) != served.Load() {
			t.Fatalf("workers=%d: mask says %d completed, runners served %d", workers, got, served.Load())
		}
	}
}
