package twl

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"twl/internal/clock"
	"twl/internal/obs"
)

// Experiment grids (Figures 6 and 8) are embarrassingly parallel: every
// cell simulates an independent device, scheme and workload. runCells
// executes a fixed-size task list on up to GOMAXPROCS workers; results are
// written into caller-indexed slots, so the outcome is bit-identical to the
// sequential order regardless of scheduling.

// cellTask is one independent simulation producing a value for its slot.
// The name labels the cell in metrics, trace events and errors
// ("fig6/BWL/scan").
type cellTask struct {
	name string
	run  func() error
}

// call runs the task and returns a panic as its error, naming the cell. A
// scheme bug that one cell's configuration reaches then fails that cell's
// grid like any other error; on a worker goroutine no caller could recover
// it, and it would end the process.
func (t cellTask) call() (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("twl: cell %s panicked: %v", t.name, r)
		}
	}()
	return t.run()
}

// cellObserver records per-cell timing and worker utilization into an obs
// registry and/or tracer. Either may be nil; a fully nil observer adds no
// clock reads to the run.
type cellObserver struct {
	reg     *obs.Registry
	tr      *obs.Tracer
	cells   *obs.Counter
	seconds *obs.Histogram
	busyNs  atomic.Int64
}

func newCellObserver(reg *obs.Registry, tr *obs.Tracer, workers int) *cellObserver {
	if reg == nil && tr == nil {
		return nil
	}
	o := &cellObserver{reg: reg, tr: tr}
	if reg != nil {
		reg.Help("twl_cells_total", "experiment grid cells completed")
		reg.Help("twl_cell_seconds", "wall-clock seconds per grid cell")
		reg.Help("twl_cells_workers", "concurrent workers used for the grid")
		reg.Help("twl_cells_utilization", "busy time / (wall time x workers) of the grid run")
		o.cells = reg.Counter("twl_cells_total")
		o.seconds = reg.Histogram("twl_cell_seconds", obs.ExponentialBuckets(0.001, 4, 10))
		reg.Gauge("twl_cells_workers").Set(float64(workers))
	}
	return o
}

// observe wraps one task with timing.
func (o *cellObserver) observe(t cellTask) error {
	if o == nil {
		return t.call()
	}
	start := clock.Now()
	err := t.call()
	elapsed := clock.Since(start)
	o.busyNs.Add(int64(elapsed))
	if o.cells != nil {
		o.cells.Inc()
		o.seconds.Observe(elapsed.Seconds())
	}
	if o.tr != nil {
		o.tr.Emit("cell",
			obs.F("name", t.name),
			obs.F("seconds", elapsed.Seconds()),
			obs.F("err", err != nil),
		)
	}
	return err
}

// finish records the whole-grid utilization.
func (o *cellObserver) finish(workers int, wall time.Duration) {
	if o == nil || o.reg == nil || wall <= 0 || workers <= 0 {
		return
	}
	busy := time.Duration(o.busyNs.Load())
	o.reg.Gauge("twl_cells_utilization").Set(busy.Seconds() / (wall.Seconds() * float64(workers)))
}

// runCells runs tasks concurrently. It returns a per-task completion mask —
// completed[i] is true iff tasks[i] ran to success — alongside the first
// error (if any). On error the grid is partial: workers stop grabbing new
// tasks, so an unpredictable subset of the caller-indexed result slots was
// never written. Callers must consult the mask (or abandon the grid) rather
// than consume those zero-valued slots as results. reg and tr are optional
// observability sinks for per-cell timing, worker count and utilization.
func runCells(reg *obs.Registry, tr *obs.Tracer, tasks []cellTask) ([]bool, error) {
	return runCellsStop(reg, tr, nil, tasks)
}

// runCellsStop is runCells with a preemption hook: once stop returns true,
// no further tasks are handed out (in-flight tasks run to their own stop
// point — each task's runner is expected to consult the same hook). A
// preempted grid returns a nil error with a partial mask unless an
// in-flight task reported one; callers that set stop must re-check it
// before treating the mask as complete.
func runCellsStop(reg *obs.Registry, tr *obs.Tracer, stop func() bool, tasks []cellTask) ([]bool, error) {
	workers := runtime.GOMAXPROCS(0)
	if workers > len(tasks) {
		workers = len(tasks)
	}
	obsv := newCellObserver(reg, tr, workers)
	start := time.Time{}
	if obsv != nil {
		start = clock.Now()
	}
	completed, err := dispatchCells(workers, obsv, stop, tasks)
	if obsv != nil {
		obsv.finish(workers, clock.Since(start))
	}
	return completed, err
}

// cellDispatch is the shared state of one worker pool: the task cursor and
// the first-error latch, both confined to mu. The annotations make the
// confinement machine-checked — the concurrency analyzer rejects any access
// outside a critical section of mu.
type cellDispatch struct {
	mu       sync.Mutex
	tasks    []cellTask  // immutable after construction
	stop     func() bool // immutable after construction; nil means never
	next     int         //twl:guardedby mu
	firstErr error       //twl:guardedby mu
}

// grab hands out the next task index, or reports false when the list is
// exhausted, a worker has failed (workers stop grabbing after the first
// error), or the preemption hook fired. The stop poll runs outside the
// critical section — it is the caller's concurrency-safe hook, not state
// confined to mu.
func (d *cellDispatch) grab() (cellTask, int, bool) {
	if d.stop != nil && d.stop() {
		return cellTask{}, 0, false
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.firstErr != nil || d.next >= len(d.tasks) {
		return cellTask{}, 0, false
	}
	t, i := d.tasks[d.next], d.next
	d.next++
	return t, i, true
}

// fail latches the first error.
func (d *cellDispatch) fail(err error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.firstErr == nil {
		d.firstErr = err
	}
}

// err returns the latched first error, if any.
func (d *cellDispatch) err() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.firstErr
}

// dispatchCells executes tasks on up to `workers` goroutines. The returned
// mask records which tasks completed successfully; each slot is written by
// exactly one worker before wg.Wait, so the caller reads it race-free.
func dispatchCells(workers int, obsv *cellObserver, stop func() bool, tasks []cellTask) ([]bool, error) {
	completed := make([]bool, len(tasks))
	if workers <= 1 {
		for i, t := range tasks {
			if stop != nil && stop() {
				return completed, nil
			}
			if err := obsv.observe(t); err != nil {
				return completed, err
			}
			completed[i] = true
		}
		return completed, nil
	}
	d := &cellDispatch{tasks: tasks, stop: stop}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				t, i, ok := d.grab()
				if !ok {
					return
				}
				if err := obsv.observe(t); err != nil {
					d.fail(err)
					return
				}
				completed[i] = true
			}
		}()
	}
	wg.Wait()
	return completed, d.err()
}

// countCompleted is a helper for error messages about partial grids.
func countCompleted(completed []bool) int {
	n := 0
	for _, c := range completed {
		if c {
			n++
		}
	}
	return n
}
