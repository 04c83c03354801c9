// Package serve is the twlsimd simulation service: an HTTP front end that
// accepts experiment-grid jobs (scheme × workload × seed), expands them
// into independent cells, and executes the cells on a preemptible worker
// pool. Three properties define it:
//
//   - Content-addressed dedupe: every simulation here is deterministic, so
//     a cell's result is a pure function of its construction inputs. Cells
//     are keyed by a versioned hash of those inputs (see cellMaterial) and
//     results live in an on-disk cache (internal/cache) — a resubmitted
//     cell is served from disk with zero simulation writes. Same-key cells
//     also never simulate concurrently: checkpoint paths are derived from
//     the key, so the dispatcher holds a cell back while its key is in
//     flight (Server.inflight) and the duplicate settles from the first
//     run's cache entry instead of racing it. Within one job duplicates
//     cannot exist at all — spec axes dedupe on submit.
//   - Preemption and resume: long cells checkpoint through internal/snap
//     at the simulator's checkpoint cadence. Shutting the server down (or
//     killing the daemon outright) loses at most one checkpoint interval;
//     on restart the job files and their journals reload (journal.go),
//     incomplete cells re-enqueue, and each resumes from its checkpoint to
//     a bit-identical result.
//   - One result path: cells run through the same RunAttackCell /
//     RunBenchCell / RunShardedLifetime entry points as the one-shot grid
//     runners (RunFig6, RunFig8), so a grid computed through the service
//     is the grid computed locally — the differential tests pin this.
//
// Job state and the cell queue are guarded by Server.mu (machine-checked
// via //twl:guardedby); the drain flag is an atomic so simulation hot loops
// poll it without taking the service lock.
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"

	"twl"
	"twl/internal/cache"
	"twl/internal/obs"
	"twl/internal/snap"
)

// Config parameterizes a Server.
type Config struct {
	// DataDir is the service state root: jobs/ (job state files), cache/
	// (content-addressed results), ckpt/ (per-cell checkpoints). Required.
	DataDir string
	// Workers is the simulation worker count (0: GOMAXPROCS).
	Workers int
	// CheckpointEvery is the per-cell checkpoint cadence in demand writes
	// (0: the simulator default). It is also the preemption latency: a
	// draining worker stops at the next checkpoint boundary.
	CheckpointEvery uint64
}

// ErrClosed is returned by Submit and Cancel after Close began draining.
var ErrClosed = errors.New("serve: server closed")

// ErrNoJob is returned by lookups for an unknown job id.
var ErrNoJob = errors.New("serve: no such job")

// cellRef addresses one cell on the queue.
type cellRef struct {
	jobID string
	idx   int
}

// Server owns the job table, the cell queue and the worker pool.
type Server struct {
	cfg     Config
	reg     *obs.Registry
	store   *cache.Cache
	jobsDir string
	ckptDir string

	mu    sync.Mutex
	cond  *sync.Cond      // signals queue growth, cell completion, shutdown; pairs with mu
	queue []cellRef       //twl:guardedby mu
	jobs  map[string]*job //twl:guardedby mu
	order []string        //twl:guardedby mu
	// inflight holds the keys of claimed cells. A cell whose key is here
	// stays on the queue — its checkpoint paths (ckpt/<key>* ) have exactly
	// one writer — until the running cell settles and broadcasts.
	inflight map[string]struct{} //twl:guardedby mu
	lastID   int                 //twl:guardedby mu
	closed   bool                //twl:guardedby mu

	draining atomic.Bool
	wg       sync.WaitGroup

	jobsTotal    *obs.Counter
	preemptions  *obs.Counter
	cellsRunning *obs.Gauge
	outcomes     map[string]*obs.Counter // immutable after construction
}

// Cell outcome labels of the twl_serve_cells_total counter.
const (
	outcomeSimulated = "simulated"
	outcomeCached    = "cached"
	outcomeFailed    = "failed"
	outcomeCancelled = "cancelled"
)

// New builds a server over cfg.DataDir — creating the layout, sweeping
// checkpoint temp files orphaned by a killed predecessor, reloading
// persisted jobs and re-enqueueing their incomplete cells — and starts the
// worker pool. Callers must Close it to join the workers.
func New(cfg Config) (*Server, error) {
	if cfg.DataDir == "" {
		return nil, fmt.Errorf("serve: Config.DataDir is required")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	jobsDir := filepath.Join(cfg.DataDir, "jobs")
	ckptDir := filepath.Join(cfg.DataDir, "ckpt")
	for _, dir := range []string{jobsDir, ckptDir} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("serve: %w", err)
		}
	}
	// A killed worker can leave a stale snap temp file next to a cell
	// checkpoint; no writer is live before the pool starts, so sweep now.
	// (Sharded cells keep per-cell subdirectories that the sharded runner
	// sweeps itself on entry.)
	if _, err := snap.SweepOrphans(ckptDir); err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	store, err := cache.New(filepath.Join(cfg.DataDir, "cache"))
	if err != nil {
		return nil, err
	}

	reg := obs.NewRegistry()
	reg.Help("twl_serve_jobs_total", "grid jobs accepted")
	reg.Help("twl_serve_cells_total", "cells finished, by outcome")
	reg.Help("twl_serve_cells_running", "cells currently simulating")
	reg.Help("twl_serve_preemptions_total", "cell runs preempted by drain (resumed later from checkpoint)")
	reg.Help("twl_serve_cache_hits_total", "result-cache hits")
	reg.Help("twl_serve_cache_misses_total", "result-cache misses")
	s := &Server{
		cfg:          cfg,
		reg:          reg,
		store:        store,
		jobsDir:      jobsDir,
		ckptDir:      ckptDir,
		jobs:         map[string]*job{},
		inflight:     map[string]struct{}{},
		jobsTotal:    reg.Counter("twl_serve_jobs_total"),
		preemptions:  reg.Counter("twl_serve_preemptions_total"),
		cellsRunning: reg.Gauge("twl_serve_cells_running"),
		outcomes:     map[string]*obs.Counter{},
	}
	s.cond = sync.NewCond(&s.mu)
	for _, o := range []string{outcomeSimulated, outcomeCached, outcomeFailed, outcomeCancelled} {
		s.outcomes[o] = reg.Counter("twl_serve_cells_total", obs.L("outcome", o))
	}

	jobs, err := loadJobs(jobsDir, ckptDir)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	for _, j := range jobs {
		j.trace = &obs.TraceBuffer{}
		j.tracer = obs.NewTracer(j.trace, 0)
		s.jobs[j.id] = j
		s.order = append(s.order, j.id)
		if n, ok := jobSeq(j.id); ok && n > s.lastID {
			s.lastID = n
		}
		if !j.cancelled {
			for i, c := range j.cells {
				if c.Status == cellPending {
					s.queue = append(s.queue, cellRef{jobID: j.id, idx: i})
				}
			}
		}
	}
	s.mu.Unlock()

	for w := 0; w < cfg.Workers; w++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.workerLoop()
		}()
	}
	return s, nil
}

// Metrics exposes the service registry (for /metrics and tests).
func (s *Server) Metrics() *obs.Registry { return s.reg }

// CacheStats exposes the result cache's hit/miss counters.
func (s *Server) CacheStats() cache.Stats { return s.store.Stats() }

// Close drains the service: in-flight cells stop at their next checkpoint
// (writing a final one, so no work is lost), workers join, and every
// preempted cell stays pending on disk for the next daemon.
func (s *Server) Close() error {
	s.draining.Store(true)
	s.mu.Lock()
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
	s.wg.Wait()
	s.mu.Lock()
	defer s.mu.Unlock()
	var errs []error
	for _, id := range s.order {
		errs = append(errs, closeJournal(s.jobs[id]))
	}
	return errors.Join(errs...)
}

// Submit validates, registers and enqueues one job, returning its
// deterministic id and cell count.
func (s *Server) Submit(spec JobSpec) (id string, cells int, err error) {
	if err := spec.normalize(); err != nil {
		return "", 0, err
	}
	list := buildCells(spec)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return "", 0, ErrClosed
	}
	s.lastID++
	j := &job{
		id:    jobID(s.lastID, spec),
		spec:  spec,
		cells: list,
		trace: &obs.TraceBuffer{},
	}
	j.tracer = obs.NewTracer(j.trace, 0)
	// Persist before publishing: a job whose submission errored must not
	// linger in memory and run anyway (the restart path would then also
	// resurrect a job its submitter was told failed).
	if err := persistJob(s.jobsDir, j); err != nil {
		s.lastID--
		return "", 0, err
	}
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.jobsTotal.Inc()
	for i, c := range list {
		s.queue = append(s.queue, cellRef{jobID: j.id, idx: i})
		j.tracer.Emit("cell_queued", obs.F("name", c.name()), obs.F("key", c.Key))
	}
	s.cond.Broadcast()
	return j.id, len(list), nil
}

// Cancel marks a job cancelled: pending cells flip to cancelled
// immediately, running cells are preempted at their next checkpoint poll
// and their checkpoints discarded.
func (s *Server) Cancel(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	j := s.jobs[id]
	if j == nil {
		return fmt.Errorf("%w: %s", ErrNoJob, id)
	}
	if j.cancelled {
		return nil
	}
	j.cancelled = true
	for _, c := range j.cells {
		if c.Status == cellPending {
			c.Status = cellCancelled
			s.outcomes[outcomeCancelled].Inc()
		}
	}
	j.tracer.Emit("job_cancelled")
	return persist(s.jobsDir, j, cancelRecord)
}

// workerLoop pulls cells until the queue closes.
func (s *Server) workerLoop() {
	for {
		j, i, ok := s.nextCell()
		if !ok {
			return
		}
		s.runCell(j, i)
	}
}

// nextCell blocks for the next runnable cell, marking it running and its
// key in flight inside the same critical section so its status is never
// observably "pending but claimed". Returns ok=false when the server is
// draining. It returns the cell's job and index.
func (s *Server) nextCell() (*job, int, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		// Closed means stop dispatching immediately, however long the queue
		// is: unclaimed cells stay pending and their persisted status
		// re-enqueues them on the next daemon's startup. (Draining only the
		// in-flight cells bounds Close latency by one checkpoint interval,
		// not by queue length.)
		if s.closed {
			return nil, 0, false
		}
		for i := 0; i < len(s.queue); {
			ref := s.queue[i]
			j := s.jobs[ref.jobID]
			if j == nil || ref.idx >= len(j.cells) {
				s.queue = append(s.queue[:i], s.queue[i+1:]...)
				continue
			}
			c := j.cells[ref.idx]
			// Cancelled (or already-finished, after a duplicate enqueue)
			// cells are settled elsewhere; drop stale refs.
			if c.Status != cellPending || j.cancelled {
				s.queue = append(s.queue[:i], s.queue[i+1:]...)
				continue
			}
			// A same-key cell (necessarily from another job) is mid-run and
			// owns the key's checkpoint paths; leave this ref queued. The
			// owning run's settlement broadcasts, and the cache probe then
			// serves this cell from the completed result.
			if _, busy := s.inflight[c.Key]; busy {
				i++
				continue
			}
			s.queue = append(s.queue[:i], s.queue[i+1:]...)
			c.Status = cellRunning
			s.inflight[c.Key] = struct{}{}
			s.cellsRunning.Add(1)
			return j, ref.idx, true
		}
		s.cond.Wait()
	}
}

// runCell executes cell i of j, claimed by nextCell, end to end: cache
// probe, simulation with checkpoint + preemption wiring, cache install,
// state transition.
func (s *Server) runCell(j *job, i int) {
	c := j.cells[i] // the slice is immutable; the cell's state is not
	j.tracer.Emit("cell_start", obs.F("name", c.name()), obs.F("key", c.Key))

	material := cellMaterial(j.spec, c.Scheme, c.Source, c.Seed)
	if payload, ok, err := s.store.Get(c.Key); err == nil && ok {
		var env cellEnvelope
		if json.Unmarshal(payload, &env) == nil && env.Version == envelopeVersion && env.Material == material {
			// Another job may have completed this cell after a preemption
			// left a checkpoint behind; it will never resume now.
			removeCheckpoints(s.ckptDir, c.Key)
			s.finishCell(j, i, &env.Result, true, nil)
			return
		}
		// Unreadable, version-skewed or foreign (a key collision) entry:
		// treat as a miss and recompute (the Put below overwrites it).
	}

	res, err := s.simulate(j, c)
	switch {
	case err == nil:
		env := cellEnvelope{Version: envelopeVersion, Material: material, Result: res}
		payload, merr := json.Marshal(env)
		if merr != nil {
			removeCheckpoints(s.ckptDir, c.Key)
			s.finishCell(j, i, nil, false, merr)
			return
		}
		if perr := s.store.Put(c.Key, payload); perr != nil {
			// The simulation succeeded; a cache write failure costs future
			// dedupe, not this job's correctness.
			j.tracer.Emit("cache_error", obs.F("key", c.Key), obs.F("err", perr.Error()))
		}
		removeCheckpoints(s.ckptDir, c.Key)
		s.finishCell(j, i, &res, false, nil)
	case errors.Is(err, twl.ErrRunStopped):
		if s.jobCancelled(j) {
			removeCheckpoints(s.ckptDir, c.Key)
			s.finishCell(j, i, nil, false, err)
			return
		}
		// Drain preemption: the run already wrote its final checkpoint;
		// hand the cell back to the next daemon.
		s.preemptions.Inc()
		s.requeueCell(j, i)
	default:
		// A failed cell is terminal too — it never resumes, so keeping its
		// checkpoint state would leak ckptDir space forever.
		removeCheckpoints(s.ckptDir, c.Key)
		s.finishCell(j, i, nil, false, err)
	}
}

// simulate runs the cell's simulation with preemption and checkpointing
// wired in. Sharded specs route attack cells through the bank-sharded
// runner; bench cells always run unsharded (their traces do not factor
// across bank groups), matching the shards=0 key cellMaterial gives them.
//
// A panicking simulation — a scheme bug that the cell's configuration
// reaches — is returned as an error, so the cell settles failed instead of
// killing the daemon (and, since the cell would reload pending, every
// restart after it).
func (s *Server) simulate(j *job, c *cell) (_ cellResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("serve: cell %s panicked: %v", c.name(), r)
		}
	}()
	spec := j.spec
	sys := spec.system(c.Seed)
	stop := func() bool { return s.draining.Load() || s.jobCancelled(j) }
	kind, name := c.sourceKind()

	if spec.Shards > 0 && kind == "attack" {
		mode, err := twl.ParseAttackMode(name)
		if err != nil {
			return cellResult{}, err
		}
		res, err := twl.RunShardedLifetime(sys, twl.ShardedConfig{
			Scheme:          c.Scheme,
			Mode:            mode,
			Shards:          spec.Shards,
			MaxDemandWrites: spec.MaxDemandWrites,
			CheckpointDir:   filepath.Join(s.ckptDir, c.Key),
			Resume:          true,
			CheckpointEvery: s.cfg.CheckpointEvery,
			Stop:            stop,
		})
		if err != nil {
			return cellResult{}, err
		}
		out := fromLifetime(res.LifetimeResult)
		out.Sharded = &shardedInfo{
			Shards:      res.Shards,
			ShardPages:  res.ShardPages,
			FailedShard: res.FailedShard,
			ShardDemand: res.ShardDemand,
		}
		return out, nil
	}

	ckpt := filepath.Join(s.ckptDir, c.Key+".ckpt")
	resume := false
	if _, err := os.Stat(ckpt); err == nil {
		resume = true
	}
	lc := twl.LifetimeConfig{
		MaxDemandWrites: spec.MaxDemandWrites,
		Stop:            stop,
		Checkpoint: &twl.CheckpointConfig{
			Path:   ckpt,
			Every:  s.cfg.CheckpointEvery,
			Resume: resume,
		},
	}
	var res twl.LifetimeResult
	if kind == "attack" {
		var mode twl.AttackMode
		if mode, err = twl.ParseAttackMode(name); err == nil {
			res, err = twl.RunAttackCell(sys, c.Scheme, mode, lc)
		}
	} else {
		res, err = twl.RunBenchCell(sys, c.Scheme, name, lc)
	}
	if err != nil {
		return cellResult{}, err
	}
	return fromLifetime(res), nil
}

// jobCancelled reads the job's cancel flag under the service lock; it is
// the Stop-hook half of cancellation.
func (s *Server) jobCancelled(j *job) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return j.cancelled
}

// removeCheckpoints discards the checkpoint state in dir of the cell keyed
// key (a file for unsharded cells, a directory for sharded ones).
// Completed, cancelled and re-keyed cells will never resume from it, so
// the space comes back.
func removeCheckpoints(dir, key string) {
	_ = os.Remove(filepath.Join(dir, key+".ckpt"))
	_ = os.RemoveAll(filepath.Join(dir, key))
}

// finishCell settles cell i of j into a terminal state and persists it.
// err == nil with a result means success (cached says which path); err
// wrapping ErrRunStopped means the cell's job was cancelled mid-run; any
// other error is a cell failure.
func (s *Server) finishCell(j *job, i int, res *cellResult, cached bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := j.cells[i]
	s.cellsRunning.Add(-1)
	// The key's checkpoint paths are free again; wake workers that may be
	// holding a same-key duplicate back.
	delete(s.inflight, c.Key)
	s.cond.Broadcast()
	outcome := outcomeSimulated
	switch {
	case err == nil && cached:
		c.Status = cellDone
		c.Cached = true
		c.Result = res
		outcome = outcomeCached
	case err == nil:
		c.Status = cellDone
		c.Result = res
	case errors.Is(err, twl.ErrRunStopped):
		c.Status = cellCancelled
		outcome = outcomeCancelled
	default:
		c.Status = cellFailed
		c.Error = err.Error()
		outcome = outcomeFailed
	}
	s.outcomes[outcome].Inc()
	fields := []obs.Field{
		obs.F("name", c.name()),
		obs.F("outcome", outcome),
		obs.F("cached", c.Cached),
	}
	if c.Result != nil {
		fields = append(fields,
			obs.F("demand_writes", c.Result.DemandWrites),
			obs.F("normalized_lifetime", c.Result.Normalized),
		)
	}
	if c.Error != "" {
		fields = append(fields, obs.F("err", c.Error))
	}
	j.tracer.Emit("cell_done", fields...)
	s.persistCell(j, i)
}

// requeueCell returns drain-preempted cell i of j to pending. The server is
// closing, so the cell is not pushed back on the live queue, and nothing is
// written: pending is its state on disk, so the next daemon's startup
// re-enqueues it. A cancel that raced in after the stop poll settles the
// cell as cancelled instead.
func (s *Server) requeueCell(j *job, i int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := j.cells[i]
	s.cellsRunning.Add(-1)
	delete(s.inflight, c.Key)
	s.cond.Broadcast()
	if j.cancelled {
		c.Status = cellCancelled
		s.outcomes[outcomeCancelled].Inc()
		s.persistCell(j, i)
		return
	}
	c.Status = cellPending
	j.tracer.Emit("cell_preempted", obs.F("name", c.name()), obs.F("key", c.Key))
}

// persistCell records the terminal state cell i of j just reached, tracing
// rather than returning a failure: the cell's outcome stands in memory, and
// a restart that misses it re-settles the cell, from the result cache when
// it completed.
//
//twl:locked mu
func (s *Server) persistCell(j *job, i int) {
	rec, err := cellRecord(j, i)
	if err == nil {
		err = persist(s.jobsDir, j, rec)
	}
	if err != nil {
		j.tracer.Emit("persist_error", obs.F("err", err.Error()))
	}
}
