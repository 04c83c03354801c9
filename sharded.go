package twl

import (
	"fmt"
	"os"
	"path/filepath"

	"twl/internal/attack"
	"twl/internal/pcm"
	"twl/internal/pv"
	"twl/internal/sim"
	"twl/internal/snap"
	"twl/internal/wl"
)

// Sharded lifetime runs. A full-geometry device (4 ranks × 32 banks, the
// paper's Table 1) is too large to simulate as one sequential request loop
// in reasonable time, but a real memory controller interleaves traffic
// across banks — and every scheme here levels wear within the region it
// manages. RunShardedLifetime exploits that: the device is split into
// Shards equal bank groups, each simulated as an independent device +
// scheme + attack stream, with the conceptual global request stream
// round-robining across shards (global request t goes to shard (t−1) mod
// Shards). Because shards share no state, the global run factors exactly
// into independent local runs plus merge arithmetic (internal/sim/shard.go),
// and the shards execute in parallel on all cores.
//
// The merge is exact, not approximate. Phase 1 (scout) runs every shard to
// its local first failure; the shard whose failure lands earliest in the
// interleaved global stream is the global first failure. Phase 2 re-runs
// every other shard capped to exactly the number of requests the global
// stream would have sent it by that point — a cap the scout already proved
// it survives — so the merged counters are the exact global state at first
// failure. Results are bit-reproducible regardless of scheduling, and each
// shard can checkpoint/resume independently (CheckpointDir).

// ShardedConfig controls a sharded lifetime run.
type ShardedConfig struct {
	// Scheme is the wear-leveling scheme name (see SchemeNames).
	Scheme string
	// Mode is the attack driven at every shard (each shard gets its own
	// stream over its own logical space, seeded per shard — the
	// bank-interleaved view of a device-wide attack).
	Mode AttackMode
	// Shards is the number of independent bank groups; 0 uses the full
	// geometry's Ranks × Banks (= 128). SystemConfig.Pages must divide
	// evenly by it.
	Shards int
	// MaxDemandWrites caps the global run; 0 means 2 × total endurance.
	MaxDemandWrites uint64
	// CheckpointDir, when non-empty, checkpoints every shard run into
	// per-shard files under this directory (created if missing). With
	// Resume set, shards restore from their checkpoint files when present
	// and re-serve only the tail — the final result is bit-identical to an
	// uninterrupted run. Resume must use the same configuration that wrote
	// the checkpoints.
	CheckpointDir string
	// Resume restores shard state from CheckpointDir files when present.
	Resume bool
	// CheckpointEvery is the per-shard checkpoint cadence in demand writes
	// (0 uses the sim default).
	CheckpointEvery uint64
	// Metrics, when non-nil, receives per-shard cell timings and the merged
	// run gauges. Timing series are wall-clock and not reproducible; the
	// returned result is.
	Metrics *MetricsRegistry
	// Trace, when non-nil, receives one cell event per shard run.
	Trace *Tracer
	// Stop, when non-nil, preempts the run: the dispatcher stops handing
	// out shard tasks once it returns true, and in-flight shards wind down
	// at their next checkpoint (writing a final one first — see
	// sim.LifetimeConfig.Stop). The run returns an error wrapping
	// ErrRunStopped; with CheckpointDir set, re-running with Resume
	// finishes bit-identically. Must be safe for concurrent use.
	Stop func() bool
}

// ShardedResult is the merged outcome of a sharded lifetime run. The
// embedded LifetimeResult holds the exact global counters at first failure
// (or at the cap): DemandWrites is the global interleaved demand count and
// FailedPage is the global physical page index (shard-major: shard i owns
// pages [i·ShardPages, (i+1)·ShardPages)).
type ShardedResult struct {
	LifetimeResult
	// Shards and ShardPages record the partitioning.
	Shards     int
	ShardPages int
	// FailedShard is the shard whose page death ended the global run (-1
	// when the run hit the cap on every shard).
	FailedShard int
	// ShardDemand is the exact number of demand writes each shard served
	// within the merged global run; it sums to DemandWrites.
	ShardDemand []uint64
}

// shardSeedStride separates per-shard RNG streams (golden-ratio stride, the
// standard splitmix increment).
const shardSeedStride = 0x9E3779B97F4A7C15

func shardSeed(base uint64, shard int) uint64 {
	return base + shardSeedStride*(uint64(shard)+1)
}

// shardedRun carries the validated, derived parameters of one sharded run.
type shardedRun struct {
	sys    SystemConfig
	cfg    ShardedConfig
	shards int
	sp     int      // pages per shard
	end    []uint64 // global endurance map, sliced per shard
}

// buildShard constructs shard i's independent device, scheme and attack
// source. The endurance slice comes from one global process-variation map,
// so the sharded device is page-for-page the full-geometry device; only the
// traffic and scheme scope are per shard.
func (r *shardedRun) buildShard(i int) (Scheme, sim.Source, error) {
	geom := pcm.Geometry{
		Pages:    r.sp,
		PageSize: r.sys.PageSize,
		LineSize: 128,
		Ranks:    1,
		Banks:    1,
	}
	end := r.end[i*r.sp : (i+1)*r.sp]
	dev, err := pcm.NewDevice(geom, pcm.DefaultTiming(), end)
	if err != nil {
		return nil, nil, fmt.Errorf("twl: shard %d device: %w", i, err)
	}
	seed := shardSeed(r.sys.Seed, i)
	s, err := wl.Build(r.cfg.Scheme, dev, seed)
	if err != nil {
		return nil, nil, fmt.Errorf("twl: shard %d scheme: %w", i, err)
	}
	st, err := attack.New(attack.DefaultConfig(r.cfg.Mode, r.sp, seed))
	if err != nil {
		return nil, nil, fmt.Errorf("twl: shard %d attack: %w", i, err)
	}
	return s, sim.FromAttack(st), nil
}

// runShard executes shard i capped at `cap` demand writes, checkpointing
// under the given phase tag when CheckpointDir is set.
func (r *shardedRun) runShard(i int, cap uint64, phase string) (LifetimeResult, error) {
	s, src, err := r.buildShard(i)
	if err != nil {
		return LifetimeResult{}, err
	}
	lc := sim.LifetimeConfig{MaxDemandWrites: cap, Stop: r.cfg.Stop}
	if r.cfg.CheckpointDir != "" {
		path := filepath.Join(r.cfg.CheckpointDir, fmt.Sprintf("shard-%04d.%s.ckpt", i, phase))
		resume := false
		if r.cfg.Resume {
			if _, err := os.Stat(path); err == nil {
				resume = true
			}
		}
		lc.Checkpoint = &sim.CheckpointConfig{Path: path, Every: r.cfg.CheckpointEvery, Resume: resume}
	}
	res, err := sim.RunLifetime(s, src, lc)
	if err != nil {
		return LifetimeResult{}, fmt.Errorf("twl: shard %d (%s): %w", i, phase, err)
	}
	return res, nil
}

// skippedShard is the result of a shard the global stream never reaches
// within the cap: a fresh device serving zero requests.
func skippedShard(scheme string) LifetimeResult {
	return LifetimeResult{Scheme: scheme, FailedPage: -1, Capped: true}
}

// RunShardedLifetime runs a full-geometry lifetime experiment sharded
// across the device's bank groups. See the package comment above for the
// model and the exactness argument; internal/sim/shard.go holds the merge
// arithmetic and its reference tests.
//
// The configuration is restricted to what shards cleanly: attack sources
// (each shard attacks its own logical space; benchmark workloads do not
// factor across bank groups, since their address statistics are not
// interleave-invariant, and run unsharded through RunBenchCell) and no
// spare pool (SystemConfig.SparePages must be 0 — retirement remaps across
// the whole device and does not factor).
func RunShardedLifetime(sys SystemConfig, cfg ShardedConfig) (*ShardedResult, error) {
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	if sys.SparePages != 0 {
		return nil, fmt.Errorf("twl: %w: sharded runs do not support spare pages (got %d)",
			ErrBadConfig, sys.SparePages)
	}
	shards := cfg.Shards
	if shards == 0 {
		full := pcm.DefaultGeometry()
		shards = full.Ranks * full.Banks
	}
	if shards < 1 {
		return nil, fmt.Errorf("twl: %w: Shards must be positive, got %d", ErrBadConfig, cfg.Shards)
	}
	if sys.Pages%shards != 0 {
		return nil, fmt.Errorf("twl: %w: Pages (%d) must divide evenly into %d shards",
			ErrBadConfig, sys.Pages, shards)
	}
	if cfg.CheckpointDir != "" {
		if err := os.MkdirAll(cfg.CheckpointDir, 0o755); err != nil {
			return nil, fmt.Errorf("twl: checkpoint dir: %w", err)
		}
		// A SIGKILL mid-install leaves a stale temp file next to the real
		// checkpoints; no writer is live yet, so this is the safe moment to
		// clear them.
		if _, err := snap.SweepOrphans(cfg.CheckpointDir); err != nil {
			return nil, fmt.Errorf("twl: checkpoint dir: %w", err)
		}
	}

	end, err := pv.Generate(pv.Config{
		Pages: sys.Pages,
		Mean:  sys.MeanEndurance,
		Sigma: sys.SigmaFraction * sys.MeanEndurance,
		Model: pv.Gaussian,
		Seed:  sys.Seed,
	})
	if err != nil {
		return nil, err
	}
	var totalEnd uint64
	for _, e := range end {
		totalEnd += e
	}
	globalCap := cfg.MaxDemandWrites
	if globalCap == 0 {
		if globalCap = 2 * totalEnd; globalCap < totalEnd {
			globalCap = ^uint64(0)
		}
	}

	r := &shardedRun{sys: sys, cfg: cfg, shards: shards, sp: sys.Pages / shards, end: end}

	// Phase 1 — scout: every shard runs to its local first failure (or its
	// share of the global cap).
	scout := make([]LifetimeResult, shards)
	var tasks []cellTask
	for i := 0; i < shards; i++ {
		cap := sim.ShardRequests(globalCap, i, shards)
		if cap == 0 {
			scout[i] = skippedShard("")
			continue
		}
		tasks = append(tasks, cellTask{name: fmt.Sprintf("shard/%d/scout", i), run: func() error {
			res, err := r.runShard(i, cap, "scout")
			if err != nil {
				return err
			}
			scout[i] = res
			return nil
		}})
	}
	completed, err := runCellsStop(cfg.Metrics, cfg.Trace, cfg.Stop, tasks)
	if err != nil {
		return nil, fmt.Errorf("twl: sharded scout aborted with %d/%d shards done: %w",
			countCompleted(completed), len(tasks), err)
	}
	// A nil error with an incomplete mask means the preemption hook stopped
	// the dispatcher before every shard ran.
	if n := countCompleted(completed); n != len(tasks) {
		return nil, fmt.Errorf("twl: sharded scout preempted with %d/%d shards done: %w",
			n, len(tasks), ErrRunStopped)
	}

	outcomes := make([]sim.ShardOutcome, shards)
	for i, res := range scout {
		outcomes[i] = sim.ShardOutcome{Demand: res.DemandWrites, Failed: !res.Capped}
	}
	winner, globalDemand, failed := sim.MergeScout(outcomes)

	out := &ShardedResult{
		Shards:      shards,
		ShardPages:  r.sp,
		FailedShard: winner,
		ShardDemand: make([]uint64, shards),
	}
	final := scout
	if failed {
		// Phase 2 — exact: re-run every other shard capped to precisely the
		// requests the global stream sends it before the failure. The scout
		// proved each such shard survives its quota, so these runs cap out
		// (a failure here means the merge arithmetic or a scheme's
		// determinism is broken — fail loudly).
		if err := sim.CheckQuotaSum(globalDemand, shards); err != nil {
			return nil, err
		}
		if q := sim.ShardQuota(globalDemand, winner, shards); q != scout[winner].DemandWrites {
			return nil, fmt.Errorf("twl: winner shard %d demand %d does not match its quota %d",
				winner, scout[winner].DemandWrites, q)
		}
		exact := make([]LifetimeResult, shards)
		exact[winner] = scout[winner]
		tasks = tasks[:0]
		for i := 0; i < shards; i++ {
			if i == winner {
				continue
			}
			quota := sim.ShardQuota(globalDemand, i, shards)
			if quota == 0 {
				exact[i] = skippedShard(scout[winner].Scheme)
				continue
			}
			tasks = append(tasks, cellTask{name: fmt.Sprintf("shard/%d/exact", i), run: func() error {
				res, err := r.runShard(i, quota, "exact")
				if err != nil {
					return err
				}
				if !res.Capped {
					return fmt.Errorf("twl: shard %d failed at demand %d inside its quota %d — "+
						"scout said it survives; non-deterministic scheme or merge bug",
						i, res.DemandWrites, quota)
				}
				if res.DemandWrites != quota {
					return fmt.Errorf("twl: shard %d served %d demand writes, quota %d",
						i, res.DemandWrites, quota)
				}
				exact[i] = res
				return nil
			}})
		}
		completed, err := runCellsStop(cfg.Metrics, cfg.Trace, cfg.Stop, tasks)
		if err != nil {
			return nil, fmt.Errorf("twl: sharded exact phase aborted with %d/%d shards done: %w",
				countCompleted(completed), len(tasks), err)
		}
		if n := countCompleted(completed); n != len(tasks) {
			return nil, fmt.Errorf("twl: sharded exact phase preempted with %d/%d shards done: %w",
				n, len(tasks), ErrRunStopped)
		}
		final = exact
	}

	// Deterministic merge: sum counters in shard order.
	merged := LifetimeResult{Scheme: cfg.Scheme, FailedPage: -1, Capped: !failed}
	for i, res := range final {
		if res.Scheme != "" {
			merged.Scheme = res.Scheme
		}
		out.ShardDemand[i] = res.DemandWrites
		merged.DemandWrites += res.DemandWrites
		merged.DemandReads += res.DemandReads
		merged.DeviceWrites += res.DeviceWrites
		merged.SwapWrites += res.SwapWrites
		merged.Swaps += res.Swaps
		merged.Cycles += res.Cycles
	}
	if failed {
		if merged.DemandWrites != globalDemand {
			return nil, fmt.Errorf("twl: merged demand %d does not match global first failure %d",
				merged.DemandWrites, globalDemand)
		}
		merged.FailedPage = final[winner].FailedPage + winner*r.sp
	}
	merged.Normalized = float64(merged.DemandWrites) / float64(totalEnd)
	out.LifetimeResult = merged

	if cfg.Metrics != nil {
		reg := cfg.Metrics
		reg.Help("twl_sharded_shards", "independent bank-group shards in the run")
		reg.Help("twl_sharded_failed_shard", "shard index of the global first failure (-1 if capped)")
		reg.Help("twl_sharded_demand_writes", "merged global demand writes at first failure")
		reg.Help("twl_sharded_normalized_lifetime", "merged demand writes / total endurance")
		reg.Gauge("twl_sharded_shards").Set(float64(shards))
		reg.Gauge("twl_sharded_failed_shard").Set(float64(out.FailedShard))
		reg.Gauge("twl_sharded_demand_writes").Set(float64(merged.DemandWrites))
		reg.Gauge("twl_sharded_normalized_lifetime").Set(merged.Normalized)
	}
	return out, nil
}
