package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"time"

	"twl"
	"twl/perfbench/spans"
)

// shardedSetup decodes the configuration and runs the same scheme and
// attack once on the warm-up geometry, so lazy initialization is paid
// before timing.
func shardedSetup(o options) (twl.SystemConfig, twl.ShardedConfig, error) {
	cfg, err := loadConfig(o.workload)
	if err != nil {
		return twl.SystemConfig{}, twl.ShardedConfig{}, err
	}
	if len(cfg.Schemes) != 1 || len(cfg.Attacks) != 1 {
		return twl.SystemConfig{}, twl.ShardedConfig{}, fmt.Errorf("%s needs one scheme and one attack", o.workload)
	}
	mode, err := twl.ParseAttackMode(cfg.Attacks[0])
	if err != nil {
		return twl.SystemConfig{}, twl.ShardedConfig{}, err
	}
	sc := twl.ShardedConfig{Scheme: cfg.Schemes[0], Mode: mode, Shards: cfg.Shards}
	if _, err := twl.RunShardedLifetime(seeded(cfg.Warmup, o.seed), sc); err != nil {
		return twl.SystemConfig{}, twl.ShardedConfig{}, fmt.Errorf("warm-up: %w", err)
	}
	return seeded(cfg.System, o.seed), sc, nil
}

func runSharded(o options, r *report) error {
	var sys twl.SystemConfig
	var sc twl.ShardedConfig
	if err := timeSetup(r, func() (err error) {
		sys, sc, err = shardedSetup(o)
		return err
	}); err != nil {
		return err
	}
	// The end-to-end figure is single-core: on a shared host a second
	// worker's speed-up is a property of the neighbours.
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	name := sc.Scheme + "/" + sc.Mode.String()
	if o.traced {
		sys = seeded(sys, passSeed(o.seed, 0))
		v, err := newVerifier(o.workload, sys)
		if err != nil {
			return err
		}
		return traceSharded(o, r, sys, sc, v, name)
	}

	// Timed phase: whole passes until o.seconds have passed, pass p on the
	// system seeded passSeed(o.seed, p). A sharded cell's merged demand
	// varies a lot with the endurance map while its scout work does not, so
	// one seed's ns/write is mostly a property of that seed; the median over
	// a run's hundred-odd seeds is a property of the code.
	var nsPerWrite, userPerWrite, cellsPerS []float64
	h := startHost()
	start := time.Now()
	var results []*twl.ShardedResult
	for pass := 0; pass == 0 || time.Since(start).Seconds() < o.seconds; pass++ {
		t, cpu := time.Now(), selfUserCPU()
		var res *twl.ShardedResult
		err := guard(func() (err error) {
			res, err = twl.RunShardedLifetime(seeded(sys, passSeed(o.seed, pass)), sc)
			return err
		})
		d, dcpu := time.Since(t).Seconds(), selfUserCPU()-cpu
		if err != nil {
			r.tally.record(fmt.Sprintf("%s seed %d", name, passSeed(o.seed, pass)), err)
			continue
		}
		results = append(results, res)
		nsPerWrite = append(nsPerWrite, d*1e9/float64(res.DemandWrites))
		userPerWrite = append(userPerWrite, float64(dcpu)/float64(res.DemandWrites))
		cellsPerS = append(cellsPerS, 1/d)
	}
	h.finish()
	rss, err := peakRSSMB("self")
	if err != nil {
		return err
	}
	for p, res := range results {
		seed := passSeed(o.seed, p)
		v, err := newVerifier(o.workload, seeded(sys, seed))
		if err == nil {
			err = v.verify(name, fromLifetime(res.LifetimeResult))
		}
		r.tally.record(fmt.Sprintf("%s seed %d", name, seed), err)
	}
	if len(nsPerWrite) == 0 {
		return fmt.Errorf("every sharded pass failed")
	}
	r.set("ns_per_write", median(nsPerWrite))
	r.set("user_ns_per_write", median(userPerWrite))
	r.set("cells_per_s", median(cellsPerS))
	r.set("peak_rss_mb", rss)
	r.host(h)
	r.note("%s: %d pages in %d shards, %d passes on system seeds %d.., GOMAXPROCS 1",
		o.workload, sys.Pages, sc.Shards, len(nsPerWrite), passSeed(o.seed, 0))
	return nil
}

// passSeed is the system seed of pass p of a run at seed: a block of
// shardedSeeds seeds per run seed.
func passSeed(seed uint64, p int) uint64 { return seed*shardedSeeds + uint64(p%shardedSeeds) }

// shardedSeeds bounds the distinct system seeds one run uses; a run that
// makes more passes reuses them. One map's ns/write sits up to 2× off the
// median (its merged demand is set by the weakest shard, while the scout
// work is not), so the median needs many maps. That is why the device is
// 64Ki pages, where a 30 s run makes 180–300 passes: at 256Ki pages a 20 s
// run sees about 40 maps, and the maps alone spread such runs by 5%.
const shardedSeeds = 256

// shardEvent is one `cell` event of the sharded runner's trace.
type shardEvent struct {
	Event   string  `json:"event"`
	Name    string  `json:"name"`
	Seconds float64 `json:"seconds"`
}

// phaseSeconds sums the runner's per-shard cell events by phase (the last
// element of "shard/<i>/<phase>").
func phaseSeconds(trace []byte) (map[string]float64, error) {
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(trace))
	for sc.Scan() {
		var ev shardEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return nil, fmt.Errorf("sharded trace: %w", err)
		}
		if ev.Event != "cell" {
			continue
		}
		out[ev.Name[strings.LastIndexByte(ev.Name, '/')+1:]] += ev.Seconds
	}
	return out, sc.Err()
}

// shardedRounds is how many times the traced run repeats each of its three
// runs, alternating them; it reports medians.
const shardedRounds = 3

// traceSharded times three runs of the same cell, shardedRounds times each:
// untraced, traced with the runner's own per-shard events, and on two
// workers with its utilization gauge. Every run must produce the same
// result.
func traceSharded(o options, r *report, sys twl.SystemConfig, sc twl.ShardedConfig, v *verifier, name string) error {
	h := startHost()
	pvNs, err := spans.GenerateNs(sys)
	if err != nil {
		return err
	}
	var base *twl.ShardedResult
	timed := func(cfg twl.ShardedConfig) (float64, error) {
		start := time.Now()
		var res *twl.ShardedResult
		err := guard(func() (err error) {
			res, err = twl.RunShardedLifetime(sys, cfg)
			return err
		})
		d := time.Since(start).Seconds()
		switch {
		case err != nil:
		case base == nil:
			base = res
		case res.LifetimeResult != base.LifetimeResult:
			err = mismatchf("run result %+v differs from the first run's %+v", res.LifetimeResult, base.LifetimeResult)
		}
		return d, err
	}
	var untraced, traced, two, scout, exact, other, util []float64
	var lastTrace bytes.Buffer
	for round := 0; round < shardedRounds; round++ {
		d, err := timed(sc)
		if err != nil {
			r.tally.record(name, err)
			h.finish()
			r.host(h)
			return nil
		}
		untraced = append(untraced, d)

		lastTrace.Reset()
		tc := sc
		tc.Trace = twl.NewRunTracer(&lastTrace, 0)
		if d, err = timed(tc); err != nil {
			r.tally.record(name, err)
			return nil
		}
		phases, err := phaseSeconds(lastTrace.Bytes())
		if err != nil {
			return err
		}
		traced = append(traced, d)
		scout = append(scout, phases["scout"])
		exact = append(exact, phases["exact"])
		other = append(other, d-float64(pvNs)/1e9-phases["scout"]-phases["exact"])

		runtime.GOMAXPROCS(2)
		reg := twl.NewMetrics()
		wc := sc
		wc.Metrics = reg
		d, err = timed(wc)
		runtime.GOMAXPROCS(1)
		if err != nil {
			r.tally.record(name, err)
			return nil
		}
		two = append(two, d)
		util = append(util, spans.Utilization(reg))
	}
	h.finish()
	r.tally.record(name, v.verify(name, fromLifetime(base.LifetimeResult)))

	r.set("pv.generate_ms", float64(pvNs)/1e6)
	r.set("sharded.scout_s", median(scout))
	r.set("sharded.exact_s", median(exact))
	r.set("sharded.other_s", median(other))
	r.set("sharded.speedup_2w", median(untraced)/median(two))
	r.set("sharded.utilization_2w", median(util))
	r.set("sim.demand_writes", float64(base.DemandWrites))
	r.set("sim.device_writes", float64(base.DeviceWrites))
	r.set("sim.swap_writes", float64(base.SwapWrites))
	r.set("trace.overhead", median(traced)/median(untraced))
	r.set("cells_per_s", 1/median(untraced))
	r.host(h)
	path, err := writeSpans(o, map[string]any{
		"untraced_s": untraced, "traced_s": traced, "two_workers_s": two,
		"pv_generate_ns": pvNs, "scout_s": scout, "exact_s": exact,
		"runner_trace": strings.Split(strings.TrimSpace(lastTrace.String()), "\n"),
	})
	if err != nil {
		return err
	}
	r.note("%s traced: medians of %d rounds: untraced %.3fs, traced %.3fs, two workers %.3fs; spans in %s",
		o.workload, shardedRounds, median(untraced), median(traced), median(two), path)
	return nil
}
