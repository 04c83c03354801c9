package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"twl"
	"twl/perfbench/spans"
)

// gridCell is one cell of a grid workload: the facade runner the timed
// phase calls, and the constructor the traced run wraps.
type gridCell struct {
	name  string
	run   func(sys twl.SystemConfig, lc twl.LifetimeConfig) (twl.LifetimeResult, error)
	build func(sys twl.SystemConfig) (spans.Cell, error)
}

// gridCells lists a grid workload's cells in a fixed order. attack_grid is
// every registered scheme against the four Fig. 6 attacks; parsec_grid the
// configured Fig. 8 schemes against the 13 PARSEC workloads.
func gridCells(workload string, cfg workloadConfig) []gridCell {
	var cells []gridCell
	if workload == "attack_grid" {
		for _, s := range twl.SchemeNames() {
			for _, m := range twl.AttackModes() {
				cells = append(cells, gridCell{
					name: s + "/" + m.String(),
					run: func(sys twl.SystemConfig, lc twl.LifetimeConfig) (twl.LifetimeResult, error) {
						return twl.RunAttackCell(sys, s, m, lc)
					},
					build: func(sys twl.SystemConfig) (spans.Cell, error) { return spans.AttackCell(sys, s, m) },
				})
			}
		}
		return cells
	}
	for _, s := range cfg.Schemes {
		for _, b := range twl.Benchmarks() {
			cells = append(cells, gridCell{
				name: s + "/" + b.Name,
				run: func(sys twl.SystemConfig, lc twl.LifetimeConfig) (twl.LifetimeResult, error) {
					return twl.RunBenchCell(sys, s, b.Name, lc)
				},
				build: func(sys twl.SystemConfig) (spans.Cell, error) { return spans.BenchCell(sys, s, b.Name) },
			})
		}
	}
	return cells
}

// runGuarded runs one cell through the facade, turning a panic into an error.
func (c gridCell) runGuarded(sys twl.SystemConfig, lc twl.LifetimeConfig) (res twl.LifetimeResult, err error) {
	err = guard(func() error {
		var e error
		res, e = c.run(sys, lc)
		return e
	})
	return res, err
}

// verifier checks results against the committed expectations, falling back
// to the consistency relations for cells nothing is committed for.
type verifier struct {
	exp      *expectations
	seed     uint64
	pages    int
	totalEnd func() (uint64, error) // the device's total endurance, built on first use
}

func newVerifier(workload string, sys twl.SystemConfig) (*verifier, error) {
	exp, err := loadExpectations(workload)
	if err != nil {
		return nil, err
	}
	var total uint64
	var totalErr error
	built := false
	return &verifier{
		exp:   exp,
		seed:  sys.Seed,
		pages: sys.Pages,
		totalEnd: func() (uint64, error) {
			if !built {
				built = true
				var dev *twl.Device
				if dev, totalErr = sys.NewDevice(); totalErr == nil {
					total = dev.TotalEndurance()
				}
			}
			return total, totalErr
		},
	}, nil
}

func (v *verifier) verify(cell string, got result) error {
	checked, err := v.exp.check(v.seed, cell, got)
	if checked || err != nil {
		return err
	}
	total, err := v.totalEnd()
	if err != nil {
		return err
	}
	if err := consistent(got, total, v.pages); err != nil {
		return mismatchf("%s: %v", cell, err)
	}
	return nil
}

// gridSetup is the set-up every grid run repeats: decode the configuration,
// build the cell list, load the expectations, and run each cell once on a
// tiny system so lazy initialization is paid before timing.
func gridSetup(o options) (cells []gridCell, sys twl.SystemConfig, v *verifier, err error) {
	cfg, err := loadConfig(o.workload)
	if err != nil {
		return nil, sys, nil, err
	}
	cells = gridCells(o.workload, cfg)
	sys = seeded(cfg.System, o.seed)
	if v, err = newVerifier(o.workload, sys); err != nil {
		return nil, sys, nil, err
	}
	warm := seeded(cfg.Warmup, o.seed)
	for _, c := range cells {
		// Warm-up failures are not counted: the timed phase runs the same
		// cells at full size and accounts for them there.
		_, _ = c.runGuarded(warm, twl.LifetimeConfig{})
	}
	return cells, sys, v, nil
}

// cellOutcome is a grid cell's first result in a timed phase, or why the
// cell failed.
type cellOutcome struct {
	res twl.LifetimeResult
	err error
}

// cellCost is a grid cell's time over its completed runs in a timed phase.
type cellCost struct {
	wall, user time.Duration // summed over the runs
	runs       int
}

// gridCost is the time of one round of the grid, each cell counted at its
// mean over its runs however many times it ran, and the round's demand
// writes. A cell that failed or did not repeat its first result is left
// out.
func gridCost(first []cellOutcome, costs []cellCost) (wall, user float64, writes uint64, done int) {
	for i, c := range costs {
		if first[i].err != nil || c.runs == 0 {
			continue
		}
		wall += float64(c.wall) / float64(c.runs)
		user += float64(c.user) / float64(c.runs)
		writes += first[i].res.DemandWrites
		done++
	}
	return wall, user, writes, done
}

func runGrid(o options, r *report) error {
	var cells []gridCell
	var sys twl.SystemConfig
	var v *verifier
	if err := timeSetup(r, func() (err error) {
		cells, sys, v, err = gridSetup(o)
		return err
	}); err != nil {
		return err
	}
	if o.traced {
		return traceGrid(o, r, cells, sys, v)
	}

	// Timed phase: the cells in grid order, round after round, one at a
	// time on this goroutine, until every cell has run once and o.seconds
	// have passed; the last round may stop part-way. A cell's first result
	// is checked and its later runs must repeat it exactly. The cost per
	// write sums each cell's mean time over the cells' writes, so a partial
	// round does not tilt the mix towards the cells it reached.
	first := make([]cellOutcome, len(cells))
	costs := make([]cellCost, len(cells))
	h := startHost()
	start := time.Now()
	visits := 0
	for ; visits < len(cells) || time.Since(start).Seconds() < o.seconds; visits++ {
		i := visits % len(cells)
		t, cpu := time.Now(), selfUserCPU()
		res, err := cells[i].runGuarded(sys, twl.LifetimeConfig{})
		d, dcpu := time.Since(t), selfUserCPU()-cpu
		if visits < len(cells) {
			first[i] = cellOutcome{res, err}
		} else if first[i].err == nil && (err != nil || res != first[i].res) {
			first[i].err = mismatchf("run %d did not repeat the first (%v)", visits/len(cells), err)
		}
		if err == nil {
			costs[i].wall += d
			costs[i].user += dcpu
			costs[i].runs++
		}
	}
	h.finish()
	rss, err := peakRSSMB("self")
	if err != nil {
		return err
	}
	wall, user, writes, done := gridCost(first, costs)
	if writes == 0 {
		return fmt.Errorf("no cell of %s completed", o.workload)
	}

	for i, c := range cells {
		err := first[i].err
		if err == nil {
			err = v.verify(c.name, fromLifetime(first[i].res))
		}
		r.tally.record(c.name, err)
	}
	r.set("ns_per_write", wall/float64(writes))
	r.set("user_ns_per_write", user/float64(writes))
	r.set("cells_per_s", float64(done)/(wall/1e9))
	r.set("peak_rss_mb", rss)
	r.host(h)
	r.note("%s: %d cells, %d cell runs (%.2f rounds), seed %d, one goroutine",
		o.workload, len(cells), visits, float64(visits)/float64(len(cells)), o.seed)
	return nil
}

// cellSpans is the span record of one traced cell, written out when the run
// ends.
type cellSpans struct {
	Cell          string `json:"cell"`
	RefNs         int64  `json:"ref_ns"` // the facade runner, unwrapped
	RunNs         int64  `json:"run_ns"` // RunLifetime under the wrappers
	SchemeNs      int64  `json:"scheme_ns"`
	SchemeCalls   uint64 `json:"scheme_calls"`
	SourceNs      int64  `json:"source_ns"`
	SourceCalls   uint64 `json:"source_calls"`
	Offered       uint64 `json:"bulk_offered"`
	Absorbed      uint64 `json:"bulk_absorbed"`
	DeviceCtorNs  int64  `json:"device_ctor_ns"`
	SchemeCtorNs  int64  `json:"scheme_ctor_ns"`
	SourceCtorNs  int64  `json:"source_ctor_ns"`
	GenerateNs    int64  `json:"pv_generate_ns"`
	DemandWrites  uint64 `json:"demand_writes"`
	FFEvents      uint64 `json:"ff_events"`
	RefAbsorbed   uint64 `json:"ref_bulk_absorbed"`
	DeviceWrites  uint64 `json:"device_writes"`
	SwapWrites    uint64 `json:"swap_writes"`
	TracedMatches bool   `json:"traced_matches"`
}

// traceCell runs one cell twice: through the facade (the reference: its
// result and time, plus — when the source has a bulk path — the fast-path
// counts of a metrics registry), then built by the span constructors and run
// under the timing wrappers. The traced run must reproduce the reference
// result and absorb exactly the writes the reference absorbed in bulk.
func traceCell(c gridCell, sys twl.SystemConfig) (cellSpans, twl.LifetimeResult, error) {
	sp := cellSpans{Cell: c.name}
	var cell spans.Cell
	err := guard(func() (err error) {
		cell, err = c.build(sys)
		return err
	})
	sp.DeviceCtorNs, sp.SchemeCtorNs, sp.SourceCtorNs = cell.DeviceNs, cell.SchemeNs, cell.SourceNs
	if err != nil {
		return sp, twl.LifetimeResult{}, err
	}

	// Per-request metrics would slow a source without a bulk path, whose
	// reference absorbs nothing in bulk anyway.
	var lc twl.LifetimeConfig
	bulk := spans.HasBulkPath(cell.Source)
	if bulk {
		lc.Metrics = twl.NewMetrics()
	}
	start := time.Now()
	ref, err := c.runGuarded(sys, lc)
	sp.RefNs = int64(time.Since(start))
	if err != nil {
		return sp, ref, err
	}
	if bulk {
		sp.RefAbsorbed, sp.FFEvents = spans.FastForward(lc.Metrics, ref.Scheme)
	}

	// The traced run carries a registry exactly when the reference does, so
	// trace.overhead compares like with like.
	var reg *twl.MetricsRegistry
	if bulk {
		reg = twl.NewMetrics()
	}
	var run spans.Run
	if err := guard(func() (err error) {
		run, err = spans.RunCell(cell, reg)
		return err
	}); err != nil {
		return sp, ref, fmt.Errorf("traced run: %w", err)
	}
	if sp.GenerateNs, err = spans.GenerateNs(sys); err != nil {
		return sp, ref, err
	}
	sp.RunNs, sp.SchemeNs, sp.SchemeCalls = run.Ns, run.Scheme.Estimate(), run.Scheme.Calls
	sp.SourceNs, sp.SourceCalls = run.Source.Estimate(), run.Source.Calls
	sp.Offered, sp.Absorbed = run.Scheme.Offered, run.Scheme.Absorbed
	sp.DemandWrites, sp.DeviceWrites, sp.SwapWrites = ref.DemandWrites, ref.DeviceWrites, ref.SwapWrites
	sp.TracedMatches = run.Result == ref
	switch {
	case !sp.TracedMatches:
		return sp, ref, mismatchf("traced result %+v differs from the facade's %+v", run.Result, ref)
	case sp.Absorbed != sp.RefAbsorbed:
		return sp, ref, mismatchf("traced run absorbed %d writes in bulk, the unwrapped run %d",
			sp.Absorbed, sp.RefAbsorbed)
	}
	return sp, ref, nil
}

// layerTotals sums traced cells into the per-layer metrics.
func layerTotals(r *report, cells []cellSpans) {
	var t cellSpans
	for _, c := range cells {
		t.RefNs += c.RefNs
		t.RunNs += c.RunNs
		t.SchemeNs += c.SchemeNs
		t.SourceNs += c.SourceNs
		t.Offered += c.Offered
		t.Absorbed += c.Absorbed
		t.DeviceCtorNs += c.DeviceCtorNs
		t.SchemeCtorNs += c.SchemeCtorNs
		t.SourceCtorNs += c.SourceCtorNs
		t.GenerateNs += c.GenerateNs
		t.DemandWrites += c.DemandWrites
		t.DeviceWrites += c.DeviceWrites
		t.SwapWrites += c.SwapWrites
		t.FFEvents += c.FFEvents
	}
	n, d := float64(len(cells)), float64(t.DemandWrites)
	if n == 0 || d == 0 {
		return
	}
	r.set("scheme.ns_per_write", float64(t.SchemeNs)/d)
	r.set("source.ns_per_write", float64(t.SourceNs)/d)
	r.set("sim.self_ns_per_write", float64(t.RunNs-t.SchemeNs-t.SourceNs)/d)
	r.set("sim.bulk_share", float64(t.Absorbed)/d)
	if t.Offered > 0 {
		r.set("sim.absorb_ratio", float64(t.Absorbed)/float64(t.Offered))
	}
	r.set("construct.device_ms", float64(t.DeviceCtorNs)/n/1e6)
	r.set("construct.scheme_ms", float64(t.SchemeCtorNs)/n/1e6)
	r.set("construct.source_ms", float64(t.SourceCtorNs)/n/1e6)
	r.set("pv.generate_ms", float64(t.GenerateNs)/n/1e6)
	r.set("sim.demand_writes", d)
	r.set("sim.device_writes", float64(t.DeviceWrites))
	r.set("sim.swap_writes", float64(t.SwapWrites))
	r.set("sim.ff_events", float64(t.FFEvents))
	r.set("trace.overhead", float64(t.RunNs)/float64(t.RefNs))
	r.set("cells_per_s", n/(float64(t.RefNs)/1e9))
}

// writeSpans writes the span records of a traced run as one JSON file in the
// state directory.
func writeSpans(o options, records any) (string, error) {
	path := filepath.Join(o.state, fmt.Sprintf("spans-%s-seed%d.json", o.workload, o.seed))
	b, err := json.MarshalIndent(records, "", " ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}

func traceGrid(o options, r *report, cells []gridCell, sys twl.SystemConfig, v *verifier) error {
	var traced []cellSpans
	h := startHost()
	for _, c := range cells {
		sp, res, err := traceCell(c, sys)
		if err == nil {
			err = v.verify(c.name, fromLifetime(res))
		}
		if err == nil {
			traced = append(traced, sp)
		}
		r.tally.record(c.name, err)
	}
	h.finish()
	layerTotals(r, traced)
	r.host(h)
	path, err := writeSpans(o, traced)
	if err != nil {
		return err
	}
	r.note("%s traced: %d of %d cells; spans in %s", o.workload, len(traced), len(cells), path)
	return nil
}
