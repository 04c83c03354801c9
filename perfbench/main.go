// Command perfbench is the repository benchmark. It runs one named workload
// at a seed, times it from outside the simulator, checks every simulated
// result, and prints one JSON object as its last line of output:
//
//	perfbench --workload attack_grid --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the object carries the end-to-end metrics; with --trace 1 a
// separate traced run carries the per-layer ones (see package spans). The
// lines before it report every metric, with its unit, for a human reader.
// perfbench/run.py builds this program and the twlsimd daemon first; run
// both from the repository root.
//
// Workloads follow the paper's experiments (see workloads.json and
// BENCHMARK.json for why each exists): attack_grid (Fig. 6 cells),
// parsec_grid (Fig. 8 cells), sharded_twl (the Table 1 banked device at a
// reduced size) and service_campaign (a twlsimd campaign over HTTP).
package main

import (
	"embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"twl"
)

//go:embed workloads.json expect
var files embed.FS

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run; every workload reports all of
// them, and BENCHMARK.json bounds each. The gated cost per write is user CPU
// time: on a shared host the hypervisor can steal half a core for a minute,
// and kernel time for the service's files tracks the neighbours' disk
// traffic; both move wall time per write (ns_per_write, printed beside it on
// every run) by tens of percent.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"user_ns_per_write", "ns"},
	{"peak_rss_mb", "MiB"},
}

// perLayer are the metrics of a traced run. A layer a workload does not
// exercise reports 0.
var perLayer = []metricDef{
	{"cells_per_s", "1/s"},
	{"scheme.ns_per_write", "ns"},
	{"source.ns_per_write", "ns"},
	{"sim.self_ns_per_write", "ns"},
	{"sim.bulk_share", "ratio"},
	{"sim.absorb_ratio", "ratio"},
	{"construct.device_ms", "ms"},
	{"construct.scheme_ms", "ms"},
	{"construct.source_ms", "ms"},
	{"sim.demand_writes", "count"},
	{"sim.device_writes", "count"},
	{"sim.swap_writes", "count"},
	{"sim.ff_events", "count"},
	{"pv.generate_ms", "ms"},
	{"sharded.scout_s", "s"},
	{"sharded.exact_s", "s"},
	{"sharded.other_s", "s"},
	{"sharded.speedup_2w", "ratio"},
	{"sharded.utilization_2w", "ratio"},
	{"serve.submit_ms", "ms"},
	{"serve.status_ms", "ms"},
	{"serve.sim_ms_per_cell", "ms"},
	{"serve.overhead_ms_per_cell", "ms"},
	{"serve.hit_ms_per_cell", "ms"},
	{"serve.job_file_kb", "KiB"},
	{"serve.hit_cells_per_s", "1/s"},
	{"serve.hit_p50_ms", "ms"},
	{"serve.hit_p95_ms", "ms"},
	{"cache.get_us", "us"},
	{"cache.put_us", "us"},
	{"snap.ckpt_ms", "ms"},
	{"snap.ckpt_kb", "KiB"},
	{"serve.cells_simulated", "count"},
	{"serve.cells_cached", "count"},
	{"cache.hits", "count"},
	{"cache.misses", "count"},
	{"host.ref_ms", "ms"},
	{"host.steal_ticks", "count"},
	{"trace.overhead", "ratio"},
	{"failed_share", "ratio"},
}

// units maps every metric the program can report to its unit.
var units = func() map[string]string {
	m := map[string]string{"ns_per_write": "ns"}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		m[d.name] = d.unit
	}
	return m
}()

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	traced   bool
	state    string // scratch directory for daemon state and span files
	twlsimd  string // daemon binary
}

// report collects one run's outcome.
type report struct {
	tally   tally
	metrics map[string]float64
	lines   []string
}

func newReport() *report { return &report{metrics: map[string]float64{}} }

func (r *report) set(name string, v float64) { r.metrics[name] = v }

func (r *report) note(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// host records the host-speed bracket of the timed phase.
func (r *report) host(h *hostRecord) {
	r.set("host.ref_ms", h.refMS())
	r.set("host.steal_ticks", float64(h.steal))
	r.note("host.ref_ms before %.3f after %.3f (median of %d each)",
		median(h.before), median(h.after), hostRefReps)
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// print writes the human-readable lines, every metric with its unit, then
// the result object: the per-layer set for a traced run, where a layer the
// workload does not exercise reads 0, else the end-to-end set, which every
// workload must measure in full. correct means no completed operation
// produced a wrong result; errors and crashes are counted in failed.
func (r *report) print(w io.Writer, traced bool) error {
	set := endToEnd
	if traced {
		set = perLayer
	}
	r.set("failed_share", r.tally.share())
	for _, l := range r.lines {
		fmt.Fprintln(w, "#", l)
	}
	for _, n := range r.tally.notes {
		fmt.Fprintln(w, "# failed:", n)
	}
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-28s %16.6g %s\n", n, r.metrics[n], units[n])
	}
	out := jsonResult{
		Correct:   r.tally.mismatched == 0,
		Attempted: r.tally.attempted,
		Failed:    r.tally.failed,
		Metrics:   map[string]jsonMetric{},
	}
	for _, d := range set {
		v, ok := r.metrics[d.name]
		if !ok && !traced {
			return fmt.Errorf("workload did not measure %s", d.name)
		}
		out.Metrics[d.name] = jsonMetric{Value: v, Unit: d.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}

// workloadConfig is one entry of workloads.json. System shapes decode
// straight into twl.SystemConfig, so the benchmark names no config field it
// does not set.
type workloadConfig struct {
	System  twl.SystemConfig `json:"system"`
	Warmup  twl.SystemConfig `json:"warmup"`
	Schemes []string         `json:"schemes"`
	Attacks []string         `json:"attacks"`
	Shards  int              `json:"shards"`
	Seeds   int              `json:"seeds"`
}

func loadConfig(workload string) (workloadConfig, error) {
	b, err := files.ReadFile("workloads.json")
	if err != nil {
		return workloadConfig{}, err
	}
	var all map[string]workloadConfig
	if err := json.Unmarshal(b, &all); err != nil {
		return workloadConfig{}, fmt.Errorf("workloads.json: %w", err)
	}
	cfg, ok := all[workload]
	if !ok {
		return workloadConfig{}, fmt.Errorf("unknown workload %q", workload)
	}
	return cfg, nil
}

// seeded returns the configuration's system at seed.
func seeded(sys twl.SystemConfig, seed uint64) twl.SystemConfig {
	sys.Seed = seed
	return sys
}

// setupReps is how many times each run repeats its set-up; setup_s is the
// median.
const setupReps = 5

// timeSetup runs setup setupReps times and reports the median seconds.
func timeSetup(r *report, setup func() error) error {
	times := make([]float64, 0, setupReps)
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		if err := setup(); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(start).Seconds())
	}
	r.set("setup_s", median(times))
	return nil
}

func main() {
	var o options
	var trace int
	var expectOut, expectSeeds string
	flag.StringVar(&o.workload, "workload", "", "workload: attack_grid, parsec_grid, sharded_twl, service_campaign")
	flag.Uint64Var(&o.seed, "seed", 1, "input seed")
	flag.Float64Var(&o.seconds, "seconds", 30, "length of the timed phase in seconds; it ends with the cell or pass under way (service_campaign runs its campaign once)")
	flag.IntVar(&trace, "trace", 0, "1 for the traced per-layer run")
	flag.StringVar(&o.state, "state", ".bench_build/run", "scratch directory for daemon state and span files")
	flag.StringVar(&o.twlsimd, "twlsimd", ".bench_build/bin/twlsimd", "twlsimd daemon binary")
	flag.StringVar(&expectOut, "expect-out", "", "write the workload's expectations under this directory instead of benchmarking")
	flag.StringVar(&expectSeeds, "expect-seeds", "1", "seeds to record with -expect-out: a list like 0-10,42")
	flag.Parse()
	if trace != 0 && trace != 1 {
		fatal(fmt.Errorf("--trace must be 0 or 1, got %d", trace))
	}
	o.traced = trace == 1
	if o.seconds <= 0 {
		fatal(fmt.Errorf("--seconds must be positive"))
	}
	if err := os.MkdirAll(o.state, 0o755); err != nil {
		fatal(err)
	}
	if expectOut != "" {
		seeds, err := parseSeeds(expectSeeds)
		if err != nil {
			fatal(err)
		}
		fatal(writeExpectations(o, expectOut, seeds))
		return
	}
	r := newReport()
	var err error
	switch o.workload {
	case "attack_grid", "parsec_grid":
		err = runGrid(o, r)
	case "sharded_twl":
		err = runSharded(o, r)
	case "service_campaign":
		err = runService(o, r)
	default:
		err = fmt.Errorf("unknown workload %q", o.workload)
	}
	if err != nil {
		fatal(err)
	}
	fatal(r.print(os.Stdout, o.traced))
}

// fatal exits non-zero on an error, without printing a result.
func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// parseSeeds parses "0-10,42" into a seed list.
func parseSeeds(s string) ([]uint64, error) {
	var out []uint64
	for _, part := range strings.Split(s, ",") {
		lo, hi, isRange := strings.Cut(part, "-")
		a, err := strconv.ParseUint(lo, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad seed list %q: %w", s, err)
		}
		b := a
		if isRange {
			if b, err = strconv.ParseUint(hi, 10, 64); err != nil || b < a {
				return nil, fmt.Errorf("bad seed range %q", part)
			}
		}
		for v := a; v <= b; v++ {
			out = append(out, v)
		}
	}
	return out, nil
}
