// Command benchff measures the run-length fast-forward engine: full
// lifetime runs (to first page failure) at SmallSystem scale, per scheme ×
// attack, once through the fast-forward path and once pinned to the
// per-write path. Runs are interleaved and each configuration reports its
// best-of-N wall clock, which suppresses scheduler noise; the two paths are
// verified to produce identical results before a ratio is reported.
//
// The grid enumerates every registered scheme (twl.SchemeNames), so a new
// scheme lands in the benchmark without touching this tool, and the tool
// fails if a scheme implementing the fast-path interfaces is excluded from
// the grid — the benchmark trajectory must not silently lose coverage.
//
// The grid covers the repeat and scan attacks plus the paper's inconsistent
// attack, whose feedback-driven stream is bulk-capable between detected-swap
// events (the random attack has no run structure to absorb, so it stays off
// the grid; fast_path_coverage still reports it).
//
// The report also audits memory: for every scheme, the simulated
// controller's bytes per page (scheme metadata tables plus device state
// arrays), which benchcmp gates against regressing.
//
// The output JSON (BENCH_PR9.json in the repo root) extends the repo's
// benchmark trajectory (BENCH_PR2.json holds the deterministic-scheme
// baseline, BENCH_PR4.json the first event-horizon generation,
// BENCH_PR7.json the closed fast-path gap):
//
//	go run ./cmd/benchff -out BENCH_PR9.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"time"

	"twl"
	"twl/internal/clock"
)

// runWriter / sweepWriter mirror the internal fast-forward interfaces
// structurally (twl.Cost aliases the internal cost type), so the tool can
// report which schemes actually take the fast path.
type runWriter interface {
	WriteRun(la int, tag uint64, n int) (twl.Cost, int)
}

type sweepWriter interface {
	WriteSweep(la int, tag uint64, n int) (twl.Cost, int)
}

type result struct {
	Scheme       string  `json:"scheme"`
	Attack       string  `json:"attack"`
	FastPath     bool    `json:"fast_path"`
	DemandWrites uint64  `json:"demand_writes"`
	PerWriteNs   float64 `json:"perwrite_ns_per_write"`
	FastNs       float64 `json:"fast_ns_per_write"`
	Speedup      float64 `json:"speedup"`
}

// coverage reports which fast-path interfaces a scheme implements and which
// of the four attacks its lifetime runs can absorb through the bulk loop:
// repeat and inconsistent ride the RunWriter interface (the inconsistent
// stream emits deterministic stretches between feedback events), scan rides
// SweepWriter, and random has no run structure to absorb.
type coverage struct {
	Run     bool            `json:"run"`
	Sweep   bool            `json:"sweep"`
	Attacks map[string]bool `json:"attacks"`
}

// footprint is the per-scheme memory audit: total simulated-controller
// bytes per page (scheme metadata tables where the scheme itemizes them,
// plus the device's per-page state arrays). The JSON key predates the
// removal of the wide storage layout and is kept so benchcmp can compare
// against the committed reports.
type footprint struct {
	SchemeTables bool    `json:"scheme_tables_reported"`
	BytesPerPage float64 `json:"packed_bytes_per_page"`
}

type report struct {
	Bench   string `json:"bench"`
	Command string `json:"command"`
	System  struct {
		Pages         int     `json:"pages"`
		MeanEndurance float64 `json:"mean_endurance"`
		SigmaFraction float64 `json:"sigma_fraction"`
		Seed          uint64  `json:"seed"`
	} `json:"system"`
	Reps      int                  `json:"reps"`
	Coverage  map[string]coverage  `json:"fast_path_coverage"`
	Footprint map[string]footprint `json:"footprint_bytes_per_page"`
	Results   []result             `json:"results"`
	Geomean   map[string]float64   `json:"geomean_speedup_fast_path_schemes"`
}

func main() {
	out := flag.String("out", "BENCH_PR9.json", "output JSON path (empty: stdout only)")
	reps := flag.Int("reps", 10, "timed repetitions per configuration (best-of)")
	seed := flag.Uint64("seed", 1, "system and scheme seed")
	schemes := flag.String("schemes", "", "comma-separated scheme names (default: every registered scheme)")
	flag.Parse()

	names := twl.SchemeNames()
	if *schemes != "" {
		names = nil
		for _, name := range strings.Split(*schemes, ",") {
			names = append(names, strings.TrimSpace(name))
		}
	}

	sys := twl.SmallSystem(*seed)
	var rep report
	rep.Bench = "run-length fast-forward vs per-write lifetime simulation"
	rep.Command = "go run ./cmd/benchff"
	rep.System.Pages = sys.Pages
	rep.System.MeanEndurance = sys.MeanEndurance
	rep.System.SigmaFraction = sys.SigmaFraction
	rep.System.Seed = sys.Seed
	rep.Reps = *reps
	rep.Coverage = map[string]coverage{}
	rep.Footprint = map[string]footprint{}
	rep.Geomean = map[string]float64{}

	benched := map[string]bool{}
	for _, name := range names {
		cov, err := probeCoverage(sys, name, *seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchff: %s: %v\n", name, err)
			os.Exit(1)
		}
		rep.Coverage[name] = cov
		fp, err := probeFootprint(sys, name, *seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchff: %s: %v\n", name, err)
			os.Exit(1)
		}
		rep.Footprint[name] = fp
		fmt.Printf("%-10s footprint %7.1f B/page\n", name, fp.BytesPerPage)
		benched[name] = true
	}

	modes := []struct {
		name string
		mode twl.AttackMode
	}{
		{"repeat", twl.AttackRepeat},
		{"scan", twl.AttackScan},
		{"inconsistent", twl.AttackInconsistent},
	}

	for _, m := range modes {
		logSum, logN := 0.0, 0
		for _, name := range names {
			r, err := measure(sys, name, m.name, m.mode, *reps, *seed)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchff: %s/%s: %v\n", m.name, name, err)
				os.Exit(1)
			}
			rep.Results = append(rep.Results, r)
			fmt.Printf("%-8s %-10s fast %8.2f ns/write   perwrite %8.2f ns/write   speedup %5.2fx%s\n",
				m.name, name, r.FastNs, r.PerWriteNs, r.Speedup,
				map[bool]string{true: "", false: "   (per-write fallback)"}[r.FastPath])
			if r.FastPath {
				logSum += math.Log(r.Speedup)
				logN++
			}
		}
		if logN > 0 {
			g := math.Exp(logSum / float64(logN))
			rep.Geomean[m.name] = math.Round(g*100) / 100
			fmt.Printf("%-8s geomean over fast-path schemes: %.2fx\n", m.name, g)
		}
	}

	// The benchmark grid must cover every scheme with a fast path: a
	// RunWriter scheme missing from the grid means the trajectory silently
	// stops tracking a path this repo optimized.
	missing := false
	for _, name := range twl.SchemeNames() {
		if benched[name] {
			continue
		}
		cov, err := probeCoverage(sys, name, *seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchff: %s: %v\n", name, err)
			os.Exit(1)
		}
		if cov.Run || cov.Sweep {
			fmt.Fprintf(os.Stderr, "benchff: scheme %s implements the fast path but is not in the benchmark grid\n", name)
			missing = true
		}
	}
	if missing {
		os.Exit(1)
	}

	if *out != "" {
		buf, err := json.MarshalIndent(&rep, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchff: %v\n", err)
			os.Exit(1)
		}
		buf = append(buf, '\n')
		if err := os.WriteFile(*out, buf, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "benchff: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *out)
	}
}

// probeCoverage instantiates a scheme once to see which fast-path
// interfaces it implements.
func probeCoverage(sys twl.SystemConfig, scheme string, seed uint64) (coverage, error) {
	dev, err := sys.NewDevice()
	if err != nil {
		return coverage{}, err
	}
	s, err := twl.NewScheme(scheme, dev, seed)
	if err != nil {
		return coverage{}, err
	}
	var cov coverage
	_, cov.Run = s.(runWriter)
	_, cov.Sweep = s.(sweepWriter)
	cov.Attacks = map[string]bool{
		"repeat":       cov.Run,
		"random":       false,
		"scan":         cov.Sweep,
		"inconsistent": cov.Run,
	}
	return cov, nil
}

// stackBytes builds the scheme over a fresh device and sums its reported
// table bytes (0 for schemes that do not itemize) with the device's per-page
// state arrays.
func stackBytes(sys twl.SystemConfig, scheme string, seed uint64) (int64, bool, error) {
	dev, err := sys.NewDevice()
	if err != nil {
		return 0, false, err
	}
	s, err := twl.NewScheme(scheme, dev, seed)
	if err != nil {
		return 0, false, err
	}
	tables, reported := twl.TableBytesOf(s)
	return tables + dev.Footprint().Total(), reported, nil
}

// probeFootprint audits one scheme's bytes-per-page.
func probeFootprint(sys twl.SystemConfig, scheme string, seed uint64) (footprint, error) {
	total, reported, err := stackBytes(sys, scheme, seed)
	if err != nil {
		return footprint{}, err
	}
	return footprint{
		SchemeTables: reported,
		BytesPerPage: math.Round(float64(total)/float64(sys.Pages)*100) / 100,
	}, nil
}

// measure times full lifetime runs for one scheme × attack, interleaving the
// fast and per-write paths and keeping the best wall clock of each.
func measure(sys twl.SystemConfig, scheme, modeName string, mode twl.AttackMode, reps int, seed uint64) (result, error) {
	var r result
	r.Scheme = scheme
	r.Attack = modeName

	bestFast := time.Duration(math.MaxInt64)
	bestSlow := time.Duration(math.MaxInt64)
	var fastRes, slowRes twl.LifetimeResult
	for i := 0; i < reps; i++ {
		for _, disable := range []bool{false, true} {
			res, elapsed, fastPath, err := runOnce(sys, scheme, mode, seed, disable)
			if err != nil {
				return r, err
			}
			if disable {
				slowRes = res
				if elapsed < bestSlow {
					bestSlow = elapsed
				}
			} else {
				fastRes = res
				r.FastPath = fastPath
				if elapsed < bestFast {
					bestFast = elapsed
				}
			}
		}
	}
	if fastRes != slowRes {
		return r, fmt.Errorf("paths diverge: fast %+v, per-write %+v", fastRes, slowRes)
	}
	if fastRes.DemandWrites == 0 {
		return r, fmt.Errorf("run served no writes")
	}
	r.DemandWrites = fastRes.DemandWrites
	w := float64(fastRes.DemandWrites)
	r.FastNs = math.Round(float64(bestFast.Nanoseconds())/w*100) / 100
	r.PerWriteNs = math.Round(float64(bestSlow.Nanoseconds())/w*100) / 100
	r.Speedup = math.Round(r.PerWriteNs/r.FastNs*100) / 100
	return r, nil
}

// runOnce builds a fresh system and times one lifetime run.
func runOnce(sys twl.SystemConfig, scheme string, mode twl.AttackMode, seed uint64, disableFF bool) (twl.LifetimeResult, time.Duration, bool, error) {
	dev, err := sys.NewDevice()
	if err != nil {
		return twl.LifetimeResult{}, 0, false, err
	}
	s, err := twl.NewScheme(scheme, dev, seed)
	if err != nil {
		return twl.LifetimeResult{}, 0, false, err
	}
	pages := dev.Pages()
	if lp, ok := s.(interface{ LogicalPages() int }); ok {
		pages = lp.LogicalPages()
	}
	src, err := twl.NewAttack(mode, pages, seed)
	if err != nil {
		return twl.LifetimeResult{}, 0, false, err
	}
	fastPath := false
	if mode == twl.AttackScan {
		_, fastPath = s.(sweepWriter)
	} else {
		_, fastPath = s.(runWriter)
	}
	start := clock.Now()
	res, err := twl.RunLifetimeWith(s, src, twl.LifetimeConfig{DisableFastForward: disableFF})
	elapsed := clock.Since(start)
	return res, elapsed, fastPath, err
}
