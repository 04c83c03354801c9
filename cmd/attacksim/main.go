// Command attacksim regenerates the attack experiments of the paper:
//
//	attacksim -fig6         lifetime under the four attack modes (Figure 6)
//	attacksim -fig7         toss-up interval sweep (Figure 7 a & b)
//	attacksim -retire       lifetime beyond first failure with a spare pool
//	attacksim -replicate N  Figure 6 inconsistent-attack cells over N seeds
//
// Only the selected experiments run; with none selected, -fig6 and -fig7
// do.
//
// The -retire experiment attaches the page-retirement decorator and runs
// each scheme past its first failure until the spare pool exhausts,
// answering: how much lifetime does the pool buy, and does the attack
// accelerate once its traffic concentrates on the spares?
//
// All run on the scaled default system; -pages/-endurance/-seed adjust the
// scale. Results print as tables plus ASCII bar charts mirroring the
// figures.
package main

import (
	"flag"
	"fmt"
	"os"

	"twl"
	"twl/internal/cliutil"
	"twl/internal/obs"
	"twl/internal/report"
)

func main() {
	var (
		fig6       = flag.Bool("fig6", false, "run the Figure 6 attack grid")
		fig7       = flag.Bool("fig7", false, "run the Figure 7 interval sweep")
		retire     = flag.Bool("retire", false, "run the post-failure retirement experiment")
		spareFrac  = flag.Float64("spare-frac", twl.DefaultSpareFraction, "spare-pool fraction for -retire")
		retireThr  = flag.Float64("retire-threshold", 0, "capacity threshold for -retire (0: run until the pool is exhausted)")
		pages      = flag.Int("pages", 0, "simulated pages (default: DefaultSystem)")
		endurance  = flag.Float64("endurance", 0, "mean endurance (default: DefaultSystem)")
		seed       = flag.Uint64("seed", 1, "simulation seed")
		requests   = flag.Int("requests", 0, "Figure 7a requests per benchmark (default 300000)")
		replicate  = flag.Int("replicate", 0, "replicate the Figure 6 TWL/BWL inconsistent cells over N seeds and report mean±std")
		metrics    = flag.Bool("metrics", false, "print a metrics report (grid-cell timing, worker utilization) after the runs")
		traceFile  = flag.String("trace", "", "write per-cell JSONL trace events to this file")
		traceEvery = flag.Uint64("trace-every", 0, "in-run progress event cadence (0: default)")
		pprofPfx   = flag.String("pprof", "", "capture CPU+heap profiles to PREFIX.cpu.pprof / PREFIX.heap.pprof")
	)
	flag.Parse()
	cliutil.Check("attacksim", cliutil.FirstError(
		cliutil.NoArgs(flag.Args()),
		cliutil.NonNegativeInt("-pages", *pages),
		cliutil.NonNegativeFloat("-endurance", *endurance),
		cliutil.NonNegativeInt("-requests", *requests),
		cliutil.NonNegativeInt("-replicate", *replicate),
		cliutil.Fraction("-spare-frac", *spareFrac, true),
		cliutil.Fraction("-retire-threshold", *retireThr, true),
	))
	if !*fig6 && !*fig7 && !*retire && *replicate == 0 {
		*fig6 = true
		*fig7 = true
	}

	if *pprofPfx != "" {
		stop, err := obs.StartProfile(*pprofPfx)
		fatal(err)
		defer func() { fatal(stop()) }()
	}
	var reg *twl.MetricsRegistry
	if *metrics {
		reg = twl.NewMetrics()
	}
	var tr *twl.Tracer
	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		fatal(err)
		defer func() { fatal(f.Close()) }()
		tr = twl.NewRunTracer(f, *traceEvery)
		defer func() { fatal(tr.Err()) }()
	}

	sys := twl.DefaultSystem(*seed)
	if *pages > 0 {
		sys.Pages = *pages
	}
	if *endurance > 0 {
		sys.MeanEndurance = *endurance
	}

	if *fig6 {
		runFig6(sys, reg, tr)
	}
	if *fig7 {
		cfg := twl.DefaultFig7Config()
		if *requests > 0 {
			cfg.RequestsPerBenchmark = *requests
		}
		runFig7(sys, cfg)
	}
	if *retire {
		runRetire(sys, *spareFrac, *retireThr, reg, tr)
	}
	if *replicate > 0 {
		runReplicate(sys, *replicate)
	}
	if reg != nil {
		fmt.Println()
		fatal(reg.WriteText(os.Stdout))
	}
}

// runRetire runs the post-failure experiment: each scheme under the
// inconsistent attack (the paper's hardest pattern) and, for contrast, the
// random attack, with a spare pool behind it. The Accel column compares the
// retirement rate early vs late in each run — above 1, failures arrive
// faster as the run ages, i.e. the attack accelerates once its traffic
// lands on the shrinking spare pool.
func runRetire(sys twl.SystemConfig, frac, threshold float64, reg *twl.MetricsRegistry, tr *twl.Tracer) {
	sys = sys.WithSpareFraction(frac)
	tb := report.NewTable(
		fmt.Sprintf("\nLifetime beyond first failure — %d spare pages (%.1f%%)", sys.SparePages, frac*100),
		"scheme", "attack", "first fail (y)", "final (y)", "extension", "mean gap (Mw)", "accel")
	for _, scheme := range []string{"NOWL", "BWL", "SR", "TWL_swp"} {
		for _, mode := range []twl.AttackMode{twl.AttackRandom, twl.AttackInconsistent} {
			cfg := twl.DefaultRetirementConfig()
			cfg.Scheme = scheme
			cfg.Mode = mode
			cfg.SpareFraction = frac
			cfg.CapacityThreshold = threshold
			cfg.Metrics = reg
			cfg.Trace = tr
			res, err := twl.RunRetirement(sys, cfg)
			fatal(err)
			accel := "n/a"
			if res.Accel > 0 {
				accel = fmt.Sprintf("%.2f", res.Accel)
			}
			tb.AddRow(scheme, mode.String(),
				fmt.Sprintf("%.3f", res.FirstFailureYears),
				fmt.Sprintf("%.3f", res.FinalYears),
				fmt.Sprintf("%.2fx", res.ExtensionRatio),
				fmt.Sprintf("%.3f", res.MeanGapWrites/1e6),
				accel)
		}
	}
	fatal(tb.Render(os.Stdout))
	fmt.Println("\naccel > 1: retirements arrive faster late in the run — the attack speeds up once it targets the spares.")
}

func runReplicate(sys twl.SystemConfig, n int) {
	fmt.Printf("\nReplication over %d seeds (normalized lifetime under the inconsistent attack):\n", n)
	for _, scheme := range []string{"TWL_swp", "BWL", "SR"} {
		res, err := twl.ReplicateAttackLifetime(sys, n, scheme, twl.AttackInconsistent)
		fatal(err)
		fmt.Printf("%-8s mean %.3f  std %.3f  min %.3f  max %.3f\n",
			scheme, res.Mean, res.StdDev, res.Min, res.Max)
	}
}

func runFig6(sys twl.SystemConfig, reg *twl.MetricsRegistry, tr *twl.Tracer) {
	cfg := twl.DefaultFig6Config()
	cfg.Metrics = reg
	cfg.Trace = tr
	res, err := twl.RunFig6(sys, cfg)
	fatal(err)
	tb := report.NewTable(
		fmt.Sprintf("Figure 6 — lifetime under attacks (years; ideal = %.2f y at 8 GB/s)", res.IdealYears),
		"scheme", "repeat", "random", "scan", "inconsistent", "gmean")
	for _, s := range res.Schemes {
		row := []string{s}
		for _, m := range res.Modes {
			row = append(row, fmt.Sprintf("%.2f", res.Cells[s][m.String()].Years))
		}
		row = append(row, fmt.Sprintf("%.2f", res.Gmean[s]))
		tb.AddRow(row...)
	}
	fatal(tb.Render(os.Stdout))

	chart := report.NewSeries("\nGmean lifetime under attacks", "y")
	for _, s := range res.Schemes {
		chart.Add(s, res.Gmean[s])
	}
	fatal(chart.Render(os.Stdout, 40))

	inc := res.Cells["BWL"]["inconsistent"]
	fmt.Printf("\nBWL under the inconsistent attack: %.3g years (%.0f hours) — the paper's headline collapse.\n",
		inc.Years, inc.Seconds/3600)
}

func runFig7(sys twl.SystemConfig, cfg twl.Fig7Config) {
	pts, err := twl.RunFig7(sys, cfg)
	fatal(err)
	tb := report.NewTable("\nFigure 7 — choosing the toss-up interval",
		"interval", "swap/write ratio (PARSEC gmean)", "scan-attack lifetime (y)")
	for _, p := range pts {
		tb.AddRow(fmt.Sprintf("%d", p.Interval),
			fmt.Sprintf("%.4f", p.SwapWriteRatio),
			fmt.Sprintf("%.2f", p.ScanLifetimeYears))
	}
	fatal(tb.Render(os.Stdout))
	fmt.Printf("\nMinimum requirement: %.0f years (server replacement cycle); the paper picks interval 32.\n",
		twl.MinimumLifetimeYears)
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "attacksim:", err)
		os.Exit(1)
	}
}
