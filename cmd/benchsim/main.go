// Command benchsim regenerates the benchmark experiments of the paper:
//
//	benchsim -table2   PARSEC write bandwidths and lifetimes (Table 2)
//	benchsim -fig8     normalized lifetime per benchmark (Figure 8)
//	benchsim -fig9     normalized execution time per benchmark (Figure 9)
//
// All run on the scaled default system; -pages/-endurance/-seed adjust the
// scale and -benchmarks restricts the suite (comma-separated Table 2 names).
// With none selected, all three run. A flag for an experiment that does
// not run exits 2: -requests needs Figure 9, -benchmarks and -metrics need
// Figure 8 or 9, and -trace needs Figure 8.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"twl"
	"twl/internal/cliutil"
	"twl/internal/obs"
	"twl/internal/report"
)

func main() {
	var (
		table2    = flag.Bool("table2", false, "regenerate Table 2")
		fig8      = flag.Bool("fig8", false, "regenerate Figure 8")
		fig9      = flag.Bool("fig9", false, "regenerate Figure 9")
		pages     = flag.Int("pages", 0, "simulated pages (default: DefaultSystem)")
		endurance = flag.Float64("endurance", 0, "mean endurance (default: DefaultSystem)")
		seed      = flag.Uint64("seed", 1, "simulation seed")
		benches   = flag.String("benchmarks", "", "comma-separated benchmark subset")
		requests  = flag.Int("requests", 0, "Figure 9 requests per benchmark (default 1e6)")
		metrics   = flag.Bool("metrics", false, "print a metrics report (cell timing, per-scheme latency histograms) after the runs")
		traceFile = flag.String("trace", "", "write JSONL trace events to this file, one event per grid cell")
		pprofPfx  = flag.String("pprof", "", "capture CPU+heap profiles to PREFIX.cpu.pprof / PREFIX.heap.pprof")
	)
	flag.Parse()
	if !*table2 && !*fig8 && !*fig9 {
		*table2, *fig8, *fig9 = true, true, true
	}
	// A flag named for an experiment that does not run would be ignored:
	// Table 2 takes none of them, and only Figure 8 traces its cells.
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	cliutil.Check("benchsim", cliutil.FirstError(
		cliutil.NoArgs(flag.Args()),
		cliutil.NonNegativeInt("-pages", *pages),
		cliutil.NonNegativeFloat("-endurance", *endurance),
		cliutil.NonNegativeInt("-requests", *requests),
		cliutil.Requires("-requests", set["requests"], "-fig9", *fig9),
		cliutil.Requires("-benchmarks", set["benchmarks"], "-fig8 or -fig9", *fig8 || *fig9),
		cliutil.Requires("-metrics", set["metrics"], "-fig8 or -fig9", *fig8 || *fig9),
		cliutil.Requires("-trace", set["trace"], "-fig8", *fig8),
	))

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
		tr = twl.NewRunTracer(f, 0)
		defer func() { fatal(tr.Err()) }()
	}

	sys := twl.DefaultSystem(*seed)
	if *pages > 0 {
		sys.Pages = *pages
	}
	if *endurance > 0 {
		sys.MeanEndurance = *endurance
	}
	var subset []string
	if *benches != "" {
		subset = strings.Split(*benches, ",")
	}

	if *table2 {
		runTable2(sys)
	}
	if *fig8 {
		cfg := twl.DefaultFig8Config()
		cfg.Benchmarks = subset
		cfg.Metrics = reg
		cfg.Trace = tr
		runFig8(sys, cfg)
	}
	if *fig9 {
		cfg := twl.DefaultFig9Config()
		cfg.Benchmarks = subset
		cfg.Metrics = reg
		if *requests > 0 {
			cfg.Requests = *requests
		}
		runFig9(sys, cfg)
	}
	if reg != nil {
		fmt.Println()
		fatal(reg.WriteText(os.Stdout))
	}
}

func runTable2(sys twl.SystemConfig) {
	rows, err := twl.RunTable2(sys)
	fatal(err)
	tb := report.NewTable("Table 2 — PARSEC benchmarks (reproduced vs paper)",
		"benchmark", "write BW (MB/s)", "ideal (y)", "paper ideal", "w/o WL (y)", "paper w/o WL")
	for _, r := range rows {
		tb.AddRow(r.Benchmark,
			fmt.Sprintf("%.0f", r.WriteBandwidthMBps),
			fmt.Sprintf("%.1f", r.IdealYears),
			fmt.Sprintf("%.1f", r.PaperIdealYears),
			fmt.Sprintf("%.2f", r.NoWLYears),
			fmt.Sprintf("%.1f", r.PaperNoWLYears))
	}
	fatal(tb.Render(os.Stdout))
}

func runFig8(sys twl.SystemConfig, cfg twl.Fig8Config) {
	res, err := twl.RunFig8(sys, cfg)
	fatal(err)
	headers := append([]string{"benchmark"}, cfg.Schemes...)
	tb := report.NewTable("\nFigure 8 — normalized lifetime (fraction of ideal)", headers...)
	for _, row := range res.Rows {
		cells := []string{row.Benchmark}
		for _, s := range cfg.Schemes {
			cells = append(cells, fmt.Sprintf("%.3f", row.Normalized[s]))
		}
		tb.AddRow(cells...)
	}
	cells := []string{"MEAN"}
	for _, s := range cfg.Schemes {
		cells = append(cells, fmt.Sprintf("%.3f", res.Mean[s]))
	}
	tb.AddRow(cells...)
	fatal(tb.Render(os.Stdout))

	chart := report.NewSeries("\nMean normalized lifetime", "")
	for _, s := range cfg.Schemes {
		chart.Add(s, res.Mean[s])
	}
	fatal(chart.Render(os.Stdout, 40))
}

func runFig9(sys twl.SystemConfig, cfg twl.Fig9Config) {
	res, err := twl.RunFig9(sys, cfg)
	fatal(err)
	headers := append([]string{"benchmark"}, cfg.Schemes...)
	tb := report.NewTable("\nFigure 9 — normalized execution time (vs no wear leveling)", headers...)
	for _, row := range res.Rows {
		cells := []string{row.Benchmark}
		for _, s := range cfg.Schemes {
			cells = append(cells, fmt.Sprintf("%.4f", row.Normalized[s]))
		}
		tb.AddRow(cells...)
	}
	cells := []string{"MEAN"}
	for _, s := range cfg.Schemes {
		cells = append(cells, fmt.Sprintf("%.4f", res.Mean[s]))
	}
	tb.AddRow(cells...)
	fatal(tb.Render(os.Stdout))
	for _, s := range cfg.Schemes {
		fmt.Printf("%s mean overhead: %.2f%%\n", s, 100*(res.Mean[s]-1))
	}
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchsim:", err)
		os.Exit(1)
	}
}
