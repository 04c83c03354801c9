// Command tracegen generates and inspects synthetic PARSEC memory traces.
//
//	tracegen -bench canneal -n 1000000 -o canneal.trace        # generate
//	tracegen -inspect canneal.trace                            # statistics
//
// The records are the request stream sim.FromWorkload serves from a
// generator of the same benchmark, pages and seed, in a text format for
// external tools: one "W addr" / "R addr" line per record. -inspect
// generates nothing, so it exits 2 beside any generation flag (-bench, -n,
// -pages, -seed, -o, -metrics).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"twl/internal/cliutil"
	"twl/internal/obs"
	"twl/internal/report"
	"twl/internal/trace"
)

func main() {
	var (
		bench    = flag.String("bench", "canneal", "PARSEC benchmark (Table 2 name)")
		n        = flag.Int("n", 1_000_000, "number of records to generate")
		pages    = flag.Int("pages", 2048, "logical page count")
		seed     = flag.Uint64("seed", 1, "generator seed")
		out      = flag.String("o", "", "output file (default stdout)")
		inspect  = flag.String("inspect", "", "inspect an existing trace file instead of generating")
		metrics  = flag.Bool("metrics", false, "print a record-count metrics report to stderr after generating")
		pprofPfx = flag.String("pprof", "", "capture CPU+heap profiles to PREFIX.cpu.pprof / PREFIX.heap.pprof")
	)
	flag.Parse()
	// -inspect generates nothing, so a generation flag named beside it
	// would be ignored.
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	inspecting := *inspect != ""
	cliutil.Check("tracegen", cliutil.FirstError(
		cliutil.NoArgs(flag.Args()),
		cliutil.PositiveInt("-n", *n),
		cliutil.PositiveInt("-pages", *pages),
		cliutil.Exclusive("-inspect", inspecting, "-bench", set["bench"]),
		cliutil.Exclusive("-inspect", inspecting, "-n", set["n"]),
		cliutil.Exclusive("-inspect", inspecting, "-pages", set["pages"]),
		cliutil.Exclusive("-inspect", inspecting, "-seed", set["seed"]),
		cliutil.Exclusive("-inspect", inspecting, "-o", set["o"]),
		cliutil.Exclusive("-inspect", inspecting, "-metrics", set["metrics"]),
	))

	if *pprofPfx != "" {
		stop, err := obs.StartProfile(*pprofPfx)
		fatal(err)
		defer func() { fatal(stop()) }()
	}

	if inspecting {
		fatal(inspectTrace(*inspect))
		return
	}

	b, err := trace.BenchmarkByName(*bench)
	fatal(err)
	g, err := trace.NewSynthetic(b, *pages, *seed)
	fatal(err)

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		fatal(err)
		defer func() { fatal(f.Close()) }()
		w = f
	}

	tw := trace.NewWriter(w)
	sink := tw.Write
	var reg *obs.Registry
	if *metrics {
		reg = obs.NewRegistry()
		reg.Help("twl_trace_records_total", "trace records generated, by op")
		writes := reg.Counter("twl_trace_records_total", obs.L("op", "write"))
		reads := reg.Counter("twl_trace_records_total", obs.L("op", "read"))
		sink = func(rec trace.Record) error {
			if rec.Op == trace.Write {
				writes.Inc()
			} else {
				reads.Inc()
			}
			return tw.Write(rec)
		}
	}
	fatal(g.Generate(*n, sink))
	fatal(tw.Flush())
	fmt.Fprintf(os.Stderr, "tracegen: %d text records (%s, %d pages, zipf s=%.3f)\n",
		tw.Count(), b.Name, *pages, g.Exponent())
	if reg != nil {
		fatal(reg.WriteText(os.Stderr))
	}
}

func inspectTrace(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer func() { _ = f.Close() }() // read side: Close cannot lose data

	r := trace.NewReader(f)
	counts := map[uint64]int{}
	var reads, writes int
	for {
		rec, err := r.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		if rec.Op == trace.Write {
			writes++
			counts[rec.Addr]++
		} else {
			reads++
		}
	}
	shares := make([]int, 0, len(counts))
	for _, c := range counts {
		shares = append(shares, c)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(shares)))
	tb := report.NewTable(fmt.Sprintf("Trace %s", path), "metric", "value")
	tb.AddRowf("records", reads+writes)
	tb.AddRowf("writes", writes)
	tb.AddRowf("reads", reads)
	tb.AddRowf("distinct written pages", len(counts))
	if len(shares) > 0 && writes > 0 {
		tb.AddRowf("hottest page share", fmt.Sprintf("%.4f", float64(shares[0])/float64(writes)))
		top10 := 0
		for i := 0; i < len(shares) && i < 10; i++ {
			top10 += shares[i]
		}
		tb.AddRowf("top-10 pages share", fmt.Sprintf("%.4f", float64(top10)/float64(writes)))
	}
	return tb.Render(os.Stdout)
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
}
