// Command hwcost prints the Section 5.4 design-overhead report: per-page
// metadata storage (WCT/ET/RT/SWPT bits) and controller logic gates for the
// full-size 32 GB system, plus any alternative capacity via -pages.
package main

import (
	"flag"
	"fmt"
	"os"

	"twl"
	"twl/internal/cliutil"
	"twl/internal/hwcost"
	"twl/internal/report"
)

func main() {
	var (
		pages    = flag.Int("pages", 0, "page count for an alternative system (default: 32GB/4KB)")
		pageSize = flag.Int("pagesize", 4096, "page size in bytes")
	)
	flag.Parse()
	cliutil.Check("hwcost", cliutil.FirstError(
		cliutil.NoArgs(flag.Args()),
		cliutil.NonNegativeInt("-pages", *pages),
		cliutil.PositiveInt("-pagesize", *pageSize),
	))

	// The alternative system is costed before anything prints, so a
	// failure leaves stdout empty.
	var alt hwcost.StorageCost
	if *pages > 0 {
		cfg := hwcost.DefaultStorageConfig()
		cfg.Pages = *pages
		cfg.PageSize = *pageSize
		var err error
		if alt, err = hwcost.Storage(cfg); err != nil {
			fmt.Fprintln(os.Stderr, err) // hwcost's errors carry the tool's name
			os.Exit(1)
		}
	}

	hc := twl.HardwareCost()
	tb := report.NewTable("Section 5.4 — TWL design overhead (32 GB system)", "item", "cost")
	tb.AddRowf("WCT entry", fmt.Sprintf("%d bits", hc.Storage.WCTBits))
	tb.AddRowf("ET entry", fmt.Sprintf("%d bits", hc.Storage.ETBits))
	tb.AddRowf("RT entry", fmt.Sprintf("%d bits", hc.Storage.RTBits))
	tb.AddRowf("SWPT entry", fmt.Sprintf("%d bits", hc.Storage.SWPTBits))
	tb.AddRowf("total per page", fmt.Sprintf("%d bits", hc.TotalBits))
	tb.AddRowf("storage ratio", fmt.Sprintf("%.3g (paper: 2.5e-3)", hc.StorageRatio))
	tb.AddRowf("RNG (8-bit Feistel)", fmt.Sprintf("<=%d gates", hc.Logic.RNGGates))
	tb.AddRowf("divider + comparators", fmt.Sprintf("%d gates", hc.Logic.ArithmeticGates))
	tb.AddRowf("total logic", fmt.Sprintf("%d gates", hc.Logic.TotalGates))
	if err := tb.Render(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "hwcost:", err)
		os.Exit(1)
	}

	if *pages > 0 {
		fmt.Printf("\nAlternative system (%d pages x %d B): %d bits/page, ratio %.3g\n",
			*pages, *pageSize, alt.TotalBits(), alt.Ratio(*pageSize))
	}
}
