// Command twlint is the thin CLI over the project's static-analysis
// framework, internal/lint. The analyzers, the driver, and the golden
// fixtures all live there — see the package documentation of
// twl/internal/lint for the full list of contracts and DESIGN.md "Static
// contracts" for their rationale. Usage:
//
//	go run ./cmd/twlint [-json] [-budget twlint.budget] [-update-budget] ./...
//
// Exit status 1 when any finding remains, 2 on driver errors. No finding
// can be silenced: clearing one means changing the code or the analyzer.
// -budget enables the hotpath allocation-budget phase (escape-analysis diff
// against the committed budget file); -update-budget regenerates the file
// instead of diffing.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"twl/internal/lint"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit findings as a JSON array (CI mode)")
	budgetPath := flag.String("budget", "", "hotpath allocation-budget file; empty skips the budget phase")
	updateBudget := flag.Bool("update-budget", false, "rewrite the -budget file from the observed escape analysis")
	flag.Parse()
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	if *updateBudget && *budgetPath == "" {
		*budgetPath = "twlint.budget"
	}

	diags, err := lint.Run(patterns, lint.Options{
		BudgetPath:   *budgetPath,
		UpdateBudget: *updateBudget,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "twlint: %v\n", err)
		os.Exit(2)
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if diags == nil {
			diags = []lint.Diagnostic{}
		}
		if err := enc.Encode(diags); err != nil {
			fmt.Fprintf(os.Stderr, "twlint: %v\n", err)
			os.Exit(2)
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		os.Exit(1)
	}
}
