// Command twlint is the thin CLI over the project's static-analysis
// framework, internal/lint. The analyzers, the driver, and the golden
// fixtures all live there — see the package documentation of
// twl/internal/lint for the full list of contracts and DESIGN.md "Static
// contracts" for their rationale. Usage:
//
//	go run ./cmd/twlint [packages]   # default ./...
//
// It prints one "pos: [analyzer] message" line per finding and exits with
// status 1 when any finding remains, 2 on driver errors. No finding can be
// silenced: clearing one means changing the code or the analyzer.
package main

import (
	"flag"
	"fmt"
	"os"

	"twl/internal/lint"
)

func main() {
	flag.Parse()
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	diags, err := lint.Run(patterns)
	if err != nil {
		fmt.Fprintf(os.Stderr, "twlint: %v\n", err)
		os.Exit(2)
	}
	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		os.Exit(1)
	}
}
