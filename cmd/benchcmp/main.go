// Command benchcmp compares two benchff reports, joined on scheme × attack,
// and flags regressions on both simulation paths: configurations whose
// perwrite_ns_per_write grew by more than the threshold between the old and
// new report, and configurations that took the fast path in both reports
// whose fast_ns_per_write grew the same way. The per-write path is the
// simulator's correctness baseline — every scheme runs it, and the
// differential tests diff against it — so a slowdown there taxes every
// benchmark and every long differential run; the fast path is the product
// being grown, so a slowdown there silently erodes the speedups the
// trajectory records.
//
// When both reports carry benchff's footprint audit, the same threshold
// additionally gates bytes-per-page per scheme — the layout is
// deterministic, so any growth is a real regression, not noise. Reports
// from before the wide storage layout was removed also carry a wide
// column; it is ignored.
//
//	go run ./cmd/benchcmp BENCH_PR7.json BENCH_PR9.json
//
// Exits 1 when any joined configuration regressed beyond -threshold, 2 on
// usage or read errors. Configurations present in only one report are
// listed but never fatal (the grid legitimately grows as schemes gain fast
// paths).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

type result struct {
	Scheme     string  `json:"scheme"`
	Attack     string  `json:"attack"`
	FastPath   bool    `json:"fast_path"`
	PerWriteNs float64 `json:"perwrite_ns_per_write"`
	FastNs     float64 `json:"fast_ns_per_write"`
}

// footprint mirrors benchff's per-scheme memory audit. Reports predating
// the audit have a nil map; the footprint gate only engages when both
// reports carry it.
type footprint struct {
	BytesPerPage float64 `json:"packed_bytes_per_page"`
}

type report struct {
	Results   []result             `json:"results"`
	Footprint map[string]footprint `json:"footprint_bytes_per_page"`
}

func load(path string) (map[string]result, map[string]footprint, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	var rep report
	if err := json.Unmarshal(buf, &rep); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(rep.Results) == 0 {
		return nil, nil, fmt.Errorf("%s: no results", path)
	}
	out := make(map[string]result, len(rep.Results))
	for _, r := range rep.Results {
		out[r.Scheme+"/"+r.Attack] = r
	}
	return out, rep.Footprint, nil
}

func main() {
	threshold := flag.Float64("threshold", 0.20, "fatal per-write-path slowdown as a fraction (0.20 = +20%)")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchcmp [-threshold 0.20] OLD.json NEW.json")
		os.Exit(2)
	}
	oldPath, newPath := flag.Arg(0), flag.Arg(1)
	oldRes, oldFP, err := load(oldPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchcmp: %v\n", err)
		os.Exit(2)
	}
	newRes, newFP, err := load(newPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchcmp: %v\n", err)
		os.Exit(2)
	}

	keys := make([]string, 0, len(oldRes))
	for k := range oldRes {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	regressed := false
	joined := 0
	for _, k := range keys {
		o := oldRes[k]
		n, ok := newRes[k]
		if !ok {
			fmt.Printf("%-20s only in %s\n", k, oldPath)
			continue
		}
		joined++
		delta := n.PerWriteNs/o.PerWriteNs - 1
		mark := ""
		if delta > *threshold {
			mark = "  REGRESSED"
			regressed = true
		}
		fmt.Printf("%-20s perwrite %8.2f -> %8.2f ns/write  (%+6.1f%%)%s\n",
			k, o.PerWriteNs, n.PerWriteNs, delta*100, mark)
		// The fast path is only comparable when both reports actually took
		// it; a per-write-fallback cell gaining a fast path is growth, not a
		// regression.
		if o.FastPath && n.FastPath {
			fdelta := n.FastNs/o.FastNs - 1
			fmark := ""
			if fdelta > *threshold {
				fmark = "  REGRESSED"
				regressed = true
			}
			fmt.Printf("%-20s fast     %8.2f -> %8.2f ns/write  (%+6.1f%%)%s\n",
				k, o.FastNs, n.FastNs, fdelta*100, fmark)
		}
	}
	newOnly := 0
	for k := range newRes {
		if _, ok := oldRes[k]; !ok {
			newOnly++
		}
	}
	if newOnly > 0 {
		fmt.Printf("%d configurations only in %s (grid grew)\n", newOnly, newPath)
	}
	if joined == 0 {
		fmt.Fprintln(os.Stderr, "benchcmp: no common configurations to compare")
		os.Exit(2)
	}

	// Footprint gate: the memory layout is deterministic (no wall-clock
	// noise), so any growth beyond the threshold is a real layout
	// regression. Absent maps (older reports) skip the gate.
	fpJoined := 0
	if len(oldFP) > 0 && len(newFP) > 0 {
		fpKeys := make([]string, 0, len(oldFP))
		for k := range oldFP {
			fpKeys = append(fpKeys, k)
		}
		sort.Strings(fpKeys)
		for _, k := range fpKeys {
			o := oldFP[k]
			n, ok := newFP[k]
			if !ok {
				continue
			}
			fpJoined++
			if o.BytesPerPage <= 0 {
				continue
			}
			delta := n.BytesPerPage/o.BytesPerPage - 1
			mark := ""
			if delta > *threshold {
				mark = "  REGRESSED"
				regressed = true
			}
			fmt.Printf("%-20s footprint %7.1f -> %7.1f B/page  (%+6.1f%%)%s\n",
				k, o.BytesPerPage, n.BytesPerPage, delta*100, mark)
		}
	}

	if regressed {
		fmt.Fprintf(os.Stderr, "benchcmp: a simulation path or footprint regressed beyond %.0f%% on at least one configuration\n", *threshold*100)
		os.Exit(1)
	}
	if fpJoined > 0 {
		fmt.Printf("footprints within %.0f%% on all %d common schemes\n", *threshold*100, fpJoined)
	}
	fmt.Printf("both paths within %.0f%% on all %d common configurations\n", *threshold*100, joined)
}
