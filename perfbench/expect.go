package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"

	"twl"
)

// result is the simulated outcome of one cell: the fields of
// twl.LifetimeResult that a run must reproduce exactly. These are outputs
// the benchmark checks, never performance metrics.
type result struct {
	DemandWrites uint64  `json:"demand_writes"`
	DemandReads  uint64  `json:"demand_reads"`
	DeviceWrites uint64  `json:"device_writes"`
	SwapWrites   uint64  `json:"swap_writes"`
	Swaps        uint64  `json:"swaps"`
	FailedPage   int     `json:"failed_page"`
	Capped       bool    `json:"capped"`
	Normalized   float64 `json:"normalized"`
	Cycles       int64   `json:"cycles"`
}

func fromLifetime(r twl.LifetimeResult) result {
	return result{
		DemandWrites: r.DemandWrites,
		DemandReads:  r.DemandReads,
		DeviceWrites: r.DeviceWrites,
		SwapWrites:   r.SwapWrites,
		Swaps:        r.Swaps,
		FailedPage:   r.FailedPage,
		Capped:       r.Capped,
		Normalized:   r.Normalized,
		Cycles:       r.Cycles,
	}
}

// digest is a short content hash of a result, used where a workload has too
// many cells to commit every field.
func (r result) digest() string {
	b, err := json.Marshal(r)
	if err != nil {
		panic(err) // a struct of numbers always encodes
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// mismatchError marks a result that differs from what it must equal.
type mismatchError struct{ msg string }

func (e *mismatchError) Error() string { return e.msg }

func mismatchf(format string, args ...any) error {
	return &mismatchError{fmt.Sprintf(format, args...)}
}

// seedExpect holds one seed's committed results: full results for small
// grids, digests for large ones.
type seedExpect struct {
	Cells   map[string]result `json:"cells,omitempty"`
	Digests map[string]string `json:"digests,omitempty"`
}

// expectations are the results committed with the benchmark, by seed. A
// seed without an entry is checked only for consistency.
type expectations struct {
	Seeds map[string]*seedExpect `json:"seeds"`
}

// loadExpectations reads the workload's committed results, which are
// embedded in the binary.
func loadExpectations(workload string) (*expectations, error) {
	b, err := files.ReadFile("expect/" + workload + ".json")
	if err != nil {
		return nil, fmt.Errorf("expectations: %w", err)
	}
	var e expectations
	if err := json.Unmarshal(b, &e); err != nil {
		return nil, fmt.Errorf("expectations %s: %w", workload, err)
	}
	return &e, nil
}

// check compares one cell against the committed result for its seed.
// checked is false when nothing is committed for the cell (an unlisted seed,
// or a cell that failed when the expectations were written); the caller
// then falls back to the consistency check.
func (e *expectations) check(seed uint64, cell string, got result) (checked bool, err error) {
	se, ok := e.Seeds[strconv.FormatUint(seed, 10)]
	if !ok {
		return false, nil
	}
	if want, ok := se.Cells[cell]; ok {
		if got != want {
			return true, mismatchf("%s seed %d: got %+v, want %+v", cell, seed, got, want)
		}
		return true, nil
	}
	if want, ok := se.Digests[cell]; ok {
		if d := got.digest(); d != want {
			return true, mismatchf("%s seed %d: result digest %s, want %s", cell, seed, d, want)
		}
		return true, nil
	}
	return false, nil
}

// record stores a seed's results, as full results or as digests.
func (e *expectations) record(seed uint64, cells map[string]result, digests bool) {
	if e.Seeds == nil {
		e.Seeds = map[string]*seedExpect{}
	}
	se := &seedExpect{}
	if digests {
		se.Digests = map[string]string{}
		for k, r := range cells {
			se.Digests[k] = r.digest()
		}
	} else {
		se.Cells = cells
	}
	e.Seeds[strconv.FormatUint(seed, 10)] = se
}

// write stores the expectations as dir/<workload>.json, one cell per line in
// sorted order, so a changed result shows as a one-line diff.
func (e *expectations) write(dir, workload string) error {
	seeds := make([]string, 0, len(e.Seeds))
	for s := range e.Seeds {
		seeds = append(seeds, s)
	}
	sort.Slice(seeds, func(i, j int) bool {
		a, _ := strconv.ParseUint(seeds[i], 10, 64)
		b, _ := strconv.ParseUint(seeds[j], 10, 64)
		return a < b
	})
	var out []byte
	out = append(out, "{\"seeds\": {\n"...)
	for i, s := range seeds {
		se := e.Seeds[s]
		field, n := "cells", len(se.Cells)
		if se.Digests != nil {
			field, n = "digests", len(se.Digests)
		}
		out = append(out, fmt.Sprintf("  %q: {%q: {\n", s, field)...)
		keys := make([]string, 0, n)
		for k := range se.Cells {
			keys = append(keys, k)
		}
		for k := range se.Digests {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for j, k := range keys {
			var v any = se.Digests[k]
			if se.Digests == nil {
				v = se.Cells[k]
			}
			b, err := json.Marshal(v)
			if err != nil {
				return err
			}
			sep := ","
			if j == len(keys)-1 {
				sep = ""
			}
			out = append(out, fmt.Sprintf("    %q: %s%s\n", k, b, sep)...)
		}
		sep := ","
		if i == len(seeds)-1 {
			sep = ""
		}
		out = append(out, fmt.Sprintf("  }}%s\n", sep)...)
	}
	out = append(out, "}}\n"...)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, workload+".json"), out, 0o644)
}

// consistent checks the relations every first-failure lifetime result
// satisfies, for seeds without committed results. totalEnd is the device's
// total endurance, pages its visible page count.
func consistent(r result, totalEnd uint64, pages int) error {
	switch {
	case r.Capped:
		return mismatchf("run capped without a failure")
	case r.DemandWrites == 0:
		return mismatchf("no demand writes served")
	case r.FailedPage < 0 || r.FailedPage >= pages:
		return mismatchf("failed page %d outside [0, %d)", r.FailedPage, pages)
	case r.DeviceWrites < r.DemandWrites || r.SwapWrites > r.DeviceWrites:
		return mismatchf("device writes %d, demand %d, swap %d are inconsistent",
			r.DeviceWrites, r.DemandWrites, r.SwapWrites)
	case r.Normalized != float64(r.DemandWrites)/float64(totalEnd):
		return mismatchf("normalized %g != %d/%d", r.Normalized, r.DemandWrites, totalEnd)
	}
	return nil
}

// writeExpectations runs the workload's cells at each seed through the
// facade, untimed, and writes the results as the committed expectations.
// Cells that fail are left out, so they stay failures until fixed.
func writeExpectations(o options, dir string, seeds []uint64) error {
	cfg, err := loadConfig(o.workload)
	if err != nil {
		return err
	}
	e := &expectations{}
	for _, seed := range seeds {
		cells := map[string]result{}
		digests := false
		switch o.workload {
		case "attack_grid", "parsec_grid":
			for _, c := range gridCells(o.workload, cfg) {
				if res, err := c.runGuarded(seeded(cfg.System, seed), twl.LifetimeConfig{}); err == nil {
					cells[c.name] = fromLifetime(res)
				}
			}
		case "sharded_twl":
			// One digest per system seed a run at this seed uses.
			mode, err := twl.ParseAttackMode(cfg.Attacks[0])
			if err != nil {
				return err
			}
			for p := 0; p < shardedSeeds; p++ {
				sys := seeded(cfg.System, passSeed(seed, p))
				res, err := twl.RunShardedLifetime(sys, twl.ShardedConfig{Scheme: cfg.Schemes[0], Mode: mode, Shards: cfg.Shards})
				if err != nil {
					return err
				}
				sub := map[string]result{cfg.Schemes[0] + "/" + mode.String(): fromLifetime(res.LifetimeResult)}
				e.record(sys.Seed, sub, true)
			}
			continue
		case "service_campaign":
			digests = true
			direct, err := newCampaign(cfg, seed).direct()
			if err != nil {
				return err
			}
			for _, dc := range direct {
				res, err := twl.RunAttackCell(dc.sys, dc.scheme, dc.mode, twl.LifetimeConfig{})
				if err != nil {
					return fmt.Errorf("%s: %w", dc.name, err)
				}
				cells[dc.name] = fromLifetime(res)
			}
		default:
			return fmt.Errorf("unknown workload %q", o.workload)
		}
		e.record(seed, cells, digests)
	}
	return e.write(dir, o.workload)
}
