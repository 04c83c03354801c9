package main

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"twl"
)

func sampleResult() result {
	return result{
		DemandWrites: 1000, DemandReads: 2, DeviceWrites: 1100, SwapWrites: 100,
		Swaps: 50, FailedPage: 7, Normalized: 0.5, Cycles: 123456,
	}
}

func TestCheckAgainstExpectations(t *testing.T) {
	want := sampleResult()
	var e expectations
	e.record(1, map[string]result{"TWL_swp/repeat": want}, false)
	e.record(2, map[string]result{"TWL_swp/repeat": want}, true)

	for _, seed := range []uint64{1, 2} {
		checked, err := e.check(seed, "TWL_swp/repeat", want)
		if !checked || err != nil {
			t.Errorf("seed %d: exact result: checked=%v err=%v", seed, checked, err)
		}
		got := want
		got.Swaps++
		checked, err = e.check(seed, "TWL_swp/repeat", got)
		var m *mismatchError
		if !checked || !errors.As(err, &m) {
			t.Errorf("seed %d: changed result: checked=%v err=%v, want a mismatch", seed, checked, err)
		}
	}
	if checked, err := e.check(3, "TWL_swp/repeat", want); checked || err != nil {
		t.Errorf("uncommitted seed: checked=%v err=%v, want unchecked", checked, err)
	}
	if checked, err := e.check(1, "RBSG/random", want); checked || err != nil {
		t.Errorf("uncommitted cell: checked=%v err=%v, want unchecked", checked, err)
	}
}

func TestExpectationsRoundTrip(t *testing.T) {
	var e expectations
	e.record(10, map[string]result{"a/b": sampleResult(), "c/d": {FailedPage: -1, Capped: true}}, false)
	e.record(2, map[string]result{"x": sampleResult()}, true)
	dir := t.TempDir()
	if err := e.write(dir, "w"); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(dir, "w.json"))
	if err != nil {
		t.Fatal(err)
	}
	var back expectations
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatalf("written expectations do not parse: %v\n%s", err, b)
	}
	if checked, err := back.check(10, "c/d", result{FailedPage: -1, Capped: true}); !checked || err != nil {
		t.Errorf("round trip lost a result: checked=%v err=%v", checked, err)
	}
	if checked, err := back.check(2, "x", sampleResult()); !checked || err != nil {
		t.Errorf("round trip lost a digest: checked=%v err=%v", checked, err)
	}
	if strings.Count(string(b), "\n") != 9 {
		t.Errorf("want one line per cell:\n%s", b)
	}
}

func TestConsistent(t *testing.T) {
	r := sampleResult()
	r.Normalized = 1000.0 / 2000
	if err := consistent(r, 2000, 8); err != nil {
		t.Fatalf("consistent result rejected: %v", err)
	}
	for name, mutate := range map[string]func(*result){
		"capped":     func(r *result) { r.Capped = true },
		"no writes":  func(r *result) { r.DemandWrites = 0 },
		"page range": func(r *result) { r.FailedPage = 8 },
		"writes":     func(r *result) { r.DeviceWrites = 999 },
		"normalized": func(r *result) { r.Normalized = 0.4 },
	} {
		bad := r
		mutate(&bad)
		if err := consistent(bad, 2000, 8); err == nil {
			t.Errorf("%s: inconsistent result accepted", name)
		}
	}
}

// The committed expectations name only real cells, and committed results
// satisfy the consistency relations for their seed's device.
func TestCommittedExpectations(t *testing.T) {
	for _, w := range []string{"attack_grid", "parsec_grid", "sharded_twl"} {
		cfg, err := loadConfig(w)
		if err != nil {
			t.Fatal(err)
		}
		names := map[string]bool{}
		if w == "sharded_twl" {
			names[cfg.Schemes[0]+"/"+cfg.Attacks[0]] = true
		} else {
			for _, c := range gridCells(w, cfg) {
				names[c.name] = true
			}
		}
		e, err := loadExpectations(w)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := e.Seeds["1"]; !ok {
			t.Errorf("%s: nothing committed for the default seed", w)
		}
		devices := 0
		for seed, se := range e.Seeds {
			// Building a device per seed is costly at the sharded geometry;
			// a dozen seeds per workload exercise the check.
			if devices++; devices > 12 {
				break
			}
			var s uint64
			if err := json.Unmarshal([]byte(seed), &s); err != nil {
				t.Fatalf("%s: seed %q: %v", w, seed, err)
			}
			dev, err := seeded(cfg.System, s).NewDevice()
			if err != nil {
				t.Fatal(err)
			}
			for name, r := range se.Cells {
				if !names[name] {
					t.Errorf("%s seed %s: %s is not a cell of the workload", w, seed, name)
				}
				if err := consistent(r, dev.TotalEndurance(), cfg.System.Pages); err != nil {
					t.Errorf("%s seed %s %s: %v", w, seed, name, err)
				}
			}
			for name := range se.Digests {
				if !names[name] {
					t.Errorf("%s seed %s: %s is not a cell of the workload", w, seed, name)
				}
			}
		}
	}
}

// BENCHMARK.json must declare exactly the metrics the program prints.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skip("BENCHMARK.json not found next to the benchmark directory")
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, program %d", what, len(got), len(want))
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)",
					what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	for _, w := range spec.Workloads {
		if _, err := loadConfig(w.Name); err != nil {
			t.Errorf("workload %s: %v", w.Name, err)
		}
	}
}

func TestWorkloadSystemsDecode(t *testing.T) {
	cfg, err := loadConfig("attack_grid")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := seeded(cfg.System, 3), twl.DefaultSystem(3); got != want {
		t.Errorf("attack_grid system %+v, want DefaultSystem %+v", got, want)
	}
	if cfg, err = loadConfig("parsec_grid"); err != nil {
		t.Fatal(err)
	}
	if got, want := seeded(cfg.System, 3), twl.SmallSystem(3); got != want {
		t.Errorf("parsec_grid system %+v, want SmallSystem %+v", got, want)
	}
}
