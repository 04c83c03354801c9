package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"twl"
)

// TestJobCellBound: a spec expanding to more than maxJobCells cells is
// rejected by normalize with an error wrapping twl.ErrBadConfig, and
// POST /jobs answers 400 without queueing anything; a spec exactly at the
// bound is accepted.
func TestJobCellBound(t *testing.T) {
	var workloads []string
	for _, m := range twl.AttackModes() {
		workloads = append(workloads, m.String())
	}
	seeds := func(n int) []uint64 {
		out := make([]uint64, n)
		for i := range out {
			out[i] = uint64(i + 1)
		}
		return out
	}
	// Every scheme × every attack × 2000 seeds: 88,000 cells in an 11 KB body.
	big := JobSpec{Schemes: twl.SchemeNames(), Attacks: workloads, Seeds: seeds(2000)}
	body, err := json.Marshal(big)
	if err != nil {
		t.Fatal(err)
	}
	if err := big.normalize(); !errors.Is(err, twl.ErrBadConfig) || !strings.Contains(err.Error(), "cells") {
		t.Fatalf("oversized job: normalize error %v, want a cell-bound error wrapping ErrBadConfig", err)
	}

	at := JobSpec{Schemes: []string{"NOWL"}, Attacks: []string{"repeat"}, Seeds: seeds(maxJobCells)}
	if err := at.normalize(); err != nil {
		t.Fatalf("job of exactly %d cells: %v", maxJobCells, err)
	}
	over := JobSpec{Schemes: []string{"NOWL"}, Attacks: []string{"repeat"}, Seeds: seeds(maxJobCells + 1)}
	if err := over.normalize(); !errors.Is(err, twl.ErrBadConfig) {
		t.Fatalf("job of %d cells: normalize error %v, want ErrBadConfig", maxJobCells+1, err)
	}

	srv := newTestServer(t, t.TempDir(), 1)
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	if code, out := postJob(t, ts, string(body)); code != http.StatusBadRequest {
		t.Fatalf("oversized job: HTTP %d (%v), want 400", code, out)
	}
	srv.mu.Lock()
	jobs := len(srv.jobs)
	srv.mu.Unlock()
	if jobs != 0 {
		t.Fatalf("oversized job registered %d jobs, want 0", jobs)
	}
}

// FuzzJobSpec decodes arbitrary request bodies as POST /jobs does, and
// checks every accepted spec: its cells have distinct keys, there are at
// most maxJobCells of them, and the normalized spec — written out as the
// job file stores it and normalized again — expands to the same keys.
func FuzzJobSpec(f *testing.F) {
	for _, seed := range []string{
		`{"schemes": ["TWL_swp"], "attacks": ["repeat"]}`,
		`{"schemes": ["twl_swp", "NOWL", "nowl"], "attacks": ["scan", "scan"], "benches": ["vips"], "seeds": [1, 2, 1]}`,
		`{"schemes": ["SR"], "attacks": ["inconsistent"], "pages": 256, "shards": 4, "max_demand_writes": 1000}`,
		`{"schemes": ["BWL"], "benches": ["canneal"], "mean_endurance": 2000, "sigma_fraction": 0.2, "page_size": 8192}`,
		`{"schemes": ["NOWL"], "attacks": ["random"], "seeds": [18446744073709551615, 0]}`,
		`{"schemes": [], "attacks": ["repeat"]}`,
		`{"schemes": ["NOWL"], "attacks": ["repeat"], "bogus": 1}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		sp, err := decodeSpec(bytes.NewReader(body))
		if err != nil {
			return
		}
		if err := sp.normalize(); err != nil {
			return
		}
		keys := cellKeys(t, sp)
		if len(keys) > maxJobCells {
			t.Fatalf("%d cells exceed the %d-cell bound", len(keys), maxJobCells)
		}
		norm, err := json.Marshal(sp)
		if err != nil {
			t.Fatal(err)
		}
		again, err := decodeSpec(bytes.NewReader(norm))
		if err != nil {
			t.Fatalf("normalized spec %s does not decode: %v", norm, err)
		}
		if err := again.normalize(); err != nil {
			t.Fatalf("normalized spec %s fails to normalize again: %v", norm, err)
		}
		if got := cellKeys(t, again); fmt.Sprint(got) != fmt.Sprint(keys) {
			t.Fatalf("normalizing twice changed the keys:\n%v\n%v", keys, got)
		}
	})
}

// cellKeys expands a normalized spec and fails on a duplicate key.
func cellKeys(t *testing.T, sp JobSpec) []string {
	t.Helper()
	cells := buildCells(sp)
	keys := make([]string, len(cells))
	seen := make(map[string]bool, len(cells))
	for i, c := range cells {
		if seen[c.Key] {
			t.Fatalf("duplicate cell key %s (%s)", c.Key, c.name())
		}
		seen[c.Key] = true
		keys[i] = c.Key
	}
	return keys
}
