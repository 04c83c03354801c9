package sim

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"testing"

	"twl/internal/wl"
)

// goldenPath holds the recorded outcome of every TestGolden cell.
const goldenPath = "testdata/golden.json"

// goldenCell is one recorded lifetime run: the LifetimeResult rendered with
// %+v, and sha256 digests of the scheme's and the device's checkpoint bytes
// at run end. The digests cover every table, counter, RNG position and
// per-page wear and payload value, and the checkpoint wire format itself.
type goldenCell struct {
	Result string `json:"result"`
	Scheme string `json:"scheme_sha256"`
	Device string `json:"device_sha256"`
}

func digest(t *testing.T, snapshot func(w *bytes.Buffer) error) string {
	t.Helper()
	var buf bytes.Buffer
	if err := snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:])
}

// goldenRun runs one cell on the fast path under the differential
// harness's cap and records it.
func goldenRun(t *testing.T, build schemeFactory, kind string) goldenCell {
	t.Helper()
	s := build(t)
	dev := s.Device()
	res, err := RunLifetime(s, diffSource(t, kind, wl.LogicalPages(s)), LifetimeConfig{
		MaxDemandWrites: 3 * dev.TotalEndurance(),
		CheckEvery:      977,
	})
	if err != nil {
		t.Fatal(err)
	}
	return goldenCell{
		Result: fmt.Sprintf("%+v", res),
		Scheme: digest(t, func(w *bytes.Buffer) error { return s.Snapshot(w) }),
		Device: digest(t, func(w *bytes.Buffer) error { return dev.Snapshot(w) }),
	}
}

// TestGolden pins every registered scheme against every differential
// source kind, and every TWL configuration variant, to the outcomes
// recorded in testdata/golden.json. Unlike the fast-vs-per-request
// differential tests, which catch the two paths drifting apart, this
// catches both drifting together: any change to a scheme's decisions, its
// RNG stream, its storage or its checkpoint encoding moves a digest. To
// record a new baseline after an intended behavior change, delete the file
// and run the test twice.
func TestGolden(t *testing.T) {
	var want map[string]goldenCell
	data, err := os.ReadFile(goldenPath)
	switch {
	case err == nil:
		if err := json.Unmarshal(data, &want); err != nil {
			t.Fatal(err)
		}
	case !errors.Is(err, fs.ErrNotExist):
		t.Fatal(err)
	}
	got := map[string]goldenCell{}
	check := func(key string, build schemeFactory, kind string) {
		t.Run(key, func(t *testing.T) {
			c := goldenRun(t, build, kind)
			got[key] = c
			if want == nil {
				return
			}
			if w, ok := want[key]; !ok {
				t.Errorf("no recorded outcome for %s", key)
			} else if c != w {
				t.Errorf("outcome moved:\n got: %+v\nwant: %+v", c, w)
			}
		})
	}
	for _, name := range wl.Names() {
		for _, kind := range diffKinds {
			check(name+"/"+kind, registryFactory(name), kind)
		}
	}
	for _, v := range twlVariants {
		for _, kind := range diffKinds {
			check("TWL_"+v.name+"/"+kind, twlFactory(v.cfg), kind)
		}
	}
	if want == nil {
		out, err := json.MarshalIndent(got, "", "\t")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("recorded %d cells in %s; rerun to check them", len(got), goldenPath)
	}
}
