package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// mainEnv makes the test binary run main instead of the tests, so a test
// can drive the real command line without building it separately.
const mainEnv = "BENCHSIM_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(mainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// run runs the command line with args and returns its stdout, its stderr
// and its exit status.
func run(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), mainEnv+"=1")
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	var exitErr *exec.ExitError
	if err := cmd.Run(); err != nil && !errors.As(err, &exitErr) {
		t.Fatal(err)
	}
	return out.String(), errOut.String(), cmd.ProcessState.ExitCode()
}

var small = []string{"-pages", "256", "-endurance", "2500"}

// TestFlagsRequireTheirExperiment: Table 2 takes none of -requests,
// -benchmarks, -metrics or -trace; -requests only sizes Figure 9, and
// -trace only records Figure 8's cells. A flag for an experiment that does
// not run would be ignored, so each is a usage error, rejected before any
// output.
func TestFlagsRequireTheirExperiment(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "t.jsonl")
	for _, args := range [][]string{
		{"-table2", "-requests", "5"},
		{"-table2", "-benchmarks", "vips"},
		{"-table2", "-metrics"},
		{"-table2", "-trace", trace},
		{"-fig8", "-benchmarks", "vips", "-requests", "5"},
		{"-fig9", "-benchmarks", "vips", "-requests", "2000", "-trace", trace},
	} {
		out, stderr, code := run(t, append(args, small...)...)
		if code != 2 || out != "" {
			t.Errorf("%s: exit %d, stdout %q; want exit 2 and no output (stderr %q)", strings.Join(args, " "), code, out, stderr)
		}
	}
}

// TestFlagsBesideTheirExperiment: the same flags beside the figures they
// act on are accepted and take effect.
func TestFlagsBesideTheirExperiment(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "t.jsonl")
	out, stderr, code := run(t, append([]string{"-fig8", "-fig9", "-benchmarks", "vips", "-requests", "2000", "-metrics", "-trace", trace}, small...)...)
	if code != 0 {
		t.Fatalf("exit %d\nstderr: %s", code, stderr)
	}
	for _, want := range []string{"Figure 8", "Figure 9", "metrics report"} {
		if !strings.Contains(out, want) {
			t.Errorf("no %q in:\n%s", want, out)
		}
	}
	if strings.Contains(out, "canneal") {
		t.Errorf("-benchmarks vips ran other benchmarks:\n%s", out)
	}
	if b, err := os.ReadFile(trace); err != nil || len(b) == 0 {
		t.Errorf("-trace beside -fig8 wrote %d bytes (%v)", len(b), err)
	}
}
