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
const mainEnv = "ATTACKSIM_TEST_RUN_MAIN"

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

// TestReplicateRunsAlone: -replicate selects an experiment, so the default
// Figure 6 + Figure 7 pair must not run in front of it.
func TestReplicateRunsAlone(t *testing.T) {
	out, stderr, code := run(t, "-replicate", "1", "-pages", "256", "-endurance", "2500")
	if code != 0 {
		t.Fatalf("attacksim: exit %d\nstderr: %s", code, stderr)
	}
	if !strings.Contains(out, "Replication over 1 seeds") {
		t.Errorf("no replication header in:\n%s", out)
	}
	if strings.Contains(out, "Figure 6") {
		t.Errorf("-replicate also ran Figure 6:\n%s", out)
	}
}

// TestRetireFlagsRequireRetire: -spare-frac, -retire-threshold and
// -trace-every only act on the -retire experiment (and -trace-every only
// with a -trace file), so each would be ignored without it. -spare-frac has
// a non-zero default, so even restating that default is rejected. Each is a
// usage error, rejected before any output.
func TestRetireFlagsRequireRetire(t *testing.T) {
	for _, args := range [][]string{
		{"-fig6", "-spare-frac", "0.1", "-retire-threshold", "0.05"},
		{"-fig6", "-spare-frac", "0.03"},
		{"-fig6", "-retire-threshold", "0.05"},
		{"-fig6", "-trace-every", "7"},
		{"-fig6", "-trace-every", "7", "-trace", os.DevNull},
		{"-retire", "-trace-every", "7"},
	} {
		out, stderr, code := run(t, append(args, "-pages", "256", "-endurance", "2500")...)
		if code != 2 || out != "" {
			t.Errorf("%s: exit %d, stdout %q; want exit 2 and no output (stderr %q)", strings.Join(args, " "), code, out, stderr)
		}
	}
}

// TestFlagsRequireTheirExperiment: -requests only sizes Figure 7, and
// -metrics and -trace only observe the Figure 6 and -retire grids, so each
// would be ignored when none of its experiments runs (after the default
// -fig6 -fig7 selection). Each is a usage error, rejected before any
// output.
func TestFlagsRequireTheirExperiment(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "t.jsonl")
	for _, args := range [][]string{
		{"-fig6", "-requests", "5"},
		{"-retire", "-requests", "5"},
		{"-replicate", "1", "-requests", "5"},
		{"-fig7", "-metrics"},
		{"-fig7", "-trace", trace},
		{"-fig7", "-metrics", "-trace", trace},
		{"-replicate", "1", "-metrics"},
	} {
		out, stderr, code := run(t, append(args, "-pages", "256", "-endurance", "2500")...)
		if code != 2 || out != "" {
			t.Errorf("%s: exit %d, stdout %q; want exit 2 and no output (stderr %q)", strings.Join(args, " "), code, out, stderr)
		}
	}
}
