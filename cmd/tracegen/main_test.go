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
const mainEnv = "TRACEGEN_TEST_RUN_MAIN"

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

// TestInspectRejectsGenerationFlags: -inspect reads an existing trace and
// generates nothing, so a generation flag beside it would be ignored — -o
// would leave its file unwritten, -metrics print no report. Each is a usage
// error, rejected before any output.
func TestInspectRejectsGenerationFlags(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "t.txt")
	if _, stderr, code := run(t, "-bench", "vips", "-n", "100", "-pages", "64", "-o", trace); code != 0 {
		t.Fatalf("generating: exit %d\nstderr: %s", code, stderr)
	}
	if out, stderr, code := run(t, "-inspect", trace); code != 0 || !strings.Contains(out, "records") {
		t.Fatalf("-inspect alone: exit %d, stdout %q (stderr %q)", code, out, stderr)
	}
	unwritten := filepath.Join(dir, "x.txt")
	for _, args := range [][]string{
		{"-bench", "vips"},
		{"-n", "5"},
		{"-pages", "64"},
		{"-seed", "2"},
		{"-o", unwritten},
		{"-metrics"},
		{"-metrics", "-o", unwritten, "-n", "5", "-bench", "vips"},
	} {
		out, stderr, code := run(t, append([]string{"-inspect", trace}, args...)...)
		if code != 2 || out != "" {
			t.Errorf("-inspect %s: exit %d, stdout %q; want exit 2 and no output (stderr %q)", strings.Join(args, " "), code, out, stderr)
		}
	}
	if _, err := os.Stat(unwritten); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("-o beside -inspect: %s exists or cannot be checked (%v)", unwritten, err)
	}
}
