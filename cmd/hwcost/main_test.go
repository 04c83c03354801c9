package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// mainEnv makes the test binary run main instead of the tests, so a test
// can drive the real command line without building it separately.
const mainEnv = "HWCOST_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(mainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestBadFlagsRejected: a negative page count, a stray argument and a zero
// page size are usage errors, rejected with exit status 2 before any part
// of the report prints.
func TestBadFlagsRejected(t *testing.T) {
	for _, args := range [][]string{
		{"-pages", "-5", "stray"},
		{"-pages", "100", "-pagesize", "0"},
	} {
		cmd := exec.Command(os.Args[0], args...)
		cmd.Env = append(os.Environ(), mainEnv+"=1")
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		var exitErr *exec.ExitError
		if err := cmd.Run(); err != nil && !errors.As(err, &exitErr) {
			t.Fatal(err)
		}
		if code := cmd.ProcessState.ExitCode(); code != 2 || stdout.Len() != 0 {
			t.Errorf("hwcost %s: exit %d, stdout %q; want exit 2 and no output (stderr %q)",
				strings.Join(args, " "), code, stdout.String(), stderr.String())
		}
	}
}
