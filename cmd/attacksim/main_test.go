package main

import (
	"bytes"
	"os"
	"os/exec"
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

// TestReplicateRunsAlone: -replicate selects an experiment, so the default
// Figure 6 + Figure 7 pair must not run in front of it.
func TestReplicateRunsAlone(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-replicate", "1", "-pages", "256", "-endurance", "2500")
	cmd.Env = append(os.Environ(), mainEnv+"=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("attacksim: %v\nstderr: %s", err, stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "Replication over 1 seeds") {
		t.Errorf("no replication header in:\n%s", out)
	}
	if strings.Contains(out, "Figure 6") {
		t.Errorf("-replicate also ran Figure 6:\n%s", out)
	}
}
