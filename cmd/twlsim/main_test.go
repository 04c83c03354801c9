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
const mainEnv = "TWLSIM_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(mainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestAttackSizedToLogicalPages: an attack run addresses only the pages the
// scheme maps. RBSG keeps a gap page per region out of its address space,
// so an attack over every device page would send it addresses it has no
// slot for.
func TestAttackSizedToLogicalPages(t *testing.T) {
	for _, mode := range []string{"scan", "random"} {
		t.Run(mode, func(t *testing.T) {
			cmd := exec.Command(os.Args[0],
				"-scheme", "RBSG", "-attack", mode, "-pages", "512", "-endurance", "5000")
			cmd.Env = append(os.Environ(), mainEnv+"=1")
			var stdout, stderr bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			if err := cmd.Run(); err != nil {
				t.Fatalf("twlsim -scheme RBSG -attack %s: %v\nstderr: %s", mode, err, stderr.String())
			}
			if !strings.Contains(stdout.String(), "normalized lifetime") {
				t.Fatalf("no normalized lifetime row in:\n%s", stdout.String())
			}
		})
	}
}
