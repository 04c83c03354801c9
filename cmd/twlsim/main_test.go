package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"strings"
	"testing"

	"twl"
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

// twlsim runs the command line with args and returns its stdout, failing
// the test on a non-zero exit.
func twlsim(t *testing.T, args ...string) string {
	t.Helper()
	out, stderr, code := run(t, args...)
	if code != 0 {
		t.Fatalf("twlsim %s: exit %d\nstderr: %s", strings.Join(args, " "), code, stderr)
	}
	return out
}

// TestNonPositiveBandwidthRejected: -bw converts writes to years, so zero
// would report +Inf years and a negative value negative ones. Both are
// usage errors, rejected before any output.
func TestNonPositiveBandwidthRejected(t *testing.T) {
	for _, bw := range []string{"0", "-8e9"} {
		out, stderr, code := run(t, "-attack", "repeat", "-bw", bw, "-pages", "512", "-endurance", "5000")
		if code != 2 || out != "" {
			t.Errorf("-bw %s: exit %d, stdout %q; want exit 2 and no output (stderr %q)", bw, code, out, stderr)
		}
	}
}

// TestBandwidthRequiresAttack: a PARSEC run converts to years with the
// benchmark's own bandwidth, so an explicit -bw without -attack would be
// ignored; it is a usage error, rejected before any output.
func TestBandwidthRequiresAttack(t *testing.T) {
	for _, args := range [][]string{
		{"-bench", "canneal", "-bw", "1e9"},
		{"-bw", "1e9"},
	} {
		out, stderr, code := run(t, append(args, "-pages", "512", "-endurance", "5000")...)
		if code != 2 || out != "" {
			t.Errorf("%s: exit %d, stdout %q; want exit 2 and no output (stderr %q)", strings.Join(args, " "), code, out, stderr)
		}
	}
}

// TestCadenceFlagsRequireTheirOutput: -trace-every and -checkpoint-every
// only set the cadence of -trace and -checkpoint, so either one alone would
// be ignored; each is a usage error, rejected before any output.
func TestCadenceFlagsRequireTheirOutput(t *testing.T) {
	for _, flag := range []string{"-trace-every", "-checkpoint-every"} {
		out, stderr, code := run(t, "-attack", "repeat", "-pages", "512", "-endurance", "5000", flag, "5")
		if code != 2 || out != "" {
			t.Errorf("%s without its file: exit %d, stdout %q; want exit 2 and no output (stderr %q)", flag, code, out, stderr)
		}
	}
}

var normalizedRow = regexp.MustCompile(`(?m)^normalized lifetime\s+(\S+)`)

// TestAttackSizedToLogicalPages: an attack run addresses only the pages the
// scheme maps. RBSG keeps a gap page per region out of its address space,
// so an attack over every device page would send it addresses it has no
// slot for.
func TestAttackSizedToLogicalPages(t *testing.T) {
	for _, mode := range []string{"scan", "random"} {
		t.Run(mode, func(t *testing.T) {
			out := twlsim(t, "-scheme", "RBSG", "-attack", mode, "-pages", "512", "-endurance", "5000")
			if !normalizedRow.MatchString(out) {
				t.Fatalf("no normalized lifetime row in:\n%s", out)
			}
		})
	}
}

// TestRunMatchesFigureCell: a twlsim run reports the normalized lifetime of
// the figure cell at the same flags — RunAttackCell for an attack (SR, by
// any spelling, gets the Figure 6 bar's rescaled two-level configuration),
// RunBenchCell for a PARSEC workload (the Figure 8 seeds).
func TestRunMatchesFigureCell(t *testing.T) {
	sys := twl.DefaultSystem(1)
	sys.Pages, sys.MeanEndurance = 512, 5000
	flags := []string{"-pages", "512", "-endurance", "5000"}
	cases := []struct {
		name string
		args []string
		cell func() (twl.LifetimeResult, error)
	}{
		{"SR/inconsistent", []string{"-scheme", "SR", "-attack", "inconsistent"}, func() (twl.LifetimeResult, error) {
			return twl.RunAttackCell(sys, "SR", twl.AttackInconsistent, twl.LifetimeConfig{})
		}},
		// Scheme names are case-insensitive; the alias runs the same cell.
		{"sr/inconsistent", []string{"-scheme", "sr", "-attack", "inconsistent"}, func() (twl.LifetimeResult, error) {
			return twl.RunAttackCell(sys, "SR", twl.AttackInconsistent, twl.LifetimeConfig{})
		}},
		{"TWL_swp/canneal", []string{"-scheme", "TWL_swp", "-bench", "canneal"}, func() (twl.LifetimeResult, error) {
			return twl.RunBenchCell(sys, "TWL_swp", "canneal", twl.LifetimeConfig{})
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			want, err := c.cell()
			if err != nil {
				t.Fatal(err)
			}
			out := twlsim(t, append(c.args, flags...)...)
			m := normalizedRow.FindStringSubmatch(out)
			if m == nil {
				t.Fatalf("no normalized lifetime row in:\n%s", out)
			}
			if w := fmt.Sprintf("%.4f", want.Normalized); m[1] != w {
				t.Errorf("twlsim normalized lifetime %s, figure cell %s", m[1], w)
			}
		})
	}
}
