package main

import (
	"bufio"
	"bytes"
	"context"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"testing"
	"time"
)

// daemonEnv makes the test binary run main instead of the tests, so a test
// can drive the real daemon process without building it separately.
const daemonEnv = "TWLSIMD_TEST_RUN_DAEMON"

func TestMain(m *testing.M) {
	if os.Getenv(daemonEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestSIGTERMAfterFirstHealthzDrains: a daemon told to stop the moment its
// first /healthz answers drains and exits 0, instead of dying of the
// signal. The drain handler must be installed before the daemon serves;
// several boots widen the window a late handler would lose.
func TestSIGTERMAfterFirstHealthzDrains(t *testing.T) {
	client := &http.Client{Timeout: 5 * time.Second}
	for boot := 0; boot < 3; boot++ {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		cmd := exec.CommandContext(ctx, os.Args[0],
			"-addr", "127.0.0.1:0", "-data", t.TempDir(), "-workers", "1")
		cmd.Env = append(os.Environ(), daemonEnv+"=1")
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			t.Fatal(err)
		}
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		out := bufio.NewReader(stdout)
		first, err := out.ReadString('\n')
		if err != nil {
			cancel()
			t.Fatalf("boot %d: no start-up line (%v); stderr: %s", boot, err, stderr.String())
		}
		// "twlsimd: serving on http://ADDR (state in DIR)"
		_, rest, _ := strings.Cut(first, "http://")
		addr, _, _ := strings.Cut(rest, " ")
		for {
			resp, err := client.Get("http://" + addr + "/healthz")
			if err == nil {
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					break
				}
			}
			if ctx.Err() != nil {
				cancel()
				t.Fatalf("boot %d: /healthz never answered; stderr: %s", boot, stderr.String())
			}
			time.Sleep(time.Millisecond)
		}
		if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		tail, _ := io.ReadAll(out)
		err = cmd.Wait()
		cancel()
		if err != nil {
			t.Fatalf("boot %d: daemon exited with %v after SIGTERM, want a drain and exit 0; stderr: %s",
				boot, err, stderr.String())
		}
		if !strings.Contains(string(tail), "twlsimd: drained") {
			t.Fatalf("boot %d: output after SIGTERM %q lacks the drain line", boot, tail)
		}
	}
}
