#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload attack_grid --seed 1 --seconds 30 --trace 0

It builds the benchmark program (this directory, a Go module of its own) and
the twlsimd daemon from source, then runs the benchmark with the arguments
given. Build output, the Go build cache and run state all stay under
.bench_build/ in the repository root; the last line of output is the result
object. Any build failure exits non-zero without printing a result.
"""
import os
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    build = os.path.join(root, ".bench_build")
    bin_dir = os.path.join(build, "bin")
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOTMPDIR": os.path.join(build, "tmp"),
        "TMPDIR": os.path.join(build, "tmp"),
        "GOFLAGS": "",
        "GOPROXY": "off",
        "GOTOOLCHAIN": "local",
        "GOWORK": "off",
        "GOENV": "off",
        "CGO_ENABLED": "0",
    })
    for d in (bin_dir, env["GOCACHE"], env["GOTMPDIR"]):
        os.makedirs(d, exist_ok=True)
    daemon = os.path.join(bin_dir, "twlsimd")
    bench = os.path.join(bin_dir, "perfbench")
    for cwd, cmd in ((root, ["go", "build", "-o", daemon, "./cmd/twlsimd"]),
                     (here, ["go", "build", "-o", bench, "."])):
        # Build output goes to stderr: stdout ends with the result object.
        if subprocess.run(cmd, cwd=cwd, env=env, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 1
    args = [bench, "--state", os.path.join(build, "run"), "--twlsimd", daemon] + sys.argv[1:]
    sys.stdout.flush()
    os.execve(bench, args, env)


if __name__ == "__main__":
    sys.exit(main())
