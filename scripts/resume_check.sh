#!/usr/bin/env bash
# resume_check.sh — end-to-end crash-safety check for twlsim checkpointing.
#
# Runs a lifetime simulation to completion for a baseline report, then runs
# the same simulation with periodic checkpointing, SIGKILLs it mid-flight,
# resumes from the surviving checkpoint file and requires the resumed run's
# report to be byte-identical to the baseline. This is the shell-level
# counterpart of internal/sim's differential tests: it exercises the real
# binary, a real kill -9, and the atomic checkpoint file on a real
# filesystem. It checks two runs of the same cell: a plain one that ends at
# the first page failure, and one with a spare pool whose retirement
# decorator carries the run past it.
set -euo pipefail

cd "$(dirname "$0")/.."
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

# The workload must run long enough that the kill lands mid-simulation. The
# inconsistent attack goes through the bulk loop, but at this endurance a
# run still takes over a second, and the first checkpoint lands early in it.
args=(-scheme TWL_swp -attack inconsistent -pages 1024 -endurance 200000 -seed 3)

echo "resume_check: building twlsim"
go build -o "$work/twlsim" ./cmd/twlsim

# check LABEL [EXTRA_ARGS...] runs the baseline, kill and resume legs for
# args plus EXTRA_ARGS.
check() {
    local label="$1"
    shift
    local run=("${args[@]}" "$@")
    local ckpt="$work/$label.ckpt"

    echo "resume_check[$label]: baseline run"
    "$work/twlsim" "${run[@]}" > "$work/$label.baseline.txt"

    echo "resume_check[$label]: checkpointed run (to be killed)"
    "$work/twlsim" "${run[@]}" -checkpoint "$ckpt" -checkpoint-every 1048576 \
        > "$work/$label.killed.txt" 2>&1 &
    local pid=$!

    # Wait for the first checkpoint to be installed, then pull the plug.
    for _ in $(seq 1 200); do
        [ -s "$ckpt" ] && break
        kill -0 "$pid" 2>/dev/null || break
        sleep 0.05
    done
    if [ ! -s "$ckpt" ]; then
        echo "resume_check[$label]: FAIL — no checkpoint appeared before the run ended" >&2
        wait "$pid" || true
        cat "$work/$label.killed.txt" >&2
        exit 1
    fi
    if kill -KILL "$pid" 2>/dev/null; then
        echo "resume_check[$label]: killed pid $pid mid-run"
    else
        # The run finished before the kill landed; the resume below still
        # verifies the checkpoint replays to the same result, but flag it so
        # a timing regression is visible in the log.
        echo "resume_check[$label]: WARNING — run finished before SIGKILL; resume still checked"
    fi
    wait "$pid" 2>/dev/null || true

    echo "resume_check[$label]: resuming from $ckpt"
    "$work/twlsim" "${run[@]}" -checkpoint "$ckpt" -resume > "$work/$label.resumed.txt"

    if ! diff -u "$work/$label.baseline.txt" "$work/$label.resumed.txt"; then
        echo "resume_check[$label]: FAIL — resumed report diverges from the baseline" >&2
        exit 1
    fi
    echo "resume_check[$label]: OK — resumed run is byte-identical to the baseline"
}

check plain
check retire -spare-frac 0.03
