#!/usr/bin/env bash
# serve_check.sh — end-to-end crash-safety and dedupe check for twlsimd.
#
# Boots the simulation daemon, submits a small grid over HTTP, SIGKILLs the
# daemon once the grid's quick cells are settled in the job journal and its
# long cell is mid-run (after its first checkpoint lands), restarts it on
# the same state directory and requires (a) the job to complete, simulating
# exactly the cells that were unfinished at the kill — journaled cells are
# neither re-run nor re-read from the cache — with the journal compacted
# away, and (b) an identical resubmitted grid to be served entirely from the
# content-addressed result cache. This is the shell-level counterpart of
# internal/serve's drain/restart tests: a real binary, a real kill -9, real
# files.
set -euo pipefail

cd "$(dirname "$0")/.."
work="$(mktemp -d)"
port="${TWLSIMD_PORT:-18632}"
base="http://localhost:$port"
pid=""
trap '[ -n "$pid" ] && kill -KILL "$pid" 2>/dev/null; rm -rf "$work"' EXIT

# Under the inconsistent attack NOWL and OD3P die within tens of
# milliseconds, while TWL_swp runs for a second or more: the attack goes
# through the bulk loop, but at this endurance the TWL_swp cell still runs
# long enough for the kill to land mid-simulation.
spec='{"schemes":["NOWL","OD3P","TWL_swp"],"attacks":["inconsistent"],"pages":1024,"mean_endurance":200000,"seeds":[3]}'
cells=3

echo "serve_check: building twlsimd"
go build -o "$work/twlsimd" ./cmd/twlsimd

start_daemon() {
    "$work/twlsimd" -addr "localhost:$port" -data "$work/data" -workers 2 \
        -checkpoint-every 1048576 >> "$work/daemon.log" 2>&1 &
    pid=$!
    for _ in $(seq 1 200); do
        curl -fsS "$base/healthz" >/dev/null 2>&1 && return 0
        kill -0 "$pid" 2>/dev/null || break
        sleep 0.05
    done
    echo "serve_check: FAIL — daemon did not come up" >&2
    cat "$work/daemon.log" >&2
    exit 1
}

job_status() {
    curl -fsS "$base/jobs/$1" | grep -o '"status": "[a-z]*"' | head -1 | cut -d'"' -f4
}

# metric NAME prints one sample of the /metrics exposition.
metric() {
    curl -fsS "$base/metrics" | grep -F "$1 " | awk '{print $2}'
}

start_daemon
id=$(curl -fsS -d "$spec" "$base/jobs" | grep -o '"id": "[^"]*"' | cut -d'"' -f4)
if [ -z "$id" ]; then
    echo "serve_check: FAIL — submission returned no job id" >&2
    exit 1
fi
echo "serve_check: submitted $id"

# Wait until a cell is done and the long cell's first checkpoint is
# installed, then pull the plug.
long_key=$(curl -fsS "$base/jobs/$id" | grep -A4 '"scheme": "TWL_swp"' | grep -o '"key": "[0-9a-f]*"' | cut -d'"' -f4)
for _ in $(seq 1 200); do
    found=""
    done_cells=$(curl -fsS "$base/jobs/$id" | grep -o '"done": [0-9]*' | awk '{print $2}' || true)
    if [ "${done_cells:-0}" -ge 1 ] && [ -s "$work/data/ckpt/$long_key.ckpt" ]; then
        found=yes
        break
    fi
    kill -0 "$pid" 2>/dev/null || break
    sleep 0.05
done
if [ -z "${found:-}" ]; then
    if [ "$(job_status "$id")" = "done" ]; then
        # The cell outran the checkpoint cadence; the restart below still
        # verifies state reload, but flag the timing regression.
        echo "serve_check: WARNING — job finished before SIGKILL; restart still checked"
    else
        echo "serve_check: FAIL — no checkpoint appeared" >&2
        cat "$work/daemon.log" >&2
        exit 1
    fi
fi
kill -KILL "$pid" 2>/dev/null && echo "serve_check: killed daemon pid $pid mid-cell"
wait "$pid" 2>/dev/null || true
pid=""
# Every settled cell is one journal line; a job that finished before the
# kill was compacted and has no journal.
journal="$work/data/jobs/$id.log"
if [ -f "$journal" ]; then
    unfinished=$((cells - $(wc -l < "$journal")))
else
    unfinished=0
fi
echo "serve_check: $((cells - unfinished)) of $cells cells journaled at the kill"

echo "serve_check: restarting daemon on the same state directory"
start_daemon
for _ in $(seq 1 600); do
    status=$(job_status "$id")
    [ "$status" = "done" ] && break
    if [ "$status" != "running" ]; then
        echo "serve_check: FAIL — job settled as '$status'" >&2
        curl -fsS "$base/jobs/$id" >&2 || true
        exit 1
    fi
    sleep 0.1
done
if [ "${status:-}" != "done" ]; then
    echo "serve_check: FAIL — job did not complete after restart" >&2
    exit 1
fi
simulated=$(metric 'twl_serve_cells_total{outcome="simulated"}')
cached=$(metric 'twl_serve_cells_total{outcome="cached"}')
if [ "$simulated" != "$unfinished" ] || [ "$cached" != 0 ]; then
    echo "serve_check: FAIL — restart simulated $simulated and served $cached cells from the cache;" \
        "want $unfinished simulated (the cells unfinished at the kill) and 0 cached" >&2
    exit 1
fi
if [ -e "$journal" ]; then
    echo "serve_check: FAIL — journal $journal survives the finished job" >&2
    exit 1
fi
echo "serve_check: job completed after kill + restart, simulating only the $unfinished cell(s) unfinished at the kill"

# Resubmit the identical grid: every cell must be a cache hit.
id2=$(curl -fsS -d "$spec" "$base/jobs" | grep -o '"id": "[^"]*"' | cut -d'"' -f4)
for _ in $(seq 1 100); do
    [ "$(job_status "$id2")" = "done" ] && break
    sleep 0.1
done
cached=$(curl -fsS "$base/jobs/$id2" | grep -c '"cached": true' || true)
if [ "$cached" -ne "$cells" ]; then
    echo "serve_check: FAIL — resubmitted grid not served from cache" >&2
    curl -fsS "$base/jobs/$id2" >&2 || true
    exit 1
fi
if ! curl -fsS "$base/metrics" | grep -q '^twl_serve_cache_hits_total [1-9]'; then
    echo "serve_check: FAIL — cache hits not visible in /metrics" >&2
    curl -fsS "$base/metrics" >&2 || true
    exit 1
fi
echo "serve_check: resubmitted grid was a cache hit (dedupe verified)"

if [ -e "$work/data/jobs/$id2.log" ]; then
    echo "serve_check: FAIL — journal of the finished resubmission survives" >&2
    exit 1
fi

kill -TERM "$pid" 2>/dev/null || true
wait "$pid" 2>/dev/null || true
pid=""
echo "serve_check: OK — kill/restart completion from the journal and cache dedupe verified"
