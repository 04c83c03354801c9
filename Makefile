# Tier-1 verification (referenced from ROADMAP.md): formatting, static
# analysis (go vet plus the project's own twlint suite), build, the full
# race-enabled test suite and a single-iteration benchmark smoke (catches
# bit-rot in the hot-loop benchmarks without spending benchmark time).
.PHONY: check fmt vet lint budget build test bench benchsmoke bigbench bigbenchsmoke fuzzsmoke servesmoke

check: fmt vet lint build test benchsmoke

fmt:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

vet:
	go vet ./...

# Project-specific static contracts (determinism, registry, cost accounting,
# locks/atomics, concurrency discipline, hotpath allocation budget) — see
# DESIGN.md "Static contracts". Exceptions live in twlint.allow (strict: a
# stale entry is itself a finding); the hotpath escape-analysis budget lives
# in twlint.budget.
lint:
	go run ./cmd/twlint -budget twlint.budget ./...

# Regenerate the hotpath allocation budget and fail when it drifts from the
# committed file — run after intentionally changing a //twl:hotpath function
# and commit the result.
budget:
	go run ./cmd/twlint -update-budget -budget twlint.budget ./...
	git diff --exit-code -- twlint.budget

build:
	go build ./...

test:
	go test -race ./...

benchsmoke:
	go test ./internal/sim -run '^$$' -bench FastForward -benchtime=1x

# Hot-loop benchmark: full lifetime runs through the fast-forward path vs
# the per-write path over every registered scheme × attack (repeat, scan and
# the paper's inconsistent attack), plus the per-scheme bytes-per-page
# footprint audit, written to BENCH_PR9.json. The
# benchcmp step then diffs both paths and the footprints against the
# committed PR 7 baseline; it reports regressions but is non-fatal here
# (wall-clock noise across machines is not a failure — the committed
# trajectory is what reviews judge; footprint diffs are deterministic).
bench:
	go run ./cmd/benchff -out BENCH_PR9.json
	-go run ./cmd/benchcmp BENCH_PR7.json BENCH_PR9.json

# Full-geometry validation: the paper's 32 GB device (8Mi pages, 4 ranks x
# 32 banks) against the inconsistent attack, sharded one-per-bank with an
# exact deterministic merge, at scaled endurance. Completes in minutes;
# BIGBENCH.json is the committed artifact of record. The smoke variant runs
# a 65536-page geometry through the identical code path in seconds (CI).
bigbench:
	go run ./cmd/bigbench -out BIGBENCH.json

bigbenchsmoke:
	go run ./cmd/bigbench -pages 65536 -endurance 3000 -out BIGBENCH_CI.json

# Service crash-safety end-to-end: boot twlsimd, submit a grid over HTTP,
# SIGKILL the daemon mid-cell, restart it on the same state directory and
# verify the job completes from the surviving checkpoints and job journal,
# re-running only the cells unfinished at the kill, and that an identical
# resubmission is a pure cache hit. Mirrors resume_check.sh at the service
# layer.
servesmoke:
	./scripts/serve_check.sh

# Short fuzz pass over every fuzz target (CI runs this; locally useful
# before touching the trace readers, the workload sampler, the Feistel
# network or the remap table).
fuzzsmoke:
	go test ./internal/trace -run '^$$' -fuzz FuzzTextReader -fuzztime 10s
	go test ./internal/trace -run '^$$' -fuzz FuzzBinaryReader -fuzztime 10s
	go test ./internal/trace -run '^$$' -fuzz FuzzNVMainReader -fuzztime 10s
	go test ./internal/trace -run '^$$' -fuzz FuzzBinaryRoundTrip -fuzztime 10s
	go test ./internal/trace -run '^$$' -fuzz FuzzSampleRank -fuzztime 10s
	go test ./internal/rng -run '^$$' -fuzz FuzzFeistelBijection -fuzztime 10s
	go test ./internal/tables -run '^$$' -fuzz FuzzRemapBijection -fuzztime 10s
	go test ./internal/core -run '^$$' -fuzz FuzzEventHorizon -fuzztime 10s
	go test ./internal/wl/od3p -run '^$$' -fuzz FuzzEventHorizonOD3P -fuzztime 10s
	go test ./internal/wl/rbsg -run '^$$' -fuzz FuzzEventHorizonRBSG -fuzztime 10s
	go test ./internal/sim -run '^$$' -fuzz FuzzCheckpointResume -fuzztime 10s
