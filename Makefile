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

# perfbench/ is a module of its own (./... stops at its go.mod), so it is
# vetted separately: it wraps wl and sim interfaces and must keep compiling.
# Copy safety of locks and typed atomics is vet's copylocks check; twlint
# does not repeat it.
vet:
	go vet ./...
	cd perfbench && go vet ./...

# Project-specific static contracts that go vet cannot check (determinism,
# registry, cost accounting, typed atomics, concurrency discipline, hotpath
# allocation budget) — see DESIGN.md "Static contracts". No finding can be
# silenced; the hotpath escape-analysis budget lives in twlint.budget.
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

# go test's default timeout is 10 minutes per test binary, and
# ./internal/sim alone took 296-431 s under -race on a 2-vCPU VM, so a
# slower host would time out instead of reporting a result.
test:
	go test -race -timeout 30m ./...

benchsmoke:
	go test ./internal/sim -run '^$$' -bench FastForward -benchtime=1x

# Hot-loop benchmark: full lifetime runs at SmallSystem scale through the
# fast paths and through the per-request loop, for every registered scheme
# under the repeat, scan and inconsistent attacks and the canneal workload.
# Prints the rows and writes no file; the speedup of a cell is the ratio of
# its perwrite and fast ns/op. Changes are gated on perfbench/ and
# BENCHMARK.json, not on these numbers.
bench:
	go test ./internal/sim -run '^$$' -bench FastForward -benchtime 10x -count 5

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
# network, the remap table or the twlsimd job spec).
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
	go test ./internal/serve -run '^$$' -fuzz FuzzJobSpec -fuzztime 10s
