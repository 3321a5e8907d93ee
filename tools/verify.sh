#!/bin/sh
# verify.sh — the repository's full verification gate: build, vet, and
# the complete test suite under the race detector. CI and pre-commit
# hooks call this; `make verify` is the friendly entry point. Each
# stage reports its elapsed wall-clock so a slow CI run points at the
# stage that grew, not at the script.
set -eu

cd "$(dirname "$0")/.."

if ! command -v go >/dev/null 2>&1; then
	echo "verify: FAIL: 'go' not found on PATH — install the Go toolchain" \
		"(https://go.dev/dl/) or add it to PATH" >&2
	exit 1
fi

# stage <label> <cmd...> — run one verification stage, timing it.
stage() {
	label=$1
	shift
	echo "==> $label"
	start=$(date +%s)
	"$@"
	echo "    ($label: $(($(date +%s) - start))s)"
}

total_start=$(date +%s)

stage "go build ./..." go build ./...
stage "go vet ./..." go vet ./...

# Invariant checks (cmd/lakelint): the determinism, caching, and
# context contracts of DESIGN.md §10 plus the type-aware concurrency
# and hot-path invariants of §15, enforced mechanically.
lakelint_run() {
	go run ./cmd/lakelint .
}
stage "lakelint ." lakelint_run

stage "go test -race ./..." go test -race ./...

# Fuzz smoke: a few seconds of coverage-guided input on the decode
# surfaces that accept untrusted bytes (the structural org container
# a checkpoint embeds, rebuilt through Import; the full binfmt org
# container; binfmt checkpoint resume; the binfmt lake container every
# serving restart reads, re-encoded and decoded again; journal
# recovery; the HTTP
# batch body decoder; lakelint's directive parser; the lake JSON
# decoder and the value tokenizer, each of the last two against the
# code it replaced), plus the local search's apply / Reevaluate /
# Commit or Undo + Rollback cycle against a fresh evaluator, the naive
# navigation kernels and the naive domains. -fuzzminimizetime is capped
# because the default 60s-per-input minimization starves short windows
# on small machines.
fuzz_smoke() {
	go test ./internal/core -fuzz FuzzReadOrg -fuzztime 5s -fuzzminimizetime 10x -run '^$'
	go test ./internal/core -fuzz FuzzReadBinOrg -fuzztime 5s -fuzzminimizetime 10x -run '^$'
	go test ./internal/core -fuzz FuzzReadBinCheckpoint -fuzztime 5s -fuzzminimizetime 10x -run '^$'
	go test ./internal/journal -fuzz FuzzReadJournal -fuzztime 5s -fuzzminimizetime 10x -run '^$'
	go test ./internal/httpx -fuzz FuzzDecodeBatch -fuzztime 5s -fuzzminimizetime 10x -run '^$'
	go test ./cmd/lakelint -fuzz FuzzParseDirective -fuzztime 5s -fuzzminimizetime 10x -run '^$'
	go test ./internal/lake -fuzz FuzzReadJSON -fuzztime 5s -fuzzminimizetime 10x -run '^$'
	go test ./internal/lake -fuzz FuzzReadBinLake -fuzztime 5s -fuzzminimizetime 10x -run '^$'
	go test ./internal/embedding -fuzz FuzzTokens -fuzztime 5s -fuzzminimizetime 10x -run '^$'
	go test ./internal/core -fuzz FuzzSearchStep -fuzztime 5s -fuzzminimizetime 10x -run '^$'
}
stage "go test -fuzz (5s smoke x10)" fuzz_smoke

# Benchmarks compile and run: one iteration of everything keeps the
# micro-benchmarks from bit-rotting. Performance is measured end to end
# by `bash cmd/lakebench/run.sh`.
bench_once() {
	go test -run '^$' -bench . -benchtime=1x ./... > /dev/null
}
stage "go test -run '^\$' -bench . -benchtime=1x ./..." bench_once

echo "verify: OK ($(($(date +%s) - total_start))s)"
