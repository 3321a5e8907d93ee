GO ?= go

.PHONY: build test race vet verify soak crash-soak fleet-soak fmt-check lint ci clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# The full gate: build + vet + race-enabled tests (tools/verify.sh).
verify:
	sh tools/verify.sh

# End-to-end serving soak: socrata lake -> race-built navserver ->
# deterministic lakeload for SOAK_DURATION (default 10s); fails on any
# non-shed non-2xx response or a detected race (tools/soak.sh).
soak:
	sh tools/soak.sh

# Crash-safety soak: race-built navserver in journal mode while
# `lakenav ingest` commits batches under kill -9 and torn-tail
# injection; fails unless the served generation hash matches the
# recovered journal exactly (tools/crash_soak.sh).
crash-soak:
	sh tools/crash_soak.sh

# Multi-process fleet soak: three race-built navserver shards behind a
# race-built lakecoord coordinator, driven by lakeload in fleet mode
# while one shard is kill -9ed and restarted mid-run; gates on merged
# batches staying bit-identical to a single shard, zero lost or
# failing responses (kill-window effects may only appear as degraded
# answers), and full recovery (tools/fleet_soak.sh).
fleet-soak:
	sh tools/fleet_soak.sh

# Invariant analyzer (cmd/lakelint): the type-aware engine of DESIGN.md
# §15 — the six DESIGN.md §10 checks plus immutfreeze/hotpath/goroleak/
# lockhold/deadexport — over the whole module, lakelint included, with
# no cache. CI passes LAKELINT_FLAGS="-json lakelint.json" to keep the
# findings as an artifact.
lint:
	$(GO) run ./cmd/lakelint $(LAKELINT_FLAGS) .

# Fail if any file needs gofmt — same check the CI lint job runs.
fmt-check:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:" >&2; \
		echo "$$unformatted" >&2; \
		exit 1; \
	fi

# Everything .github/workflows/ci.yml runs, locally: the full verify
# gate, the lint checks, the benchmark driver's unit tests (cmd/lakebench
# is its own module, so `go test ./...` skips it), and the soaks.
# Performance itself is measured by `bash cmd/lakebench/run.sh`.
ci: fmt-check lint verify
	$(GO) -C cmd/lakebench test ./...
	SOAK_DURATION=10s sh tools/soak.sh soak-artifacts
	sh tools/crash_soak.sh crash-soak-artifacts
	FLEET_SOAK_DURATION=12s sh tools/fleet_soak.sh fleet-soak-artifacts

clean:
	$(GO) clean ./...
