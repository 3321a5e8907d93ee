#!/bin/sh
# soak.sh — end-to-end serving soak: build a small socrata lake,
# organize it, serve it with a race-instrumented navserver, and drive
# it with the deterministic lakeload harness for SOAK_DURATION
# (default 10s). The run fails if lakeload sees any non-2xx response
# that is not a deliberate shed 503 (lakeload -fail-on-error), if the
# race detector fires inside navserver, or if the server does not come
# up. The per-request NDJSON log and the run summary land in the
# artifact directory for latency spelunking.
#
# The lake kind is socrata on purpose: tagcloud lakes carry their tags
# at attribute level, which the lake JSON format does not round-trip,
# so a saved-then-loaded tagcloud lake has nothing to organize.
#
# Usage: soak.sh [artifact-dir]   (default soak-artifacts)
# Env:   SOAK_DURATION=10s  SOAK_WORKERS=4  SOAK_SEED=1  SOAK_PORT=18080
set -eu

cd "$(dirname "$0")/.."

ART=${1:-soak-artifacts}
DURATION=${SOAK_DURATION:-10s}
WORKERS=${SOAK_WORKERS:-4}
SEED=${SOAK_SEED:-1}
PORT=${SOAK_PORT:-18080}

mkdir -p "$ART"
WORK=$(mktemp -d)
SERVER_PID=""
cleanup() {
	if [ -n "$SERVER_PID" ] && kill -0 "$SERVER_PID" 2>/dev/null; then
		kill "$SERVER_PID" 2>/dev/null || true
		wait "$SERVER_PID" 2>/dev/null || true
	fi
	rm -rf "$WORK"
}
trap cleanup EXIT INT TERM

echo "==> building binaries (navserver with -race)"
go build -o "$WORK/lakenav" ./cmd/lakenav
go build -race -o "$WORK/navserver" ./cmd/navserver
go build -o "$WORK/lakeload" ./cmd/lakeload

echo "==> generating and organizing a quick socrata lake (seed $SEED)"
"$WORK/lakenav" gen -kind socrata -quick -seed "$SEED" -out "$WORK/lake.json"
"$WORK/lakenav" organize -lake "$WORK/lake.json" -no-opt -seed "$SEED" \
	-export "$WORK/org.bin" >"$ART/organize.log"

echo "==> starting navserver on 127.0.0.1:$PORT"
"$WORK/navserver" -lake "$WORK/lake.json" -org "$WORK/org.bin" \
	-addr "127.0.0.1:$PORT" >"$ART/navserver.log" 2>&1 &
SERVER_PID=$!

echo "==> lakeload: $DURATION closed-loop, $WORKERS workers, seed $SEED"
"$WORK/lakeload" -addr "http://127.0.0.1:$PORT" \
	-workers "$WORKERS" -duration "$DURATION" -seed "$SEED" \
	-out "$ART/soak.ndjson" -fail-on-error >"$ART/soak_summary.json"

# The server must still be alive (a race-detector abort or panic exits
# the process) and must shut down cleanly on SIGTERM.
if ! kill -0 "$SERVER_PID" 2>/dev/null; then
	echo "soak: FAIL navserver died during the run; see $ART/navserver.log" >&2
	SERVER_PID=""
	exit 1
fi
kill "$SERVER_PID"
wait "$SERVER_PID" || {
	echo "soak: FAIL navserver exited non-zero on shutdown; see $ART/navserver.log" >&2
	SERVER_PID=""
	exit 1
}
SERVER_PID=""

if grep -q "WARNING: DATA RACE" "$ART/navserver.log"; then
	echo "soak: FAIL race detected in navserver; see $ART/navserver.log" >&2
	exit 1
fi

echo "==> summary"
cat "$ART/soak_summary.json"
echo "soak: OK (artifacts in $ART)"
