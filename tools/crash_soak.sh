#!/bin/sh
# crash_soak.sh — crash-safety soak for the ingest journal: build a
# quick socrata lake, serve it with a race-instrumented navserver in
# journal mode, then commit a stream of table batches through
# `lakenav ingest` while kill -9ing roughly half the ingest processes
# mid-flight and appending torn garbage to the journal tail. After a
# final clean commit the run asserts that the server's current
# generation (seq + structure hash from /admin/generations) is
# bit-identical to what `lakenav ingest -status` recovers from the
# journal — the crash-anywhere consistency contract — then rolls the
# server back one generation and checks the rollback pins serving.
# The run fails if the hashes diverge, the rollback misbehaves, the
# server dies, or the race detector fires in either binary.
#
# Usage: crash_soak.sh [artifact-dir]   (default crash-soak-artifacts)
# Env:   CRASH_SOAK_BATCHES=6  CRASH_SOAK_SEED=1  CRASH_SOAK_PORT=18090
set -eu

cd "$(dirname "$0")/.."

ART=${1:-crash-soak-artifacts}
BATCHES=${CRASH_SOAK_BATCHES:-6}
SEED=${CRASH_SOAK_SEED:-1}
PORT=${CRASH_SOAK_PORT:-18090}
BASE="http://127.0.0.1:$PORT"

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
fail() {
	echo "crash-soak: FAIL $*" >&2
	exit 1
}

echo "==> building binaries (navserver and lakenav with -race)"
go build -race -o "$WORK/lakenav" ./cmd/lakenav
go build -race -o "$WORK/navserver" ./cmd/navserver

echo "==> generating and organizing a quick socrata lake (seed $SEED)"
"$WORK/lakenav" gen -kind socrata -quick -seed "$SEED" -out "$WORK/lake.json"
"$WORK/lakenav" organize -lake "$WORK/lake.json" -no-opt -seed "$SEED" \
	-export "$WORK/org.bin" >"$ART/organize.log"

JOURNAL="$WORK/journal.wal"
ingest() {
	"$WORK/lakenav" ingest -lake "$WORK/lake.json" -org "$WORK/org.bin" \
		-journal "$JOURNAL" "$@"
}

echo "==> starting navserver in journal mode on 127.0.0.1:$PORT"
"$WORK/navserver" -lake "$WORK/lake.json" -org "$WORK/org.bin" \
	-journal "$JOURNAL" -poll 100ms -generations 4 \
	-addr "127.0.0.1:$PORT" >"$ART/navserver.log" 2>&1 &
SERVER_PID=$!

up=""
for _ in $(seq 1 50); do
	if curl -fsS "$BASE/admin/generations" >/dev/null 2>&1; then
		up=1
		break
	fi
	sleep 0.2
done
[ -n "$up" ] || fail "navserver did not come up; see $ART/navserver.log"

echo "==> committing $BATCHES batches, kill -9ing every other ingest mid-flight"
i=1
while [ "$i" -le "$BATCHES" ]; do
	cat >"$WORK/t$i.json" <<EOF
{"name":"soak_table_$i","tags":["soak"],"columns":[{"name":"city","values":["springfield $i","rivertown $i"]},{"name":"permit","values":["granted $i","pending $i"]}]}
EOF
	ingest -add "$WORK/t$i.json" >>"$ART/ingest.log" 2>&1 &
	ING=$!
	if [ $((i % 2)) -eq 0 ]; then
		# A batch killed before its append simply never happened; one
		# killed mid-append leaves a torn tail the next open truncates.
		# Either way the journal must replay to a clean prefix.
		sleep 0.1
		kill -9 "$ING" 2>/dev/null || true
	fi
	wait "$ING" 2>/dev/null || true
	i=$((i + 1))
done

# Simulate a crash mid-record: garbage bytes past the last commit.
if [ -f "$JOURNAL" ]; then
	printf '\377\377\001\002' >>"$JOURNAL"
fi

echo "==> final clean commit + journal status"
cat >"$WORK/t_final.json" <<EOF
{"name":"soak_table_final","tags":["soak"],"columns":[{"name":"city","values":["lakeside","harborview"]},{"name":"permit","values":["granted","expired"]}]}
EOF
STATUS=$(ingest -add "$WORK/t_final.json" -status)
printf '%s\n' "$STATUS" >>"$ART/ingest.log"
COUNT=$(printf '%s\n' "$STATUS" | sed -n 's/^batches: //p')
HASH=$(printf '%s\n' "$STATUS" | sed -n 's/^hash: //p')
[ -n "$COUNT" ] && [ -n "$HASH" ] ||
	fail "could not parse ingest -status output: $STATUS"
echo "    journal replays to $COUNT batches, hash $HASH"

echo "==> waiting for navserver to publish generation $COUNT"
ok=""
for _ in $(seq 1 100); do
	GENS=$(curl -fsS "$BASE/admin/generations" || true)
	CUR=$(printf '%s' "$GENS" |
		jq -r '.generations[] | select(.current) | "\(.seq) \(.hash)"' 2>/dev/null || true)
	if [ "$CUR" = "$COUNT $HASH" ]; then
		ok=1
		break
	fi
	sleep 0.2
done
printf '%s\n' "$GENS" >"$ART/generations.json"
[ -n "$ok" ] || fail "server never converged on generation $COUNT/$HASH (last: $CUR); see $ART/generations.json"
echo "    server current generation matches the recovered journal"

echo "==> rollback probe: pin serving to generation $((COUNT - 1))"
PREV=$((COUNT - 1))
curl -fsS -X POST "$BASE/admin/rollback?gen=$PREV" >"$ART/rollback.json" ||
	fail "rollback to generation $PREV failed"
CUR=$(curl -fsS "$BASE/admin/generations" |
	jq -r '.generations[] | select(.current) | .seq')
[ "$CUR" = "$PREV" ] || fail "rollback did not pin generation $PREV (current: $CUR)"

# The server must still be alive and shut down cleanly.
if ! kill -0 "$SERVER_PID" 2>/dev/null; then
	SERVER_PID=""
	fail "navserver died during the run; see $ART/navserver.log"
fi
kill "$SERVER_PID"
if ! wait "$SERVER_PID"; then
	SERVER_PID=""
	fail "navserver exited non-zero on shutdown; see $ART/navserver.log"
fi
SERVER_PID=""

if grep -q "WARNING: DATA RACE" "$ART/navserver.log" "$ART/ingest.log"; then
	fail "race detected; see $ART"
fi

echo "crash-soak: OK ($COUNT batches committed, hash $HASH, artifacts in $ART)"
