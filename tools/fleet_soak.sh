#!/bin/sh
# fleet_soak.sh — multi-process fleet soak: organize a quick socrata
# lake once, serve it from three race-built navserver shards, front
# them with a race-built lakecoord coordinator, and drive the
# coordinator with lakeload in fleet mode (-lakes) while one shard is
# kill -9ed mid-run and then restarted. Gates, in order:
#
#   bit-identity — a /batch/suggest and a /batch/search answered by the
#     coordinator (fan-out + merge across shards) must be byte-for-byte
#     identical to the same batches answered by a single shard
#     directly, before the kill and again after recovery;
#   zero lost responses — every lakeload request is accounted exactly
#     once (requests == sum of by_status + net_errors), with zero
#     failures and zero transport errors: the kill window may only
#     surface as degraded answers, never as 5xx or lost replies;
#   degradation observed — the coordinator's fleet.shard.down counter
#     must tick during the kill window (the soak really exercised a
#     dead shard, rather than the kill landing between health sweeps);
#   recovered serving — /admin/fleet must report all shards healthy
#     again after the restart, and a clean lakeload run with both
#     -fail-on-error and -fail-on-degraded must pass;
#   no races — the race detector must stay silent in every shard and
#     in the coordinator.
#
# Usage: fleet_soak.sh [artifact-dir]   (default fleet-soak-artifacts)
# Env:   FLEET_SOAK_DURATION=12s  FLEET_SOAK_WORKERS=4
#        FLEET_SOAK_SEED=1  FLEET_SOAK_PORT=18200  FLEET_SOAK_LAKES=8
set -eu

cd "$(dirname "$0")/.."

ART=${1:-fleet-soak-artifacts}
DURATION=${FLEET_SOAK_DURATION:-12s}
WORKERS=${FLEET_SOAK_WORKERS:-4}
SEED=${FLEET_SOAK_SEED:-1}
PORT=${FLEET_SOAK_PORT:-18200}
LAKES=${FLEET_SOAK_LAKES:-8}
COORD="http://127.0.0.1:$PORT"

mkdir -p "$ART"
WORK=$(mktemp -d)
COORD_PID=""
S0_PID=""
S1_PID=""
S2_PID=""
cleanup() {
	for pid in "$COORD_PID" "$S0_PID" "$S1_PID" "$S2_PID"; do
		if [ -n "$pid" ] && kill -0 "$pid" 2>/dev/null; then
			kill "$pid" 2>/dev/null || true
			wait "$pid" 2>/dev/null || true
		fi
	done
	rm -rf "$WORK"
}
trap cleanup EXIT INT TERM
fail() {
	echo "fleet-soak: FAIL $*" >&2
	exit 1
}

echo "==> building binaries (navserver and lakecoord with -race)"
go build -o "$WORK/lakenav" ./cmd/lakenav
go build -race -o "$WORK/navserver" ./cmd/navserver
go build -race -o "$WORK/lakecoord" ./cmd/lakecoord
go build -o "$WORK/lakeload" ./cmd/lakeload

echo "==> generating and organizing a quick socrata lake (seed $SEED)"
"$WORK/lakenav" gen -kind socrata -quick -seed "$SEED" -out "$WORK/lake.json"
"$WORK/lakenav" organize -lake "$WORK/lake.json" -no-opt -seed "$SEED" \
	-export "$WORK/org.bin" >"$ART/organize.log"

# Every shard serves the same prebuilt organization: the fleet is a
# replica set, which is what makes the coordinator's merged answers
# bit-comparable to any single shard's.
start_shard() { # id port logfile
	"$WORK/navserver" -lake "$WORK/lake.json" -org "$WORK/org.bin" \
		-shard-id "$1" -addr "127.0.0.1:$2" >"$3" 2>&1 &
}
wait_ready() { # base what
	ok=""
	for _ in $(seq 1 100); do
		if curl -fsS "$1/readyz" >/dev/null 2>&1; then
			ok=1
			break
		fi
		sleep 0.2
	done
	[ -n "$ok" ] || fail "$2 never became ready"
}

echo "==> starting 3 shards on ports $((PORT + 1))..$((PORT + 3))"
start_shard s0 $((PORT + 1)) "$ART/shard_s0.log"
S0_PID=$!
start_shard s1 $((PORT + 2)) "$ART/shard_s1.log"
S1_PID=$!
start_shard s2 $((PORT + 3)) "$ART/shard_s2.log"
S2_PID=$!
wait_ready "http://127.0.0.1:$((PORT + 1))" "shard s0"
wait_ready "http://127.0.0.1:$((PORT + 2))" "shard s1"
wait_ready "http://127.0.0.1:$((PORT + 3))" "shard s2"

cat >"$WORK/fleet.json" <<EOF
{"version":1,"shards":[
  {"id":"s0","addr":"http://127.0.0.1:$((PORT + 1))"},
  {"id":"s1","addr":"http://127.0.0.1:$((PORT + 2))"},
  {"id":"s2","addr":"http://127.0.0.1:$((PORT + 3))"}
]}
EOF
cp "$WORK/fleet.json" "$ART/fleet.json"

echo "==> starting lakecoord on 127.0.0.1:$PORT"
"$WORK/lakecoord" -map "$WORK/fleet.json" -addr "127.0.0.1:$PORT" \
	-check-interval 300ms -retries 1 >"$ART/lakecoord.log" 2>&1 &
COORD_PID=$!
wait_ready "$COORD" "coordinator"

wait_healthy() { # want what
	ok=""
	for _ in $(seq 1 100); do
		H=$(curl -fsS "$COORD/admin/fleet" 2>/dev/null | jq -r '.healthy' || true)
		if [ "$H" = "$1" ]; then
			ok=1
			break
		fi
		sleep 0.2
	done
	[ -n "$ok" ] || fail "$2 (healthy=$H, want $1); see $ART/lakecoord.log"
}
wait_healthy 3 "fleet never reported 3 healthy shards"

# Bit-identity gate: the coordinator's merged batch answers must be
# byte-for-byte what a single shard says. The coordinator body carries
# per-item lake ids (its routing input, stripped before forwarding);
# the direct shard body is the same batch without them.
bit_identity() { # label
	cat >"$WORK/coord_suggest.json" <<'EOF'
{"queries":[{"lake":"lake-0","q":"salmon harvest","k":3},{"lake":"lake-1","q":"transit budget","k":2},{"lake":"lake-2","q":"water permits","k":4},{"lake":"lake-3","q":"census housing","k":1}]}
EOF
	cat >"$WORK/shard_suggest.json" <<'EOF'
{"queries":[{"q":"salmon harvest","k":3},{"q":"transit budget","k":2},{"q":"water permits","k":4},{"q":"census housing","k":1}]}
EOF
	cat >"$WORK/coord_search.json" <<'EOF'
{"queries":[{"lake":"lake-0","q":"salmon harvest","k":3},{"lake":"lake-4","q":"crime schools","k":2},{"lake":"lake-5","q":"energy climate","k":5}]}
EOF
	cat >"$WORK/shard_search.json" <<'EOF'
{"queries":[{"q":"salmon harvest","k":3},{"q":"crime schools","k":2},{"q":"energy climate","k":5}]}
EOF
	for kind in suggest search; do
		curl -fsS -X POST -H 'Content-Type: application/json' \
			--data-binary @"$WORK/coord_$kind.json" \
			"$COORD/batch/$kind" >"$WORK/coord_$kind.out" ||
			fail "$1: coordinator /batch/$kind errored"
		curl -fsS -X POST -H 'Content-Type: application/json' \
			--data-binary @"$WORK/shard_$kind.json" \
			"http://127.0.0.1:$((PORT + 1))/batch/$kind" >"$WORK/shard_$kind.out" ||
			fail "$1: shard /batch/$kind errored"
		diff "$WORK/coord_$kind.out" "$WORK/shard_$kind.out" >"$ART/bitdiff_$kind.txt" ||
			fail "$1: /batch/$kind merged answer differs from single shard; see $ART/bitdiff_$kind.txt"
	done
	echo "    $1: merged batches bit-identical to a single shard"
}
echo "==> bit-identity gate (pre-kill)"
bit_identity "pre-kill"

DOWN_BEFORE=$(curl -fsS "$COORD/metrics" | jq -r '.fleet.counters["fleet.shard.down"] // 0')

echo "==> lakeload: $DURATION closed-loop through the coordinator, $WORKERS workers, $LAKES lakes"
"$WORK/lakeload" -addr "$COORD" \
	-workers "$WORKERS" -duration "$DURATION" -seed "$SEED" \
	-lakes "$LAKES" -out "$ART/fleet_soak.ndjson" \
	-fail-on-error >"$ART/fleet_soak_summary.json" &
LOAD_PID=$!

# Kill -9 shard s1 a third of the way in, restart it two thirds in.
# sleep only takes integer-friendly seconds portably; derive them from
# the duration's numeric prefix (12s -> 4s and 4s again).
SECS=$(printf '%s' "$DURATION" | sed 's/[^0-9].*$//')
[ -n "$SECS" ] || SECS=12
PHASE=$((SECS / 3))
[ "$PHASE" -ge 1 ] || PHASE=1
sleep "$PHASE"
echo "==> kill -9 shard s1 (pid $S1_PID)"
kill -9 "$S1_PID" 2>/dev/null || true
wait "$S1_PID" 2>/dev/null || true
S1_PID=""
sleep "$PHASE"
echo "==> restarting shard s1"
start_shard s1 $((PORT + 2)) "$ART/shard_s1_restarted.log"
S1_PID=$!
wait_ready "http://127.0.0.1:$((PORT + 2))" "restarted shard s1"

if ! wait "$LOAD_PID"; then
	fail "lakeload saw failing responses; see $ART/fleet_soak_summary.json"
fi

echo "==> accounting gate: every request answered exactly once"
SUM="$ART/fleet_soak_summary.json"
cat "$SUM"
REQUESTS=$(jq -r '.requests' "$SUM")
ACCOUNTED=$(jq -r '([.by_status[]] | add // 0) + .net_errors' "$SUM")
[ "$REQUESTS" -gt 0 ] || fail "lakeload issued no requests"
[ "$REQUESTS" = "$ACCOUNTED" ] ||
	fail "lost or duplicated responses: $REQUESTS requests, $ACCOUNTED accounted"
[ "$(jq -r '.failures' "$SUM")" = 0 ] || fail "failures in summary"
[ "$(jq -r '.net_errors' "$SUM")" = 0 ] ||
	fail "transport errors against the coordinator (it must absorb shard deaths)"
LINES=$(wc -l <"$ART/fleet_soak.ndjson")
[ "$LINES" = "$REQUESTS" ] ||
	fail "NDJSON has $LINES records for $REQUESTS requests"
echo "    $REQUESTS requests, all accounted; degraded: $(jq -r '.degraded' "$SUM") responses, $(jq -r '.degraded_items' "$SUM") batch items"

DOWN_AFTER=$(curl -fsS "$COORD/metrics" | jq -r '.fleet.counters["fleet.shard.down"] // 0')
[ "$DOWN_AFTER" -gt "$DOWN_BEFORE" ] ||
	fail "fleet.shard.down never ticked ($DOWN_BEFORE -> $DOWN_AFTER); the kill window was not observed"
echo "    fleet.shard.down: $DOWN_BEFORE -> $DOWN_AFTER"

echo "==> recovery gate: all shards healthy, clean run with -fail-on-degraded"
wait_healthy 3 "fleet did not recover 3 healthy shards after the restart"
"$WORK/lakeload" -addr "$COORD" \
	-workers "$WORKERS" -duration 3s -seed $((SEED + 1)) \
	-lakes "$LAKES" -fail-on-error -fail-on-degraded \
	>"$ART/fleet_recovery_summary.json" ||
	fail "post-recovery run degraded or failed; see $ART/fleet_recovery_summary.json"

echo "==> bit-identity gate (post-recovery)"
bit_identity "post-recovery"

# Everything must still be alive and shut down cleanly.
for pair in "coordinator:$COORD_PID" "s0:$S0_PID" "s1:$S1_PID" "s2:$S2_PID"; do
	name=${pair%%:*}
	pid=${pair#*:}
	kill -0 "$pid" 2>/dev/null || fail "$name died during the run; see $ART"
done
kill "$COORD_PID"
wait "$COORD_PID" || fail "lakecoord exited non-zero on shutdown; see $ART/lakecoord.log"
COORD_PID=""
for pair in "s0:$S0_PID:$ART/shard_s0.log" "s1:$S1_PID:$ART/shard_s1_restarted.log" "s2:$S2_PID:$ART/shard_s2.log"; do
	name=$(printf '%s' "$pair" | cut -d: -f1)
	pid=$(printf '%s' "$pair" | cut -d: -f2)
	logf=$(printf '%s' "$pair" | cut -d: -f3-)
	kill "$pid"
	wait "$pid" || fail "shard $name exited non-zero on shutdown; see $logf"
done
S0_PID=""
S1_PID=""
S2_PID=""

if grep -q "WARNING: DATA RACE" "$ART"/lakecoord.log "$ART"/shard_*.log; then
	fail "race detected; see $ART"
fi

echo "fleet-soak: OK (artifacts in $ART)"
