#!/usr/bin/env bash
# Builds lakebench from this checkout and runs it. Run from
# the repository root:
#
#   bash cmd/lakebench/run.sh --workload serve-hot --seed 1 --seconds 25 --trace 0
#
# Everything the Go toolchain and the benchmark write stays under
# .bench_build/ in the checkout: build cache, telemetry, binaries,
# per-run scratch and span files.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/cmd/lakebench/go.mod" || ! -d "$root/cmd/navserver" ]]; then
	echo "lakebench: run from the root of a lakenav checkout" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/bin"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off GOPROXY=off

go -C cmd/lakebench build -o "$out/bin/lakebench" .
exec "$out/bin/lakebench" "$@"
