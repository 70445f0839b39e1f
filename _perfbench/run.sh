#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments. Run from the repository root:
#
#   bash _perfbench/run.sh --workload round-scale --seed 1 --seconds 10 --trace 0
#
# Every build and run artefact stays under .bench_build/ in the current
# directory: the Go build cache, the Go config/telemetry dir, the binary,
# and the deploy workload's checkpoint directories.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
go build -C "$root/_perfbench" -o "$out/perfbench" . >&2
exec "$out/perfbench" -root "$root" "$@"
