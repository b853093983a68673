#!/usr/bin/env bash
# Builds the campaign benchmark from this checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload sampled --seed 1 --seconds 20 --trace 0
#
# The Go build cache, the Go toolchain's config (telemetry counters), the
# binary and the span files all live under .bench_build/ at the checkout
# root, so nothing is written outside it.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOENV=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --spans "$out" "$@"
