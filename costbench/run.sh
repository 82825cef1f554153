#!/usr/bin/env bash
# Builds the instrumentation-cost benchmark from this checkout's sources and
# runs it with the given arguments, from the checkout root:
#
#	bash costbench/run.sh --workload fib --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and temporary files stay under
# .bench_build/ in the checkout. The last line of standard output is the
# result JSON; the build writes only to standard error.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gomod" "$out/gotmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/gotmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off
(cd "$root/costbench" && go build -o "$out/costbench" .) >&2
exec "$out/costbench" "$@"
