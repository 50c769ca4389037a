#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags.
# Run it from the repository root:
#
#   bash perfbench/run.sh --workload sweep --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache and traced-run span dumps go to
# .bench_build/ under the current directory; nothing is written
# elsewhere.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache" \
	GOWORK=off GOTOOLCHAIN=local GOFLAGS=
go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" --root "$root" "$@"
