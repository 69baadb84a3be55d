#!/usr/bin/env bash
# Builds the serving benchmark from this checkout and runs it with the
# given arguments (--workload, --seed, --seconds, --trace). Run it from the
# repository root. Everything it builds and writes stays under .bench_build.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/go-cache" "$out/go-tmp"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/go-tmp" GOMODCACHE="$out/go-mod"
export GOTOOLCHAIN=local GOPROXY=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
PERFBENCH_SOURCE=$(find . -path ./.bench_build -prune -o -type f \( -name '*.go' -o -name go.mod \) -print |
	LC_ALL=C sort | xargs cat | sha256sum | cut -c1-16)
export PERFBENCH_SOURCE
exec "$out/perfbench" "$@"
