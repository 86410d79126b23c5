#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it:
#   bash perfbench/run.sh --workload bubble2d --seed 0 --seconds 40 --trace 0
# Build output, the Go build cache and work files stay under
# ${CARGO_TARGET_DIR:-.bench_build} at the checkout root.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/gocache" "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/home/go" \
	XDG_CONFIG_HOME="$out/home/config" XDG_CACHE_HOME="$out/home/cache" HOME="$out/home" \
	GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$out/perfbench-bin" .)
exec "$out/perfbench-bin" -root "$root" -state "$out/perfbench" "$@"
