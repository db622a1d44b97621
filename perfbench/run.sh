#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload realmem-suite --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and trace files stay under
# .bench_build in the checkout. Fails (without printing a result) when
# the simulator's sources are not beside this directory.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/home"
(
	cd "$root/perfbench"
	HOME="$out/home" XDG_CONFIG_HOME="$out/home/config" XDG_CACHE_HOME="$out/home/cache" \
		GOCACHE="$out/gocache" GOPATH="$out/gopath" GOPROXY=off GOTOOLCHAIN=local GOFLAGS= \
		go build -o "$out/perfbench" . >&2
)
exec "$out/perfbench" --root "$root" "$@"
