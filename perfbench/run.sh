#!/usr/bin/env bash
# Builds the benchmark and the spdbd server from this checkout's sources,
# then runs one workload:
#
#   bash perfbench/run.sh --workload warm_bsdj --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ at the
# root of the checkout, Go's build cache included.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/home"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	HOME="$out/home" XDG_CONFIG_HOME="$out/home" XDG_CACHE_HOME="$out/home" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off CGO_ENABLED=0
(cd "$root" && go build -o "$out/bin/spdbd" ./cmd/spdbd)
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" --out "$out" --spdbd "$out/bin/spdbd" "$@"
