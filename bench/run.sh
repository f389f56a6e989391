#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it with the
# given arguments:
#
#   bash bench/run.sh --workload base-gc --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and the go command's own configuration
# and telemetry directory live under .bench_build/ at the root of the
# checkout, so nothing is written outside it.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$here" && go build -o "$out/phftlbench" .)
cd "$root"
exec "$out/phftlbench" "$@"
