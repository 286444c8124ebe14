#!/usr/bin/env bash
# Builds the benchmark from the source in this checkout and runs it with the
# given arguments (--workload, --seed, --seconds, --trace). Run it from the
# root of the checkout:
#
#   bash perfbench/run.sh --workload fleet-steady --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write goes under .bench_build/ in the
# checkout: the Go build cache, the binary, checkpoints and span files.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config"
# XDG_CONFIG_HOME keeps the go command's own files (telemetry counters, the
# env file) inside the checkout too.
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off CGO_ENABLED=0

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --root "$root" "$@"
