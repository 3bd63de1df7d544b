#!/usr/bin/env bash
# Builds samuraibench from source and runs it with the given flags.
# Run from the repository root, e.g.
#
#   bash cmd/samuraibench/run.sh --workload cell-run --seed 1 --seconds 24 --trace 0
#
# The build cache, Go's own settings and telemetry, the binary and the
# benchmark's scratch files all live under .bench_build/ in the current
# directory, so nothing is written outside the checkout and no network
# access is needed.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go -C cmd/samuraibench build -o "$out/samuraibench" .
exec "$out/samuraibench" -workdir "$out" "$@"
