#!/usr/bin/env bash
# Builds tsperf from source and runs it with the given flags, from the
# repository root:
#
#   bash cmd/tsperf/run.sh --workload ucr-lockstep --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache and the TSV files the workloads write all
# go under cmd/tsperf/.bench_build/, so nothing is written outside it.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$here/.bench_build"
mkdir -p "$out/tmp"

export GOTOOLCHAIN=local GOFLAGS= GOTMPDIR="$out/tmp" \
	GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOPATH="$out/go-path" \
	XDG_CONFIG_HOME="$out/config"
go -C "$here/../.." build -o "$out/tsperf" ./cmd/tsperf
exec "$out/tsperf" -dir "$out" "$@"
