#!/usr/bin/env bash
# Builds the benchmark program and the dcaserve/dcaworker binaries from the
# checkout, then runs it with the given arguments. Run it from the
# repository root:
#
#   bash perfbench/run.sh --workload grid-cold --seed 1 --seconds 25 --trace 0
#   bash perfbench/run.sh steady -runs 10
#
# The first argument "steady" runs the steadiness tool (perfbench/steady)
# instead of the benchmark. Every build output and cache lives under
# .bench_build in the checkout, so nothing is written outside it.
set -euo pipefail

if [[ ! -f go.mod || ! -d perfbench || ! -d cmd/dcaserve || ! -d internal ]]; then
	echo "perfbench: run from the repository root (go.mod, cmd/ and internal/ next to perfbench/)" >&2
	exit 2
fi

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
# The user config directory holds go env settings and telemetry counters;
# pointing it into the checkout keeps the toolchain from writing outside.
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off CGO_ENABLED=0

go build -o "$out/bin/" ./cmd/dcaserve ./cmd/dcaworker
(cd perfbench && go build -o "$out/bin/" . ./steady)

if [[ "${1:-}" == steady ]]; then
	shift
	exec "$out/bin/steady" -bench "$out/bin/perfbench" "$@"
fi
exec "$out/bin/perfbench" -bin "$out/bin" -work "$out" "$@"
