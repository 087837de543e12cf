#!/usr/bin/env bash
# Builds the benchmark and valora-server from this checkout into
# .bench_build/ at the checkout root, then runs the benchmark from the
# root with the given flags, for example:
#
#   bash benchmark/run.sh --workload stress-replay --seed 1 --seconds 20 --trace 0
#
# The Go build cache, the build's temporary files and the go command's
# own configuration and telemetry all live in .bench_build/ too, so a
# run writes nothing outside the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
cd "$root/benchmark"
go build -o "$out/valora-benchmark" .
go build -o "$out/valora-server" valora/cmd/valora-server
cd "$root"
exec "$out/valora-benchmark" -server "$out/valora-server" "$@"
