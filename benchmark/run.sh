#!/usr/bin/env bash
# Builds ddosd and the benchmark harness from the checkout it is run in,
# then runs one benchmark pass. Run it from the repository root:
#
#   bash benchmark/run.sh --workload ingest --seed 1 --seconds 30 --trace 0
#
# Everything it writes (binaries, the Go build cache, temporary files and
# WAL directories) stays under .bench_build/ in the checkout.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOTOOLCHAIN=local
# The go command keeps telemetry and settings under the user's config
# directory; point that into the build directory too.
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config"

go build -o "$out/ddosd" ./cmd/ddosd
(cd benchmark && go build -o "$out/benchmark" .)
exec "$out/benchmark" --daemon "$out/ddosd" --work-dir "$out/work" "$@"
