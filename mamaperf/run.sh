#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags:
#
#   bash mamaperf/run.sh --workload fig9 --seed 1 --seconds 15 --trace 0
#
# Run from the repository root. Everything the build and the run leave
# behind (Go build cache, binary, temporary cache dirs, span dumps)
# stays under .bench_build/ in the current directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/config" "$out/run"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" XDG_CONFIG_HOME="$out/config" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOFLAGS=
(cd "$root/mamaperf" && go build -o "$out/mamaperf" .)
exec "$out/mamaperf" -scratch "$out/run" "$@"
