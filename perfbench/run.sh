#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments,
# e.g.: bash perfbench/run.sh --workload serve-hit --seed 1 --seconds 20 --trace 0
# Run from the repository root; every build product and cache goes under
# .bench_build/ there.
set -euo pipefail
root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --root "$root" "$@"
