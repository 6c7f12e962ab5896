#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#   bash owlbench/run.sh --workload serve-mixed --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory (Go build cache included). The last line of standard
# output is the JSON result.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/go-cache" "$build/gopath" "$build/config"
export GOCACHE="$build/go-cache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local

OWLBENCH_COMMIT=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
export OWLBENCH_COMMIT

(cd "$root/owlbench" && go build -buildvcs=false -o "$build/owlbench-bin" .) >&2
exec "$build/owlbench-bin" "$@"
