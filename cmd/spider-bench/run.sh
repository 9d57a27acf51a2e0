#!/usr/bin/env bash
# Builds spider-bench from the sources of the checkout it is run from and
# runs it with the given arguments. Run it from the root of the checkout:
#
#	bash cmd/spider-bench/run.sh --workload drive --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, temporary files, the binary and traces.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off

(cd "$root/cmd/spider-bench" && go build -o "$out/spider-bench" .)
exec "$out/spider-bench" "$@"
