#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload media --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. The build, its Go caches and the binary
# stay under .bench_build/ there; nothing is fetched over the network. The
# result is the last line of standard output. A failed build or a failed
# output check exits non-zero without printing a result.
set -euo pipefail

root=$PWD
out=$root/.bench_build
mkdir -p "$out/tmp" "$out/config"
export GOCACHE=$out/gocache GOPATH=$out/gopath GOTMPDIR=$out/tmp \
	XDG_CONFIG_HOME=$out/config GOENV=off GOFLAGS= GOWORK=off \
	GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off CGO_ENABLED=0

(cd "$(dirname "$0")" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
