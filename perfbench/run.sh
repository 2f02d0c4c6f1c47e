#!/usr/bin/env bash
# Builds the benchmark from source in this checkout and runs it with the
# given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload apps-ccl --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh steady --runs 10 --sets 2
#
# Every build artefact (binary, Go build cache, temp files) stays under
# $CARGO_TARGET_DIR (default .bench_build) inside the checkout.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/tmp"

export GOCACHE=$out/gocache GOTMPDIR=$out/tmp GOPATH=$out/gopath \
	XDG_CONFIG_HOME=$out/config GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=

(cd perfbench && go build -o "$out/perfbench" .) >&2

commit=$(GIT_CEILING_DIRECTORIES=$(dirname "$root") git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)
export PERFBENCH_COMMIT=$commit
exec "$out/perfbench" "$@"
