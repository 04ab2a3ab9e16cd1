#!/usr/bin/env bash
# Builds perfbench from the checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload road-cold --seed 1 --seconds 30 --trace 0
#
# Run from the root of a checkout. Everything the build and the run write
# stays under the build directory ($CARGO_TARGET_DIR if set, else
# .bench_build): the Go build cache, temporary files, dataset catalogs,
# the oracle cache and span traces.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/tmp" "$build/gocache" "$build/gopath" "$build/config"

export GOCACHE=$build/gocache
export GOPATH=$build/gopath
export GOMODCACHE=$build/gopath/pkg/mod
export GOTMPDIR=$build/tmp
export TMPDIR=$build/tmp
export XDG_CONFIG_HOME=$build/config
export GOFLAGS=-buildvcs=false
export GOTOOLCHAIN=local
export GOPROXY=off

# Telemetry counters would otherwise be written under the user's config
# directory; this keeps the mode file inside the build directory too.
go telemetry off >/dev/null 2>&1 || true

# perfbench is its own module; its go.mod points at the checkout root
# for the graphdiam packages, so the build fails outside a full checkout.
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" --workdir "$build" "$@"
