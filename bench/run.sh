#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash bench/run.sh --workload record-mnist --seed 1 --seconds 12 --trace 0
#
# Run it from the repository root. Build outputs, the Go build cache and
# traces stay under $CARGO_TARGET_DIR (default .bench_build) in the current
# directory, so nothing is written outside the checkout. The build fails, and
# so does this script, when the gpurelay sources are not next to bench/.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/tmp"

export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOPATH="$out/go-path"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd "$here" && go build -o "$out/gpurelay-bench" .)
exec "$out/gpurelay-bench" "$@"
