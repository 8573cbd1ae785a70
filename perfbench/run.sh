#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it.
#
#   bash perfbench/run.sh --workload batch-3d --seed 1 --seconds 25 --trace 0
#
# Every file the toolchain and the benchmark write (build cache, binary, cell
# stores, trace files) lands under .bench_build/ at the root of the checkout.
# Without the library sources next to perfbench/ the build fails and the
# script exits non-zero before printing anything on standard output.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/go/cache" "$out/go/tmp" "$out/go/config" "$out/go/path"

export GOCACHE="$out/go/cache"
export GOTMPDIR="$out/go/tmp"
export TMPDIR="$out/go/tmp"
export GOPATH="$out/go/path"
export GOMODCACHE="$out/go/path/pkg/mod"
export XDG_CONFIG_HOME="$out/go/config"
export GOTOOLCHAIN=local
export GOWORK=off
export GOFLAGS=
export GOPROXY=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
cd "$root"
exec "$out/perfbench" "$@"
