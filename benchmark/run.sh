#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it. Run from the
# repository root:
#
#	bash benchmark/run.sh --workload mm-aot-loaded --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write (Go build cache and config, temporaries,
# private AOT caches, trace files) stays under .bench_build in the
# current directory.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/cache"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOPATH="$out/gopath" GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
(cd "$here" && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" --out "$out" "$@"
