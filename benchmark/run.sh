#!/usr/bin/env bash
# Builds the benchmark driver and the nmserve daemon from source, then runs
# one benchmark workload. Run it from the repository root:
#
#   bash benchmark/run.sh -workload batch-scale500 -seed 1 -seconds 15 -trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory (Go build cache and temp files included). The last line
# of standard output is the result as one JSON object.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOPATH="$out/gopath" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo none)
{
	go build -o "$out/nmserve" ./cmd/nmserve
	cd benchmark
	go build -ldflags "-X main.gitCommit=$commit" -o "$out/nmbench" .
} >&2

exec "$out/nmbench" -nmserve "$out/nmserve" -workdir "$out/work" "$@"
