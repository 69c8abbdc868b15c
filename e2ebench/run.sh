#!/usr/bin/env bash
# Builds the end-to-end benchmark from this checkout's sources and runs it
# with the given arguments (see main.go). Run it from the checkout root:
#
#   bash e2ebench/run.sh --workload persist-resume --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, temporary files, the binary and the
# generated inputs.
set -eu
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config" "$build/gopath"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off CGO_ENABLED=0
(cd "$root/e2ebench" && go build -o "$build/e2ebench" .)
exec "$build/e2ebench" "$@"
