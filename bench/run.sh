#!/usr/bin/env bash
# Builds the benchmark into .bench_build/ of the checkout it is started in
# and runs it with the given arguments. The Go build cache lives there too,
# so nothing is read or written outside the checkout.
set -euo pipefail
root=$PWD
build=$root/.bench_build
mkdir -p "$build"
export GOCACHE=$build/gocache GOPATH=$build/gopath GOTOOLCHAIN=local GOENV=off
go build -C "$root/bench" -o "$build/bench" .
exec "$build/bench" -root "$root" "$@"
