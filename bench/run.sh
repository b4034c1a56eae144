#!/usr/bin/env bash
# Builds the benchmark and runs it: the `command` of BENCHMARK.json.
#
#   bash bench/run.sh --workload online-batch --seed 7 --seconds 16 --trace 0
#
# Everything it writes stays inside the checkout: the Go build cache,
# the two binaries (bench and harassd), temporary stores and model
# directories, and trace files all live under .bench_build/, which
# .gitignore names. The first run in a fresh checkout therefore compiles
# the standard library too (about half a minute on two cores); later
# runs find everything cached.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOTOOLCHAIN=local
export GOPROXY=off
export TMPDIR="$build/tmp"

# The benchmark is its own module (bench/go.mod) that replaces
# harassrepro with the checkout it sits in; harassd is built from the
# checkout's own module. Both builds finish before any clock starts.
(cd "$here" && go build -o "$build/bin/bench" .)
(cd "$root" && go build -o "$build/bin/harassd" ./cmd/harassd)

exec "$build/bin/bench" -root "$root" -harassd "$build/bin/harassd" "$@"
