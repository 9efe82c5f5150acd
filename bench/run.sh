#!/usr/bin/env bash
# Entry point of the benchmark (BENCHMARK.json's command): build the
# bench module from source against the checkout it sits in, then run it
# with the caller's arguments. Everything the build and the run write
# stays under bench/out/.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")"
mkdir -p out
# Keep the Go build cache inside the checkout unless the caller chose one.
export GOCACHE="${GOCACHE:-$PWD/out/gocache}"
go build -o out/bench .
exec out/bench "$@"
