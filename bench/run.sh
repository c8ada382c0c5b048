#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags.
# Everything the build and the run write stays under bench/out/.
set -euo pipefail
cd "$(dirname "$0")"
mkdir -p out
export GOCACHE="$PWD/out/gocache" GOTOOLCHAIN=local
go build -o out/congress-bench .
exec out/congress-bench "$@"
