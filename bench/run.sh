#!/usr/bin/env bash
# Entry point of the benchmark (see README.md). Builds the bench command
# from bench/ and runs it from the checkout's root. Everything the Go
# toolchain and the programs under test write — build cache, temporary
# files, telemetry — is pointed into .bench_build, so a run reads and
# writes only inside the checkout.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" XDG_CONFIG_HOME="$build/config"
export TMPDIR="$build/tmp" GOPROXY=off GOTOOLCHAIN=local
go build -C "$root/bench" -o "$build/bin/bench" .
cd "$root"
exec "$build/bin/bench" "$@"
