#!/usr/bin/env bash
# Builds the benchmark harness from source and runs it with the given
# arguments. Everything it writes (Go's build cache, the binary, the
# file-backed workload's database, span files) goes under .bench_build/
# at the root of the checkout; nothing outside the checkout is touched.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config/go/telemetry"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOTMPDIR="$build/tmp"
export GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOENV=off
# The go command keeps usage counters under the user's configuration
# directory and at times leaves a child process behind to tidy them.
# Point it into the checkout and turn the counters off.
export XDG_CONFIG_HOME="$build/config"
echo off > "$build/config/go/telemetry/mode"
(cd "$here" && go build -o "$build/harness" .) >&2
cd "$root"
exec "$build/harness" -workdir "$build" "$@"
