#!/usr/bin/env bash
# Builds the benchmark from the checkout this script sits in and runs it
# with the given arguments. Everything the build writes — the binary, Go's
# build and module caches, its temporary files, its telemetry counters —
# goes under bench/.build/, so a run touches nothing outside the checkout
# and nothing in it outside this directory (other than a file named with
# -out).
set -euo pipefail
bench="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$bench")"
build="$bench/.build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOENV=off GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
go build -C "$bench" -o "$build/eleos-bench" .
if [ -e "$root/.git" ]; then
	ELEOS_BENCH_GIT_SHA="$(git -C "$root" describe --always --dirty --abbrev=12 2>/dev/null || true)"
	export ELEOS_BENCH_GIT_SHA
fi
cd "$root"
exec "$build/eleos-bench" "$@"
