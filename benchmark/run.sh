#!/usr/bin/env bash
# Builds the load harness inside the checkout and runs it from the
# repository root, passing every argument through. Everything the build
# leaves behind (Go build cache, temporary files, the binary) goes under
# .bench_build/ at the root, so a run reads and writes only inside the
# checkout. The harness is its own module (benchmark/go.mod) that
# replaces `repro` with the parent directory: without the repository
# around it the build fails and this script exits non-zero.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/go-cache"
export GOMODCACHE="$build/go-mod" # never filled: the harness has no dependency outside the repository
export GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local
export GOFLAGS=-mod=readonly

(cd "$here" && go build -o "$build/hcbench" .)
cd "$root"
exec "$build/hcbench" "$@"
