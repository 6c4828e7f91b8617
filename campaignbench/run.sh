#!/usr/bin/env bash
# Builds the campaign benchmark from source and runs it. Run from the
# repository root:
#
#   bash campaignbench/run.sh --workload campaign --seed 1 --seconds 20 --trace 0
#
# Every build product, the Go build cache and the durable-storage temp
# files live under .bench_build in the repository root.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$root/campaignbench" && go build -o "$build/campaignbench" .)
export TMPDIR="$build/tmp"
exec "$build/campaignbench" "$@"
