#!/usr/bin/env bash
# Builds the doxmeter benchmark from the source tree it sits in and runs it.
#
# Run from the root of a doxmeter checkout:
#
#	bash perfbench/run.sh --workload study --seed 1 --seconds 30 --trace 0
#
# Every build artifact, cache and temporary file stays under .bench_build/
# in the checkout.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal/core" ] || [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: run from the root of a doxmeter checkout (go.mod, internal/core and perfbench/ must be present)" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config" "$build/gopath"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS=

(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" -state-root "$build/tmp" "$@"
