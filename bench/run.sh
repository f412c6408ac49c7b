#!/usr/bin/env bash
# Builds wnperf from the sources of this checkout and runs it, passing every
# argument through. Run it from the root of the checkout:
#
#   bash bench/run.sh --workload table1-scaled --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache and Go's temporary and config files all
# stay under .bench_build, so nothing is written outside the checkout.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOPROXY=off GOTOOLCHAIN=local GOFLAGS=
(cd bench && go build -o "$out/wnperf" ./wnperf)
exec "$out/wnperf" "$@"
