#!/usr/bin/env bash
# Builds lpperf from the sources of this checkout and runs it with the given
# arguments. Run it from the repository root:
#
#   bash cmd/lpperf/run.sh -workload paper-grid -seed 1 -seconds 20 -trace 0
#
# The binary, the Go build cache and the compiler's temporary files live
# under $CARGO_TARGET_DIR (default .bench_build), so a run writes nothing
# outside the checkout, and the build never touches the network. Outside a
# full checkout the build fails, and so does the run.
#
# The environment settings apply to the build only: the benchmark itself
# runs with the caller's environment.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/gocache" "$out/tmp" "$out/config"

# XDG_CONFIG_HOME keeps the go command's own state (its env file and
# telemetry counters) under $out as well.
(cd "$root/cmd/lpperf" &&
	GOCACHE=$out/gocache GOTMPDIR=$out/tmp GOMODCACHE=$out/gomodcache \
		XDG_CONFIG_HOME=$out/config GOPROXY=off GOTOOLCHAIN=local GOWORK=off \
		GOFLAGS= CGO_ENABLED=0 go build -o "$out/lpperf" .)
exec "$out/lpperf" "$@"
