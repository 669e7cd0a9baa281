#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments, from the root of the checkout:
#
#   bash perfbench/run.sh --workload apps-32 --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (Go build cache, temporary files, the go
# command's own state under HOME, the binary) stays under .bench_build/ in
# the checkout. GOTOOLCHAIN and GOPROXY keep the build offline.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/home"

# The benchmark pins its own engine settings; these variables would only
# make a run depend on the caller's environment.
unset CMPI_SIM_WORKERS CMPI_SIM_ENGINE CMPI_FOOTPRINT_DECAY

(
	cd "$root/perfbench"
	HOME="$out/home" XDG_CONFIG_HOME="$out/home" GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" \
		GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off \
		go build -o "$out/perfbench" .
)
exec "$out/perfbench" "$@"
