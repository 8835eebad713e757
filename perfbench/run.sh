#!/usr/bin/env bash
# Builds the benchmark program from the sources next to it and runs it.
# Run from the repository root:
#
#	bash perfbench/run.sh --workload mux-3g --seed 1 --seconds 25 --trace 0
#
# Every build artefact (binary, Go build cache, temporary files) stays in
# .bench_build/ under the current directory. The build fails, and the
# script exits nonzero without printing a result, when the simulator's
# sources are not next to perfbench/.
set -euo pipefail

root="$(pwd)"
build="${root}/.bench_build"
mkdir -p "${build}/gocache" "${build}/tmp" "${build}/config"
export GOCACHE="${build}/gocache"
export GOTMPDIR="${build}/tmp"
export GOPATH="${build}/gopath"
export GOMODCACHE="${build}/gopath/pkg/mod"
export GOPROXY=off
export GOTOOLCHAIN=local
# The toolchain keeps its configuration and telemetry under the user
# config directory; point it into the build directory too.
export XDG_CONFIG_HOME="${build}/config"
export GOTELEMETRY=off

(cd "${root}/perfbench" && go build -o "${build}/perfbench" .)
exec "${build}/perfbench" "$@"
