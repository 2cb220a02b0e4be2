#!/bin/sh
# Builds the benchmark from source and runs it. Run from the repository
# root; every argument is passed to the benchmark binary:
#
#	sh bench/run.sh                                   # all workloads + traced pass
#	sh bench/run.sh -workload bss-200 -seed 3 -seconds 10 -trace 0
#
# The build cache, temporary files and the binary stay under .bench_build/
# in the working directory, so nothing is written outside the checkout.
set -eu
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOPATH="$build/gopath" GOTOOLCHAIN=local GOFLAGS= GOWORK=off
go build -C bench -o "$build/hidebench" .
exec "$build/hidebench" "$@"
