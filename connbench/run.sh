#!/bin/sh
# Builds connbench from the source tree it sits in and runs it with the
# given arguments. Run it from the root of the repository:
#
#   sh connbench/run.sh --workload matrix-fleet --seed 1 --seconds 10 --trace 0
#
# The binary, the Go build cache and every other file the toolchain
# writes stay under .bench_build/ at the root.
set -eu
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local
go -C connbench build -o "$out/connbench" .
exec "$out/connbench" "$@"
