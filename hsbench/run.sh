#!/usr/bin/env bash
# Builds the benchmark and cmd/tracereport from the checkout's sources,
# then runs the benchmark with the given arguments, e.g.
#
#   bash hsbench/run.sh --workload kernel-local --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Build outputs, the Go build cache and the
# benchmark's stores all stay under .bench_build/.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config"
export GOTOOLCHAIN=local GOENV=off GOTELEMETRY=off
mkdir -p "$HOME"

# The benchmark module replaces the hidestore module with the checkout
# root; without the sources there this fails, and so does the run.
(cd "$root/hsbench" && go build -o "$out/hsbench" . && go build -o "$out/tracereport" hidestore/cmd/tracereport)

exec "$out/hsbench" -work "$out/work" -tracereport "$out/tracereport" "$@"
