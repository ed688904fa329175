#!/usr/bin/env bash
# Builds the benchmark from source and runs it, from the root of a checkout.
# Everything the go tool writes (build cache, telemetry, temporary files, the
# binary) is kept under .bench_build/ in the checkout, so a run reads and
# writes nothing outside it and needs no network.
set -euo pipefail
out=$PWD/.bench_build
mkdir -p "$out/tmp"
export HOME=$out/home GOCACHE=$out/gocache GOPATH=$out/gopath GOTMPDIR=$out/tmp
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off
unset XDG_CONFIG_HOME XDG_CACHE_HOME
# With a fresh HOME the go command would start its detached telemetry child,
# which outlives this script; mode "off" keeps go to the one process we wait for.
mkdir -p "$HOME/.config/go/telemetry"
echo off >"$HOME/.config/go/telemetry/mode"
go build -o "$out/caarbench" ./bench
exec "$out/caarbench" "$@"
