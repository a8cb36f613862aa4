#!/usr/bin/env bash
# Builds vizbench from this checkout's sources and runs it with the given
# arguments. Run it from anywhere; build caches, block files and spill
# tiers all stay under .bench_build/vizbench in the checkout root.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build/vizbench"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config" "$out/runs"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOWORK=off GOFLAGS=-mod=mod
(cd "$root/vizbench" && go build -o "$out/vizbench" .)
cd "$root"
exec "$out/vizbench" -workdir "$out/runs" "$@"
