#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with
# the given arguments (see README.md). Every file the Go toolchain
# writes — build cache, temporaries, telemetry — stays under
# .bench_build/ at the checkout root.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/cache" "$out/tmp" "$out/config" "$out/gopath"
export GOCACHE="$out/cache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
