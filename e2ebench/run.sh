#!/usr/bin/env bash
# Builds xpathserve, xpathrouter and the load generator (e2ebench) from the
# checkout's sources, then runs it with the given arguments:
#
#   bash e2ebench/run.sh --workload serve-auction --seed 1 --seconds 30 --trace 0
#   bash e2ebench/run.sh steady --runs 10
#   bash e2ebench/run.sh selftest
#
# Run it from the repository root. Everything the build and the runs
# leave behind goes under .bench_build/ in that root.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/xpathserve" || ! -d "$root/e2ebench" ]]; then
	echo "e2ebench: run from the repository root (go.mod, cmd/xpathserve and e2ebench/ must be present)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
# Keep the go command's caches, temporary files, settings and telemetry
# inside the checkout.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=mod CGO_ENABLED=0

go build -o "$out/bin/xpathserve" ./cmd/xpathserve >&2
go build -o "$out/bin/xpathrouter" ./cmd/xpathrouter >&2
(cd "$root/e2ebench" && go build -o "$out/bin/e2ebench" .) >&2

exec "$out/bin/e2ebench" -bin "$out/bin" "$@"
