#!/usr/bin/env bash
# Builds aptserve and the benchmark from the checkout this is run in, then
# runs one workload. Run it from the root of the checkout:
#
#   bash aptbench/run.sh --workload sim-apt-sweep --seed 1 --seconds 10 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the checkout:
# the Go build cache, the Go command's configuration and telemetry, the two
# binaries and the traced run's spans.
set -euo pipefail

root=$(pwd)
bench=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/aptserve" ]]; then
	echo "aptbench: run from the root of a checkout of the repository (no go.mod or cmd/aptserve here)" >&2
	exit 2
fi

out="$root/.bench_build/aptbench"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS= CGO_ENABLED=0

(cd "$root" && go build -o "$out/aptserve" ./cmd/aptserve)
(cd "$bench" && go build -o "$out/aptbench" .)
exec "$out/aptbench" --aptserve "$out/aptserve" --out "$out" "$@"
