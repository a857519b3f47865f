#!/usr/bin/env bash
# Builds the perfbench binary from source and runs it with the given flags.
# Run from the repository root, e.g.
#   bash perfbench/run.sh --workload scenario-fleet --seed 1 --seconds 30 --trace 0
# Build outputs, the Go build cache and the benchmark's result stores all
# stay under $CARGO_TARGET_DIR (default .bench_build) inside the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal/fleet || ! -f perfbench/main.go ]]; then
	echo "perfbench: run from the root of a mobicore checkout" >&2
	exit 2
fi

out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$PWD/$out" ;;
esac
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local CGO_ENABLED=0

go build -o "$out/perfbench" ./perfbench
exec "$out/perfbench" --dir "$out" "$@"
