#!/usr/bin/env bash
# Builds the serving benchmark from the sources of the checkout it is run
# from, then runs it with the given arguments. Run from the repository root:
#
#   bash servebench/run.sh --workload net-zipf-r95 --seed 1 --seconds 15 --trace 0 \
#       --slo-read-p99-us 20000 --ref-rate 4000
#
# Build outputs and the Go build cache stay under .bench_build/ in the checkout.
set -euo pipefail
out="$PWD/.bench_build/servebench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
commit=none
if [ -d .git ]; then
	commit=$(git rev-parse HEAD 2>/dev/null || echo none)
fi
(cd servebench && go build -ldflags "-X main.commit=$commit" -o "$out/servebench" .)
exec "$out/servebench" "$@"
