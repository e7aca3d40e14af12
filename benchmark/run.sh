#!/usr/bin/env bash
# Builds asyrgsd and the benchmark program from this checkout, then runs the
# benchmark with the given arguments. Run it from the repository root:
#
#   bash benchmark/run.sh --workload warm-large --seed 1 --seconds 20 --trace 0
#   bash benchmark/run.sh compare old.jsonl new.jsonl
#
# Binaries, the Go build cache, result and span files all stay under
# .bench_build/ in the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/asyrgsd || ! -f benchmark/go.mod ]]; then
	echo "run.sh: run from the root of an asyrgs checkout" >&2
	exit 2
fi

root=$PWD
out=$root/.bench_build
mkdir -p "$out/tmp"
export GOCACHE=$out/gocache GOTMPDIR=$out/tmp GOPATH=$out/gopath \
	XDG_CONFIG_HOME=$out/config GOTOOLCHAIN=local GOFLAGS=-buildvcs=false

go build -o "$out/asyrgsd" ./cmd/asyrgsd >&2
(cd benchmark && go build -o "$out/benchmark" .) >&2
if [[ ${1:-} == compare ]]; then
	exec "$out/benchmark" "$@"
fi

commit=unknown
if [[ -e .git ]]; then
	commit=$(git rev-parse HEAD 2>/dev/null || echo unknown)
fi
exec "$out/benchmark" -daemon "$out/asyrgsd" -commit "$commit" "$@"
