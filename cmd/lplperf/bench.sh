#!/usr/bin/env bash
# Builds lplperf from this checkout and runs it. Run from the repository
# root, for example:
#
#   bash cmd/lplperf/bench.sh --workload hot-ref --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under the build directory
# ($CARGO_TARGET_DIR, default .bench_build): the Go build cache, the
# binary, temporary files and trace-<workload>.json. The last line of
# standard output is one JSON object with the BENCHMARK.json metrics.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/tmp" "$build/lplperf"
export GOCACHE=$build/go-cache GOMODCACHE=$build/go-mod GOTMPDIR=$build/tmp TMPDIR=$build/tmp
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$root/cmd/lplperf" && go build -o "$build/lplperf/lplperf" .) >&2

args=()
while [ $# -gt 0 ]; do
	case $1 in
	--trace | -trace)
		# lplperf's -trace is a boolean flag; accept "--trace 0|1" too.
		case ${2:-} in
		0 | false) args+=(-trace=false) && shift ;;
		1 | true) args+=(-trace=true) && shift ;;
		*) args+=(-trace=true) ;;
		esac
		;;
	*) args+=("$1") ;;
	esac
	shift
done
exec "$build/lplperf/lplperf" -bench "$root/BENCHMARK.json" -dir "$build/lplperf" "${args[@]}"
