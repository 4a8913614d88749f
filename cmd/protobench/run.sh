#!/usr/bin/env bash
# Builds protobench from the checkout it is run in and measures one
# workload. Run it from the repository root:
#
#   bash cmd/protobench/run.sh --workload sd_append --seed 1 --seconds 25 --trace 0
#
# --trace 1 makes a traced run, which reports per-layer metrics instead of
# end-to-end ones. Everything it writes (the Go build cache and temporary
# files, the binary, the results, the span file and any stall dump) stays
# under .bench_build/ in the checkout.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export HOME="$out/home" GOPATH="$out/gopath" GOCACHE="$out/gocache" TMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off CGO_ENABLED=0
go -C cmd/protobench build -o "$out/protobench" .

args=(-out "$out/results.json")
while [ $# -gt 0 ]; do
	case "$1" in
	--trace)
		if [ "${2:-0}" = 1 ]; then
			args+=(-trace "$out/trace.json")
		fi
		shift 2
		;;
	*)
		args+=("$1")
		shift
		;;
	esac
done
exec "$out/protobench" "${args[@]}"
