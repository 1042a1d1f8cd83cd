#!/usr/bin/env bash
# Builds socbench, socd and socgw from this checkout into .bench_build/bin
# and runs socbench with the given arguments (see bench/README.md), e.g.
#
#   bash bench/run.sh --workload soc-sync --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache, temporary files and span files all
# stay under .bench_build at the repository root. socbench and every
# process it starts run pinned to the last CPU this shell may use, so that
# a measured op and the reference chunks timed around it (bench/calib.go)
# see the same CPU; without taskset they run unpinned.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/home" "$out/tmp"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home" GOCACHE="$out/gocache" \
	GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOENV=off GOFLAGS= \
	GOTOOLCHAIN=local GOPROXY=off GOTELEMETRY=off
go build -o "$out/bin/" ./cmd/socd ./cmd/socgw >&2
(cd bench && go build -o "$out/bin/socbench" ./cmd/socbench) >&2
cpus=$(sed -n 's/^Cpus_allowed_list:[[:space:]]*//p' /proc/self/status 2>/dev/null || true)
cpu=${cpus##*[,-]}
if [ -n "$cpu" ] && command -v taskset >/dev/null && taskset -c "$cpu" true 2>/dev/null; then
	exec taskset -c "$cpu" "$out/bin/socbench" "$@"
fi
exec "$out/bin/socbench" "$@"
