#!/usr/bin/env bash
# stats_parity.sh — byte-compare socsim's metrics snapshots against a
# base revision.
#
# Usage: bash scripts/stats_parity.sh REV
#
# Builds cmd/socsim from the working tree and from git revision REV (its
# committed tree, exported with `git archive` into a temporary directory),
# runs every SoC test under each setting below with -statsjson in both
# builds, and byte-compares the two snapshots. Prints one line per test
# and setting and exits 1 if any snapshot differs or any run fails. A
# change that must move no cycle, transfer, stall or occupancy figure
# (a refactor of the kernel, the channels or a component) should report
# every file identical. Not part of `make check`: it needs a base revision.
set -u

rev=${1:?usage: scripts/stats_parity.sh REV}
root="$(cd "$(dirname "$0")/.." && pwd)"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

mkdir "$tmp/base"
if ! git -C "$root" archive "$rev" | tar -x -C "$tmp/base"; then
	echo "stats-parity: cannot export revision $rev" >&2
	exit 1
fi
(cd "$tmp/base" && go build -o "$tmp/socsim.base" ./cmd/socsim) || exit 1
(cd "$root" && go build -o "$tmp/socsim.work" ./cmd/socsim) || exit 1

# name|flags: the channel models and clockings, with and without stalls;
# stall-trace and gals-trace arm the channels, which then never sleep, so
# their snapshots also carry the trace analysis of every handshake.
settings=(
	"tlm|"
	"gals|-gals"
	"signal|-mode signal"
	"gals-signal-stall|-gals -mode signal -stall 0.1"
	"signal-stall|-mode signal -stall 0.1"
	"rtl-stall|-mode rtl -stall 0.1"
	"gals-stall-seed3|-gals -stall 0.1 -seed 3"
	"rtl-shadow|-mode rtl -shadow"
	"stall|-stall 0.05 -seed 7"
	"gals-stall|-gals -stall 0.05"
	"stall-trace|-stall 0.1 -trace"
	"gals-trace|-gals -stall 0.1 -trace"
	"gals-rtl|-gals -mode rtl -stall 0.1"
)
tests=$("$tmp/socsim.work" -test all | awk '{print $1}')
if [ -z "$tests" ]; then
	echo "stats-parity: socsim -test all listed no tests" >&2
	exit 1
fi

same=0
bad=0
for s in "${settings[@]}"; do
	name=${s%%|*}
	read -r -a flags <<<"${s#*|}"
	for t in $tests; do
		ok=1
		for b in base work; do
			if ! "$tmp/socsim.$b" -test "$t" "${flags[@]}" -statsjson "$tmp/$b.json" >/dev/null; then
				echo "stats-parity: $t/$name: the $b build failed" >&2
				ok=0
			fi
		done
		if [ "$ok" = 1 ] && cmp -s "$tmp/base.json" "$tmp/work.json"; then
			echo "same     $t/$name"
			same=$((same + 1))
		else
			[ "$ok" = 1 ] && echo "DIFFERS  $t/$name"
			bad=$((bad + 1))
		fi
		rm -f "$tmp/base.json" "$tmp/work.json"
	done
done
echo "stats-parity: $same identical, $bad differing or failed, against $rev"
[ "$bad" -eq 0 ]
