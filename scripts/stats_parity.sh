#!/usr/bin/env bash
# stats_parity.sh — byte-compare socsim's metrics snapshots against a
# base revision.
#
# Usage: bash scripts/stats_parity.sh REV
#
# Builds cmd/socsim from the working tree and from git revision REV (its
# committed tree, exported with `git archive` into a temporary directory),
# runs every SoC test under each setting below with -statsjson in both
# builds, and byte-compares the two snapshots. It then byte-compares the
# analysis result bodies (`socsim -test all -check P -checkjson`, the
# bodies of `-check all` one pass at a time) for each pass, on one clock
# and under -gals. Prints one line per test and setting and per pass and
# clocking, and exits 1 if any file differs or any run fails; a verify
# row that differs only in its state counts (the "states" field and the
# count in "summary") says so. A change that must move no cycle,
# transfer, stall or occupancy figure (a refactor of the kernel, the
# channels or a component) should report every file identical. Not part
# of `make check`: it needs a base revision.
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
# The verify bodies' state counts: the "states" field and the count in
# "summary".
states='s/"states": [0-9]+/"states": N/; s/, [0-9]+ state\(s\)/, N state(s)/'

# row NAME OUTFLAG ARGS...: runs both builds with ARGS and OUTFLAG FILE,
# then byte-compares the two files written.
row() {
	local name=$1 out=$2 ok=1 b
	shift 2
	for b in base work; do
		if ! "$tmp/socsim.$b" "$@" "$out" "$tmp/$b.json" >/dev/null; then
			echo "stats-parity: $name: the $b build failed" >&2
			ok=0
		fi
	done
	if [ "$ok" = 1 ] && cmp -s "$tmp/base.json" "$tmp/work.json"; then
		echo "same     $name"
		same=$((same + 1))
	else
		if [ "$ok" = 1 ]; then
			if cmp -s <(sed -E "$states" "$tmp/base.json") <(sed -E "$states" "$tmp/work.json"); then
				echo "DIFFERS  $name (state counts only)"
			else
				echo "DIFFERS  $name"
			fi
		fi
		bad=$((bad + 1))
	fi
	rm -f "$tmp/base.json" "$tmp/work.json"
}

for s in "${settings[@]}"; do
	name=${s%%|*}
	read -r -a flags <<<"${s#*|}"
	for t in $tests; do
		row "$t/$name" -statsjson -test "$t" "${flags[@]}"
	done
done
# The analysis bodies: no simulation, one array per pass and clocking.
for clk in tlm gals; do
	flags=()
	[ "$clk" = gals ] && flags=(-gals)
	for p in lint rateck verify; do
		row "check-$p/$clk" -checkjson -test all "${flags[@]}" -check "$p"
	done
done
echo "stats-parity: $same identical, $bad differing or failed, against $rev"
[ "$bad" -eq 0 ]
