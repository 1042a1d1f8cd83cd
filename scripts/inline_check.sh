#!/usr/bin/env bash
# inline_check.sh — require the compiler to inline the simulation
# kernel's hot entry points where the hot paths call them.
#
# Usage: bash scripts/inline_check.sh
#
# Builds internal/sim, internal/connections and internal/noc with
# -gcflags=-m and fails unless
#   - (*Event).Notify, (*Clock).Cycle, (*Clock).Committed,
#     (*Clock).NextEdge, (*Clock).Now and (*Thread).Cycle can inline;
#   - Notify is inlined into the channel core's tryPush and tryPop;
#   - In[...].Peek is inlined into WHVCRouter.snapshot;
#   - the stall stream's per-draw step, (*stallStream).draw, is inlined
#     into its roll loop, which an awake stalled channel runs every edge.
# Call sites are matched by the enclosing function's line range in its
# source, never by a fixed line number. (*OnTouch).Touch is left out: it
# does not inline. A statement added to one of these functions can push
# it over the inliner's budget and cost every channel operation a call
# with no change in any simulated figure; this check is what notices.
set -u

root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root" || exit 1
if ! out=$("${GO:-go}" build -gcflags=-m ./internal/sim ./internal/connections ./internal/noc 2>&1); then
	echo "$out" >&2
	exit 1
fi

bad=0

# can_inline DIR NAME: the compiler reports NAME inlinable in a file of
# package DIR.
can_inline() {
	if DIR="$1/" NAME="$2" awk -F: '
		index($1, ENVIRON["DIR"]) == 1 && $4 == " can inline " ENVIRON["NAME"] {found = 1}
		END {exit !found}' <<<"$out"; then
		echo "inlines  $2"
	else
		echo "NOT INLINABLE  $2 ($1)"
		bad=$((bad + 1))
	fi
}

# inlined_into FILE FUNC CALLEE: a line of FILE inside the method FUNC
# (from its declaration to the next closing brace in column one) reports
# an inlined call to CALLEE, where [...] in CALLEE stands for any type
# arguments.
inlined_into() {
	local range
	range=$(awk -v name="$2" '!s && $0 ~ ("^func \\([^)]*\\) " name "\\(") {s = NR} s && /^}/ {print s, NR; exit}' "$1")
	if [ -z "$range" ]; then
		echo "inline-check: no method $2 in $1" >&2
		bad=$((bad + 1))
		return
	fi
	if FILE="$1" FROM="${range% *}" TO="${range#* }" CALLEE="$3" awk -F: '
		$1 == ENVIRON["FILE"] && $2 + 0 >= ENVIRON["FROM"] + 0 && $2 + 0 <= ENVIRON["TO"] + 0 {
			sub(/\[.*\]/, "[...]", $4)
			if ($4 == " inlining call to " ENVIRON["CALLEE"]) found = 1
		}
		END {exit !found}' <<<"$out"; then
		echo "inlined  $3 in $2"
	else
		echo "NOT INLINED  $3 in $2 ($1:${range/ /-})"
		bad=$((bad + 1))
	fi
}

for f in '(*Event).Notify' '(*Clock).Cycle' '(*Clock).Committed' '(*Clock).NextEdge' '(*Clock).Now' '(*Thread).Cycle'; do
	can_inline internal/sim "$f"
done
inlined_into internal/connections/channel.go tryPush 'sim.(*Event).Notify'
inlined_into internal/connections/channel.go tryPop 'sim.(*Event).Notify'
inlined_into internal/noc/whvc.go snapshot 'connections.(*In[...]).Peek'
inlined_into internal/connections/stall.go roll '(*stallStream).draw'

if [ "$bad" -ne 0 ]; then
	echo "inline-check: $bad hot entry point(s) not inlined" >&2
	exit 1
fi
echo "inline-check: every hot entry point inlines"
