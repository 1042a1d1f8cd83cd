#!/usr/bin/env bash
# bench_smoke.sh — a short run of every benchmark workload.
#
# Runs `bash bench/run.sh --workload W --seed 1 --seconds 1` for each of
# the four workloads under a deadline and requires each to exit 0 with
# "failed":0 in its result line. After every run no process started from
# .bench_build/bin (socbench, its soc session child, socd, socgw) may
# still be alive: a leftover one is killed and the smoke fails. A lost
# wake-up that leaves a simulation stepping toward its cycle cap shows up
# here as a timeout or a leftover process. Run via `make bench-smoke`.
set -u

root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
bin="$root/.bench_build/bin/"
deadline=300
status=0

leftovers() {
	pgrep -f "^$bin" || true
}

if [ -n "$(leftovers)" ]; then
	echo "bench-smoke: FAIL: processes from $bin already running before the smoke:" >&2
	pgrep -af "^$bin" >&2
	exit 1
fi

for w in soc-sync soc-gals serve-mix fleet-mix; do
	ok=1
	out=$(timeout -k 10 "$deadline" bash bench/run.sh --workload "$w" --seed 1 --seconds 1)
	rc=$?
	if [ "$rc" -eq 124 ] || [ "$rc" -eq 137 ]; then
		echo "bench-smoke: FAIL: $w still running after ${deadline}s" >&2
		ok=0
	elif [ "$rc" -ne 0 ]; then
		echo "bench-smoke: FAIL: $w exited $rc" >&2
		ok=0
	elif ! printf '%s\n' "$out" | grep -q '"failed":0[,}]'; then
		echo "bench-smoke: FAIL: $w reported failed ops:" >&2
		printf '%s\n' "$out" | tail -n 1 >&2
		ok=0
	fi
	if [ -n "$(leftovers)" ]; then
		echo "bench-smoke: FAIL: $w left processes running:" >&2
		pgrep -af "^$bin" >&2
		pkill -KILL -f "^$bin" || true
		ok=0
	fi
	if [ "$ok" -eq 1 ]; then
		echo "bench-smoke: $w ok"
	else
		status=1
	fi
done
exit "$status"
