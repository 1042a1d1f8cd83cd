#!/bin/sh
# fleet_soak.sh — sustained-load soak of the socgw fleet with chaos.
#
# Boots a gateway plus three workers, runs cmd/socsoak against it
# (rounds of concurrent jobs, byte-identity cross-checked across
# rounds), and kills + restarts a worker in the middle of the soak.
# socsoak exits nonzero on any lost job or result mismatch, so this
# script is a direct assertion of the fleet's two invariants under
# churn. Heavier than fleet_smoke.sh; run on demand:
#
#	scripts/fleet_soak.sh              # default 5 rounds
#	ROUNDS=20 scripts/fleet_soak.sh    # longer soak
set -eu

GO=${GO:-go}
ROUNDS=${ROUNDS:-5}
WORK=$(mktemp -d)
PIDS=""
trap 'for p in $PIDS; do kill "$p" 2>/dev/null || true; done; rm -rf "$WORK"' EXIT

fail() {
	echo "fleet-soak: FAIL: $*" >&2
	echo "--- socgw stderr ---" >&2
	cat "$WORK/socgw.err" >&2 || true
	exit 1
}

"$GO" build -o "$WORK/socgw" ./cmd/socgw
"$GO" build -o "$WORK/socd" ./cmd/socd
"$GO" build -o "$WORK/socctl" ./cmd/socctl
"$GO" build -o "$WORK/socsoak" ./cmd/socsoak

"$WORK/socgw" -addr 127.0.0.1:0 -worker-addr 127.0.0.1:0 -dead-after 2s \
	>"$WORK/socgw.out" 2>"$WORK/socgw.err" &
GW_PID=$!
PIDS="$PIDS $GW_PID"

ADDR= WADDR=
for _ in $(seq 1 50); do
	ADDR=$(sed -n 's/^listening on //p' "$WORK/socgw.out" 2>/dev/null)
	WADDR=$(sed -n 's/^workers on //p' "$WORK/socgw.out" 2>/dev/null)
	[ -n "$ADDR" ] && [ -n "$WADDR" ] && break
	sleep 0.1
done
[ -n "$ADDR" ] && [ -n "$WADDR" ] || fail "socgw never printed its addresses"

start_worker() { # $1 = name
	"$WORK/socd" -addr 127.0.0.1:0 -workers 2 -gateway "$WADDR" -name "$1" \
		-heartbeat 200ms >"$WORK/$1.out" 2>"$WORK/$1.err" &
	eval "${1}_PID=\$!"
	eval "PIDS=\"\$PIDS \$${1}_PID\""
}
start_worker w1
start_worker w2
start_worker w3

for _ in $(seq 1 50); do
	N=$("$WORK/socctl" -addr "$ADDR" workers 2>/dev/null | grep -c '"name"') || N=0
	[ "$N" -eq 3 ] && break
	sleep 0.1
done
[ "$N" -eq 3 ] || fail "fleet never reached 3 workers (got $N)"

# Chaos alongside the soak: kill w2 partway in, restart it later.
(
	sleep 3
	kill -9 "$w2_PID" 2>/dev/null || true
	echo "fleet-soak: killed w2 mid-soak"
	sleep 4
	"$WORK/socd" -addr 127.0.0.1:0 -workers 2 -gateway "$WADDR" -name w2 \
		-heartbeat 200ms >"$WORK/w2b.out" 2>"$WORK/w2b.err" &
	echo "fleet-soak: restarted w2"
	wait
) &
CHAOS_PID=$!
PIDS="$PIDS $CHAOS_PID"

"$WORK/socsoak" -addr "$ADDR" -rounds "$ROUNDS" -concurrency 8 \
	|| fail "socsoak reported lost or mismatched jobs"

echo "fleet-soak: PASS ($ROUNDS rounds with mid-soak worker kill/restart)"
