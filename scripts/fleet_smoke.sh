#!/bin/sh
# fleet_smoke.sh — end-to-end smoke test of the socgw fleet.
#
# Builds the real socgw, socd, and socctl binaries, boots a gateway
# plus three workers on ephemeral ports, and drives the fleet through
# the client API exactly like a lone daemon: jobs land on workers by
# content hash, a worker killed mid-batch triggers failover with zero
# lost jobs, the restarted worker serves jobs again, and every result
# is byte-identical to a single-daemon run of the same specs. Run via
# `make fleet-smoke`.
set -eu

GO=${GO:-go}
WORK=$(mktemp -d)
PIDS=""
trap 'for p in $PIDS; do kill "$p" 2>/dev/null || true; done; rm -rf "$WORK"' EXIT

fail() {
	echo "fleet-smoke: FAIL: $*" >&2
	echo "--- socgw stderr ---" >&2
	cat "$WORK/socgw.err" >&2 || true
	for w in w1 w2 w3; do
		echo "--- $w stderr ---" >&2
		cat "$WORK/$w.err" >&2 || true
	done
	exit 1
}

"$GO" build -o "$WORK/socgw" ./cmd/socgw
"$GO" build -o "$WORK/socd" ./cmd/socd
"$GO" build -o "$WORK/socctl" ./cmd/socctl

# Gateway with fast failover timings so the kill/restart cycle is quick.
"$WORK/socgw" -addr 127.0.0.1:0 -worker-addr 127.0.0.1:0 -dead-after 2s \
	>"$WORK/socgw.out" 2>"$WORK/socgw.err" &
GW_PID=$!
PIDS="$PIDS $GW_PID"

# Stdout lines 1-2 are "listening on <addr>" / "workers on <addr>".
ADDR= WADDR=
for _ in $(seq 1 50); do
	ADDR=$(sed -n 's/^listening on //p' "$WORK/socgw.out" 2>/dev/null)
	WADDR=$(sed -n 's/^workers on //p' "$WORK/socgw.out" 2>/dev/null)
	[ -n "$ADDR" ] && [ -n "$WADDR" ] && break
	sleep 0.1
done
[ -n "$ADDR" ] && [ -n "$WADDR" ] || fail "socgw never printed its addresses"
CTL="$WORK/socctl -addr $ADDR"

start_worker() { # $1 = name
	"$WORK/socd" -addr 127.0.0.1:0 -workers 2 -gateway "$WADDR" -name "$1" \
		-heartbeat 200ms >"$WORK/$1.out" 2>"$WORK/$1.err" &
	eval "${1}_PID=\$!"
	eval "PIDS=\"\$PIDS \$${1}_PID\""
}
start_worker w1
start_worker w2
start_worker w3

# Wait for the full roster.
for _ in $(seq 1 50); do
	N=$($CTL workers 2>/dev/null | grep -c '"name"') || N=0
	[ "$N" -eq 3 ] && break
	sleep 0.1
done
[ "$N" -eq 3 ] || fail "fleet never reached 3 workers (got $N)"

# Batch 1: a spread of specs through the gateway.
SPECS='{"kind":"sim","test":"memcpy"}
{"kind":"sim","test":"vecadd"}
{"kind":"lint","test":"badcdc"}
{"kind":"stallhunt","stall":0.3,"messages":60,"seeds":2,"seed":11}
{"kind":"stallhunt","stall":0.3,"messages":60,"seeds":2,"seed":12}
{"kind":"stallhunt","stall":0.3,"messages":60,"seeds":2,"seed":13}'
i=0
echo "$SPECS" | while read -r spec; do
	i=$((i + 1))
	$CTL submit -spec "$spec" -wait >"$WORK/fleet$i.json" \
		|| fail "fleet submission $i failed"
done

# Kill one worker mid-campaign: launch a slow-ish batch, kill w2 while
# it runs, and require every job to complete anyway (failover).
for s in 21 22 23 24; do
	$CTL submit -spec "{\"kind\":\"stallhunt\",\"stall\":0.3,\"messages\":80,\"seeds\":3,\"seed\":$s}" \
		-wait >"$WORK/failover$s.json" &
	eval "J${s}_PID=\$!"
done
sleep 0.3
kill -9 "$w2_PID" 2>/dev/null || true # crash, not drain: the gateway must notice on its own
for s in 21 22 23 24; do
	eval "wait \"\$J${s}_PID\"" || fail "job seed=$s lost after worker kill"
	grep -q '"bug_seeds"' "$WORK/failover$s.json" || fail "job seed=$s returned no result body"
done

# Restart the dead worker under its old name; the roster must heal.
start_worker w2
for _ in $(seq 1 50); do
	N=$($CTL workers 2>/dev/null | grep -c '"name"') || N=0
	[ "$N" -eq 3 ] && break
	sleep 0.1
done
[ "$N" -eq 3 ] || fail "fleet did not heal to 3 workers after restart (got $N)"

# The restarted worker must serve again: this spec's rendezvous order
# over w1, w2, w3 is [w2 w3 w1], so the idle fleet routes it to w2.
$CTL submit -spec '{"kind":"stallhunt","stall":0.3,"messages":60,"seeds":2,"seed":31}' -wait \
	>"$WORK/rejoin.json" || fail "submission after restart failed"
$CTL jobs >"$WORK/jobs.json" || fail "jobs listing failed"
LAST=$(tr -d ' \n' <"$WORK/jobs.json" | sed 's/.*{//') # the newest job's row
case "$LAST" in
*'"worker":"w2"'*) ;;
*) fail "restarted w2 did not serve the job it owns (row: $LAST)" ;;
esac

# Failover counters must show the death was seen and handled.
$CTL metrics >"$WORK/metrics.json" || fail "metrics fetch failed"
grep -q '"path":"fleet/failover","name":"worker_deaths","value":[1-9]' "$WORK/metrics.json" \
	|| fail "fleet/failover worker_deaths not incremented"

# Byte-identity: rerun batch 1 against a lone socd and compare bodies.
"$WORK/socd" -addr 127.0.0.1:0 -workers 2 >"$WORK/solo.out" 2>"$WORK/solo.err" &
SOLO_PID=$!
PIDS="$PIDS $SOLO_PID"
SOLO_ADDR=
for _ in $(seq 1 50); do
	SOLO_ADDR=$(head -n 1 "$WORK/solo.out" 2>/dev/null | sed -n 's/^listening on //p')
	[ -n "$SOLO_ADDR" ] && break
	sleep 0.1
done
[ -n "$SOLO_ADDR" ] || fail "solo socd never printed its listen address"
i=0
echo "$SPECS" | while read -r spec; do
	i=$((i + 1))
	"$WORK/socctl" -addr "$SOLO_ADDR" submit -spec "$spec" -wait >"$WORK/solo$i.json" \
		|| fail "solo submission $i failed"
	cmp -s "$WORK/fleet$i.json" "$WORK/solo$i.json" \
		|| fail "fleet result $i not byte-identical to single daemon ($spec)"
done

# Graceful drain: SIGTERM must exit cleanly within budget.
kill -TERM "$GW_PID"
i=0
while kill -0 "$GW_PID" 2>/dev/null; do
	i=$((i + 1))
	[ "$i" -le 100 ] || fail "socgw did not drain within 10s of SIGTERM"
	sleep 0.1
done
wait "$GW_PID" || fail "socgw exited non-zero after SIGTERM"
grep -q "drained, exiting" "$WORK/socgw.err" || fail "gateway drain log line missing"

echo "fleet-smoke: PASS (socgw at $ADDR: 3 workers, failover, rejoin, byte-identical, drain)"
