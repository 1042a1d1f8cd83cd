#!/bin/sh
# serve_smoke.sh — end-to-end smoke test of the socd job daemon.
#
# Builds the real socd and socctl binaries, boots the daemon on an
# ephemeral port, drives it over the network like a client would —
# lint job, sim job, cache-hit resubmission, a watched stall hunt — and
# checks the metrics endpoint and a graceful SIGTERM drain with a job
# still in flight. Run
# via `make serve-smoke`.
set -eu

GO=${GO:-go}
WORK=$(mktemp -d)
trap 'kill "$SOCD_PID" 2>/dev/null || true; rm -rf "$WORK"' EXIT

fail() {
	echo "serve-smoke: FAIL: $*" >&2
	echo "--- socd stderr ---" >&2
	cat "$WORK/socd.err" >&2 || true
	exit 1
}

"$GO" build -o "$WORK/socd" ./cmd/socd
"$GO" build -o "$WORK/socctl" ./cmd/socctl

"$WORK/socd" -addr 127.0.0.1:0 -workers 2 -drain-timeout 1s \
	>"$WORK/socd.out" 2>"$WORK/socd.err" &
SOCD_PID=$!

# First stdout line is "listening on <host:port>".
ADDR=
for _ in $(seq 1 50); do
	ADDR=$(head -n 1 "$WORK/socd.out" 2>/dev/null | sed -n 's/^listening on //p')
	[ -n "$ADDR" ] && break
	sleep 0.1
done
[ -n "$ADDR" ] || fail "socd never printed its listen address"
CTL="$WORK/socctl -addr $ADDR"

# Lint job: the badcdc fixture must surface its CDC-1 error diagnostic.
$CTL submit -kind lint -test badcdc -wait >"$WORK/lint.json" \
	|| fail "lint submission failed"
grep -q '"CDC-1"' "$WORK/lint.json" || fail "lint result missing CDC-1"

# Sim job twice: identical results, second served from the cache.
$CTL submit -kind sim -test memcpy -wait >"$WORK/sim1.json" \
	|| fail "sim submission failed"
grep -q '"status": "PASS"' "$WORK/sim1.json" || fail "sim did not PASS"
$CTL submit -kind sim -test memcpy -wait >"$WORK/sim2.json" \
	|| fail "sim resubmission failed"
cmp -s "$WORK/sim1.json" "$WORK/sim2.json" \
	|| fail "cached sim result not byte-identical"

# Metrics must show exactly one cache hit and three submissions.
$CTL metrics >"$WORK/metrics.json" || fail "metrics fetch failed"
grep -q '{"path":"serve/cache","name":"hits","value":1}' "$WORK/metrics.json" \
	|| fail "serve/cache hits != 1"
grep -q '{"path":"serve/jobs","name":"submitted","value":3}' "$WORK/metrics.json" \
	|| fail "serve/jobs submitted != 3"
$CTL health >/dev/null || fail "healthz not ok"

# A watched stall hunt streams its whole log, ending with done; socctl
# watch exits non-zero on a stream cut short.
$CTL submit -kind stallhunt -seeds 4 -messages 200 >"$WORK/hunt.json" \
	|| fail "stallhunt submission failed"
HUNT=$(sed -n 's/^ *"id": "\([^"]*\)".*/\1/p' "$WORK/hunt.json")
[ -n "$HUNT" ] || fail "no job id in the stallhunt submission reply"
$CTL watch "$HUNT" >"$WORK/hunt.ndjson" || fail "watching $HUNT failed"
tail -n 1 "$WORK/hunt.ndjson" | grep -q '"event":"done"' \
	|| fail "stream of $HUNT does not end with done"

# Graceful drain with a job in flight: a stall hunt that would run far
# past the 1s drain budget. SIGTERM must cancel it through the job
# context and exit cleanly (status 0) within 5s.
$CTL submit -kind stallhunt -messages 100000000 -seeds 1 >/dev/null \
	|| fail "stallhunt submission failed"
kill -TERM "$SOCD_PID"
i=0
while kill -0 "$SOCD_PID" 2>/dev/null; do
	i=$((i + 1))
	[ "$i" -le 50 ] || fail "socd did not exit within 5s of SIGTERM with a job in flight"
	sleep 0.1
done
wait "$SOCD_PID" || fail "socd exited non-zero after SIGTERM"
grep -q "drain: canceled stragglers" "$WORK/socd.err" || fail "in-flight job was not canceled by the drain"
grep -q "drained, exiting" "$WORK/socd.err" || fail "drain log line missing"

echo "serve-smoke: PASS (socd at $ADDR: lint, sim, cache hit, watched stall hunt, drain with a job in flight)"
