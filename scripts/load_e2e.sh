#!/bin/sh
# load_e2e.sh — chaos-and-soak end-to-end proof for the hardened
# service stack, invoked by `make chaos-e2e` and as a `make ci` step
# (docs/RESILIENCE.md "Chaos & load"):
#   1. a plain single-node positserve runs the reference campaign to
#      completion — the serial baseline CSV;
#   2. a coordinator plus two workers runs under sustained positload
#      traffic, with chaos everywhere it is survivable by design:
#      the coordinator sits behind a chaosproxy injecting latency,
#      connection resets and synthetic 5xx (the client retry budget
#      absorbs these), and each worker sits behind a chaosproxy that
#      additionally truncates and corrupts shard CSV bodies (the
#      CRC-trailer integrity check turns these into retried shard
#      failures, never merged results);
#   3. one worker is hard-killed (SIGKILL) mid-soak, restarted on the
#      same address, and re-registers itself via POST /v1/workers
#      advertising its chaos-proxy URL;
#   4. positload's error budget must hold (exit 0, no violations) and
#      its artifact must carry the positres-load/v1 schema;
#   5. the soak's final campaign CSV must be byte-identical to the
#      serial baseline — corruption that slipped past the integrity
#      check would show up here;
#   6. the front proxy's stats dump must show it actually injected
#      faults (a chaos e2e that ran without chaos proves nothing);
#   7. the coordinator's /metrics must show nonzero wire traffic
#      (wire_frames, wire_bytes) and wire_csv_fallbacks at 0 — shards
#      travel as store blocks (docs/STORE.md) even through the
#      corrupting proxies, whose block damage surfaces as retried
#      shard failures, never as merged data.
#
# The front proxy deliberately carries no truncate/corrupt faults:
# only the /v1/shards path has the CRC trailer envelope, so body
# corruption is injected exactly where the design defends it.
set -eu

cd "$(dirname "$0")/.."

GO=${GO:-go}
CURL="curl -sS"
TMP=$(mktemp -d)
PIDS=""
cleanup() {
	for pid in $PIDS; do
		kill "$pid" 2>/dev/null || true
	done
	rm -rf "$TMP"
}
trap cleanup EXIT

SERVE="$TMP/positserve"
PROXY="$TMP/chaosproxy"
LOAD="$TMP/positload"
$GO build -o "$SERVE" ./cmd/positserve
$GO build -o "$PROXY" ./cmd/chaosproxy
$GO build -o "$LOAD" ./cmd/positload

# The reference campaign: the exact spec positload submits (positload
# pins seed 7), big enough that the mid-soak worker kill lands inside
# a running campaign.
FIELD="CESM/CLOUD"
FORMAT="posit16"
N=50000
TRIALS=40
CSV_NAME="CESM_CLOUD_${FORMAT}.csv"
BODY="{\"fields\":[\"$FIELD\"],\"formats\":[\"$FORMAT\"],\"n\":$N,\"trials_per_bit\":$TRIALS,\"seed\":7}"

# start_proc <banner-prefix> <log> <cmd...> — launches a process whose
# first stdout line is "<prefix>: listening on http://HOST:PORT" and
# sets PROC_BASE/PROC_ADDR/PROC_PID.
start_proc() {
	prefix=$1
	log=$2
	shift 2
	"$@" >"$log" 2>&1 &
	PROC_PID=$!
	PIDS="$PIDS $PROC_PID"
	addr=""
	for _ in $(seq 1 100); do
		addr=$(sed -n "s|^$prefix: listening on http://||p" "$log" | head -n 1)
		[ -n "$addr" ] && break
		sleep 0.1
	done
	if [ -z "$addr" ]; then
		echo "$prefix never reported its address:"
		cat "$log"
		exit 1
	fi
	PROC_BASE="http://$addr"
	PROC_ADDR="$addr"
}

echo "--- serial baseline: plain single node, reference campaign"
start_proc positserve "$TMP/serial.log" "$SERVE" -addr 127.0.0.1:0 -data-dir "$TMP/serial"
SERIAL_BASE=$PROC_BASE
SERIAL_PID=$PROC_PID
mkdir -p "$TMP/baseline"
SERIAL_ID=$($CURL -X POST -d "$BODY" "$SERIAL_BASE/v1/campaigns" | sed -n 's/.*"id": "\([0-9a-f]*\)".*/\1/p' | head -n 1)
[ -n "$SERIAL_ID" ] || { echo "baseline submission returned no job id"; cat "$TMP/serial.log"; exit 1; }
for _ in $(seq 1 600); do
	state=$($CURL "$SERIAL_BASE/v1/campaigns/$SERIAL_ID" | sed -n 's/.*"state": "\([a-z]*\)".*/\1/p' | head -n 1)
	[ "$state" = "complete" ] && break
	sleep 0.1
done
[ "$state" = "complete" ] || { echo "baseline campaign never completed ($state)"; exit 1; }
$CURL -o "$TMP/baseline/$CSV_NAME" "$SERIAL_BASE/v1/campaigns/$SERIAL_ID/results?field=$FIELD&format=$FORMAT"
head -c 200 "$TMP/baseline/$CSV_NAME" | grep -q '^field,codec,' || {
	echo "baseline download is not a campaign CSV:"
	head -n 3 "$TMP/baseline/$CSV_NAME"
	exit 1
}
kill -TERM "$SERIAL_PID"

echo "--- chaos stack: 2 workers behind corrupting proxies, coordinator behind a faulting proxy"
start_proc positserve "$TMP/w1.log" "$SERVE" -addr 127.0.0.1:0 -data-dir "$TMP/w1"
W1_ADDR=$PROC_ADDR
W1_PID=$PROC_PID
start_proc positserve "$TMP/w2.log" "$SERVE" -addr 127.0.0.1:0 -data-dir "$TMP/w2"
W2_ADDR=$PROC_ADDR

# Worker proxies: body-level hostility (truncate + corrupt) plus some
# latency — the shard CRC envelope must catch every damaged body.
start_proc chaosproxy "$TMP/p1.log" "$PROXY" -target "http://$W1_ADDR" \
	-chaos-seed 11 -chaos-truncate-p 0.10 -chaos-corrupt-p 0.10 -chaos-latency-p 0.10
P1_BASE=$PROC_BASE
start_proc chaosproxy "$TMP/p2.log" "$PROXY" -target "http://$W2_ADDR" \
	-chaos-seed 12 -chaos-truncate-p 0.10 -chaos-corrupt-p 0.10 -chaos-latency-p 0.10
P2_BASE=$PROC_BASE

start_proc positserve "$TMP/coord.log" "$SERVE" -workers "$P1_BASE,$P2_BASE" \
	-addr 127.0.0.1:0 -data-dir "$TMP/coord" -campaign-workers 3 -heartbeat 500ms
COORD_BASE=$PROC_BASE

# Front proxy: connection-level hostility only (latency, resets,
# synthetic 5xx) — the client retry paths must absorb all of it.
start_proc chaosproxy "$TMP/front.log" "$PROXY" -target "$COORD_BASE" \
	-chaos-seed 13 -chaos-latency-p 0.20 -chaos-reset-p 0.02 -chaos-5xx-p 0.05
FRONT_BASE=$PROC_BASE
FRONT_PID=$PROC_PID

echo "--- soak: positload through the front proxy, worker kill + re-register mid-run"
mkdir -p "$TMP/chaos-out"
"$LOAD" -target "$FRONT_BASE" -duration 25s -qps 30 -inject-workers 4 \
	-campaign-field "$FIELD" -campaign-format "$FORMAT" -campaign-n "$N" -campaign-trials "$TRIALS" \
	-retry-attempts 5 -retry-base 50ms -max-error-rate 0.05 \
	-campaign-out "$TMP/chaos-out" -out "$TMP/load.json" >"$TMP/load.log" 2>&1 &
LOAD_PID=$!
PIDS="$PIDS $LOAD_PID"

sleep 8
echo "--- SIGKILL worker 1, restart on the same address, re-register via its proxy URL"
kill -9 "$W1_PID"
sleep 2
start_proc positserve "$TMP/w1b.log" "$SERVE" -addr "$W1_ADDR" -data-dir "$TMP/w1" \
	-register "$COORD_BASE" -advertise "$P1_BASE"
grep -q "registered with coordinator" "$TMP/w1b.log" || {
	for _ in $(seq 1 50); do
		grep -q "registered with coordinator" "$TMP/w1b.log" && break
		sleep 0.1
	done
}
grep -q "registered with coordinator" "$TMP/w1b.log" || {
	echo "restarted worker never re-registered:"
	cat "$TMP/w1b.log"
	exit 1
}
echo "worker 1 re-registered"

if ! wait "$LOAD_PID"; then
	echo "positload failed or violated its error budget:"
	cat "$TMP/load.log"
	exit 1
fi
cat "$TMP/load.log"

echo "--- artifact must carry the positres-load/v1 schema and an empty violation list"
grep -q '"schema": "positres-load/v1"' "$TMP/load.json" || {
	echo "artifact missing schema tag"
	cat "$TMP/load.json"
	exit 1
}
if grep -q '"violations"' "$TMP/load.json"; then
	echo "artifact records budget violations:"
	cat "$TMP/load.json"
	exit 1
fi
grep -q '"completed": 0' "$TMP/load.json" && {
	echo "no campaign completed during the soak:"
	cat "$TMP/load.json"
	exit 1
}
echo "artifact OK"

echo "--- soak CSV must be byte-identical to the serial baseline"
[ -s "$TMP/chaos-out/$CSV_NAME" ] || {
	echo "soak published no campaign CSV"
	ls -l "$TMP/chaos-out" || true
	exit 1
}
cmp "$TMP/baseline/$CSV_NAME" "$TMP/chaos-out/$CSV_NAME"
echo "identical: $CSV_NAME"

echo "--- coordinator /metrics must show shard blocks on the wire, no fallbacks"
coord_metrics=$($CURL "$COORD_BASE/metrics")
echo "$coord_metrics" | grep -q '"wire_frames": [1-9]' || {
	echo "no shard blocks recorded on the wire during the soak"
	echo "$coord_metrics"
	exit 1
}
echo "$coord_metrics" | grep -q '"wire_bytes": [1-9]' || {
	echo "wire_bytes is zero despite shard blocks"
	echo "$coord_metrics"
	exit 1
}
echo "$coord_metrics" | grep -q '"wire_csv_fallbacks": 0' || {
	echo "wire_csv_fallbacks is nonzero; it must always read 0"
	echo "$coord_metrics"
	exit 1
}
echo "wire counters OK"

echo "--- the front proxy must actually have injected faults"
kill -TERM "$FRONT_PID"
for _ in $(seq 1 50); do
	grep -q "drained, exiting" "$TMP/front.log" && break
	sleep 0.1
done
grep -Eq '"(latencies|resets|synthetic_5xx)": [1-9]' "$TMP/front.log" || {
	echo "front proxy injected no faults — the soak ran without chaos:"
	cat "$TMP/front.log"
	exit 1
}
echo "chaos confirmed"

echo "load e2e: OK"
