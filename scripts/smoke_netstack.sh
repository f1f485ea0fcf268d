#!/usr/bin/env sh
# End-to-end netstack smoke test: boots a real SMOKE_N-node cluster from
# the release `btnode` binary (SMOKE_N OS processes talking TCP on
# loopback — not the in-process test harness), waits for every node to
# decide, and feeds node 0's JSONL trace through the release `btreport`
# binary.
#
# Exercises the full shipped surface: CLI parsing, listener binding,
# cross-process dial/handshake/ack flow, decision detection, trace
# writing, report rendering — and the admin telemetry endpoints, scraped
# mid-run with `btstat --once` (no curl needed). Since the event-driven
# rewrite it also guards the thread budget: each node runs its sockets on
# ONE poll-loop thread, so a node's OS thread count must stay constant in
# cluster size (the old thread-per-connection stack needed ~2+2(n-1)).
# Skips (exit 0, with a note) where the sandbox forbids binding loopback
# sockets.
#
# Usage: scripts/smoke_netstack.sh
#   SMOKE_N=50 scripts/smoke_netstack.sh   # nightly-sized cluster
set -eu

cd "$(dirname "$0")/.."

# Cluster size: default 4 keeps the gate fast; nightly runs set 50 to
# prove a full-size cluster decides with O(n) threads in total.
SMOKE_N=${SMOKE_N:-4}
if [ "$SMOKE_N" -lt 4 ]; then
    echo "SMOKE_N must be at least 4 (malicious protocol, k=1)" >&2
    exit 2
fi
# Ceiling on threads per btnode process, independent of SMOKE_N: main +
# poll loop + admin server + slack for the runtime. The pre-rewrite stack
# needed 2+2(n-1) socket threads alone, so it fails this even at n=4.
MAX_THREADS_PER_NODE=8

BTNODE=target/release/btnode
BTREPORT=target/release/btreport
BTSTAT=target/release/btstat
if [ ! -x "$BTNODE" ] || [ ! -x "$BTREPORT" ] || [ ! -x "$BTSTAT" ]; then
    echo "==> building release binaries for the smoke run"
    cargo build --release -q --workspace
fi

TMP=$(mktemp -d)
PIDS=""
cleanup() {
    for pid in $PIDS; do
        kill "$pid" 2>/dev/null || true
    done
    rm -rf "$TMP"
}
trap cleanup EXIT INT TERM

# Derive a port block from the PID so parallel runs rarely collide; a
# bind failure is reported by btnode and treated as a skip below.
# Every port stays below 32768, under the kernel's ephemeral range
# (Linux's default ip_local_port_range is 32768-60999): the outbound
# dials of the fuzz legs that run before this script leave thousands of
# TIME_WAIT sockets on ephemeral ports, and those block a listener's bind
# there, which read as a skip.
BASE=$((20000 + $$ % 10000))
PEERS=""
i=0
while [ "$i" -lt "$SMOKE_N" ]; do
    PEERS="$PEERS --peer 127.0.0.1:$((BASE + i))"
    i=$((i + 1))
done

# Admin (telemetry) ports sit just above the protocol block.
ADMIN0=$((BASE + SMOKE_N))
ADMIN1=$((BASE + SMOKE_N + 1))

boot_node() {
    i=$1
    shift
    # shellcheck disable=SC2086 # PEERS and extra flags word-split on purpose
    "$BTNODE" --id "$i" --n "$SMOKE_N" --k 1 --proto malicious --input 1 \
        --listen "127.0.0.1:$((BASE + i))" $PEERS \
        --seed 42 --timeout 60 "$@" \
        >"$TMP/node$i.log" 2>&1 &
    PIDS="$PIDS $!"
}

# Stage the boot: with two nodes held back the protocol cannot decide
# (it needs n-k = SMOKE_N-1 participants), so the cluster is guaranteed
# to still be running when btstat scrapes it — a genuine mid-run scrape,
# not a race against the decision.
LAST=$((SMOKE_N - 1))
PENULT=$((SMOKE_N - 2))
echo "==> booting nodes 0-$((PENULT - 1)) (malicious protocol, n=$SMOKE_N k=1, ports $BASE-$((BASE + LAST)))"
boot_node 0 --jsonl "$TMP/node0.jsonl" --admin "$ADMIN0"
boot_node 1 --admin "$ADMIN1"
i=2
while [ "$i" -lt "$PENULT" ]; do
    boot_node "$i"
    i=$((i + 1))
done
sleep 1

if grep -q "cannot bind" "$TMP"/node*.log 2>/dev/null; then
    echo "==> skipping: sandbox forbids binding loopback sockets"
    exit 0
fi

echo "==> scraping the live admin endpoints with btstat --once"
if ! "$BTSTAT" --once \
    --node "127.0.0.1:$ADMIN0" --node "127.0.0.1:$ADMIN1" \
    --expect bt_frames_sent_total,bt_msgs_sent_total,bt_msgs_delivered_total,bt_send_queue_depth,bt_ack_rtt_us,bt_msg_encode_us,bt_msg_decode_us,bt_loop_ticks_total,bt_poll_wakeups_total \
    >"$TMP/btstat.log" 2>&1; then
    echo "==> FAIL: btstat scrape failed or expected metric families missing" >&2
    cat "$TMP/btstat.log" >&2
    exit 1
fi
cat "$TMP/btstat.log"

# The O(n)-threads guard: with every connection multiplexed onto one
# poll loop, a node's thread count must not scale with cluster size.
# Sampled mid-run, while each booted node holds live connections to all
# its booted peers. /proc is Linux-only; elsewhere the guard is skipped.
TOTAL_THREADS=0
GUARDED=0
for pid in $PIDS; do
    if [ -r "/proc/$pid/status" ]; then
        threads=$(awk '/^Threads:/ {print $2}' "/proc/$pid/status")
        TOTAL_THREADS=$((TOTAL_THREADS + threads))
        GUARDED=$((GUARDED + 1))
        if [ "$threads" -gt "$MAX_THREADS_PER_NODE" ]; then
            echo "==> FAIL: a node runs $threads threads (cap $MAX_THREADS_PER_NODE); the netstack is no longer O(n) in total threads" >&2
            exit 1
        fi
    fi
done
if [ "$GUARDED" -gt 0 ]; then
    echo "==> thread guard: $TOTAL_THREADS threads across $GUARDED nodes (cap $MAX_THREADS_PER_NODE/node)"
fi

echo "==> booting nodes $PENULT-$LAST; the cluster can now decide"
boot_node "$PENULT"
boot_node "$LAST"

FAILED=0
for pid in $PIDS; do
    wait "$pid" || FAILED=1
done
PIDS=""

if grep -q "cannot bind" "$TMP"/node*.log; then
    echo "==> skipping: sandbox forbids binding loopback sockets"
    exit 0
fi

if [ "$FAILED" != 0 ]; then
    echo "==> FAIL: a node exited non-zero; logs follow" >&2
    cat "$TMP"/node*.log >&2
    exit 1
fi

i=0
while [ "$i" -lt "$SMOKE_N" ]; do
    if ! grep -q "decided" "$TMP/node$i.log"; then
        echo "==> FAIL: node $i never decided; log follows" >&2
        cat "$TMP/node$i.log" >&2
        exit 1
    fi
    i=$((i + 1))
done

echo "==> all $SMOKE_N nodes decided; rendering node 0's trace with btreport"
if ! "$BTREPORT" "$TMP/node0.jsonl" | grep -q "decided"; then
    echo "==> FAIL: btreport output does not mention a decision" >&2
    "$BTREPORT" "$TMP/node0.jsonl" >&2 || true
    exit 1
fi

echo "==> netstack smoke test passed (n=$SMOKE_N)"
