#!/usr/bin/env sh
# End-to-end replicated-log smoke test: boots a real 4-node `btnode
# --proto rsm` cluster (4 OS processes talking TCP on loopback, WALs on
# disk), drives committed client load through the length-prefixed client
# API with the release `btload` binary, and scrapes the live rsm metric
# families — slots, commit latency, batching, pipeline depth — off the
# admin endpoint with `btstat --once`.
#
# Exercises the full shipped surface: CLI parsing, replica boot, the
# client service (admission, exactly-once retries), multi-decree
# commitment, cross-node log convergence (btload polls Info until every
# node reports the same applied length and digest), and the telemetry
# columns. Skips (exit 0, with a note) where the sandbox forbids binding
# loopback sockets.
#
# Usage: scripts/smoke_rsm.sh
set -eu

cd "$(dirname "$0")/.."

BTNODE=target/release/btnode
BTLOAD=target/release/btload
BTSTAT=target/release/btstat
if [ ! -x "$BTNODE" ] || [ ! -x "$BTLOAD" ] || [ ! -x "$BTSTAT" ]; then
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
# Layout: BASE..BASE+3 protocol, BASE+4..BASE+7 client API, BASE+8 admin.
BASE=$((20000 + $$ % 10000))
PEERS="--peer 127.0.0.1:$BASE --peer 127.0.0.1:$((BASE + 1)) \
--peer 127.0.0.1:$((BASE + 2)) --peer 127.0.0.1:$((BASE + 3))"
ADMIN=$((BASE + 8))

echo "==> booting 4 rsm replicas (n=4 k=1, ports $BASE-$((BASE + 8)))"
for i in 0 1 2 3; do
    ADMIN_FLAG=""
    [ "$i" = 0 ] && ADMIN_FLAG="--admin $ADMIN"
    # shellcheck disable=SC2086 # PEERS and ADMIN_FLAG word-split on purpose
    "$BTNODE" --id "$i" --n 4 --k 1 --proto rsm \
        --listen "127.0.0.1:$((BASE + i))" $PEERS \
        --client "$((BASE + 4 + i))" --seed 42 --timeout 0 \
        --wal "$TMP/rsm$i.wal" $ADMIN_FLAG \
        >"$TMP/node$i.log" 2>&1 &
    PIDS="$PIDS $!"
    [ "$i" = 1 ] && NODE1=$!
done

# Wait (10 s at most) until every replica logs that it serves clients,
# which btnode does once the node is spawned; a replica that cannot bind
# logs that instead, and the branch below skips.
tries=0
while [ "$tries" -lt 100 ]; do
    ready=$(grep -l "serving clients on" "$TMP"/node*.log 2>/dev/null | wc -l)
    [ "$ready" -eq 4 ] && break
    grep -q "cannot bind" "$TMP"/node*.log 2>/dev/null && break
    sleep 0.1
    tries=$((tries + 1))
done

if grep -q "cannot bind" "$TMP"/node*.log 2>/dev/null; then
    echo "==> skipping: sandbox forbids binding loopback sockets"
    exit 0
fi
if [ "$ready" -ne 4 ]; then
    echo "==> FAIL: $ready of 4 replicas serving clients after 10 s; logs follow" >&2
    cat "$TMP"/node*.log >&2
    exit 1
fi

TARGETS="127.0.0.1:$((BASE + 4)),127.0.0.1:$((BASE + 5)),\
127.0.0.1:$((BASE + 6)),127.0.0.1:$((BASE + 7))"
echo "==> driving 120 committed ops through the client API with btload"
# btload exits non-zero if an op does not commit within its deadline or
# the replicas' applied logs do not converge to one digest.
if ! "$BTLOAD" --targets "$TARGETS" --clients 8 --ops 120 \
    >"$TMP/btload.log" 2>&1; then
    echo "==> FAIL: btload run failed; logs follow" >&2
    cat "$TMP/btload.log" "$TMP"/node*.log >&2
    exit 1
fi
cat "$TMP/btload.log"

echo "==> node 1 (no --admin) runs 2 threads: main and its event loop"
# The event loop serves the client port: a thread per client, or a
# service runtime beside the loop, must fail here.
if [ -d "/proc/$NODE1/task" ]; then
    THREADS=$(ls "/proc/$NODE1/task" | wc -l)
    if [ "$THREADS" -ne 2 ]; then
        echo "==> FAIL: node 1 runs $THREADS threads, not 2" >&2
        exit 1
    fi
else
    echo "    (no /proc: thread count skipped)"
fi

echo "==> scraping the live rsm metric families with btstat --once"
if ! "$BTSTAT" --once --node "127.0.0.1:$ADMIN" \
    --expect rsm_slots_committed_total,rsm_commands_applied_total,rsm_batch_commands,rsm_commit_latency_us,rsm_pipeline_open,rsm_client_op_us \
    >"$TMP/btstat.log" 2>&1; then
    echo "==> FAIL: btstat scrape failed or expected metric families missing" >&2
    cat "$TMP/btstat.log" >&2
    exit 1
fi
cat "$TMP/btstat.log"

echo "==> rsm smoke test passed"
