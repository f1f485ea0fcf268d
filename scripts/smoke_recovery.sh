#!/usr/bin/env sh
# End-to-end crash-recovery smoke test: boots a 5-node release cluster
# under `btnode --supervise` (each node a supervisor parent plus a worker
# child holding the socket), SIGKILLs two workers mid-run, and requires
# the supervisors to restart them from their write-ahead logs — same
# ports, no equivocation — with every node still reaching the same
# decision.
#
# This is the shipped crash story exercised for real: a `kill -9` is not
# a polite shutdown hook; whatever the worker was doing, the WAL plus
# log-before-send must be enough to bring it back as the same process.
# Skips (exit 0, with a note) where the sandbox forbids loopback sockets
# or lacks pgrep.
#
# Usage: scripts/smoke_recovery.sh
set -eu

cd "$(dirname "$0")/.."

BTNODE=target/release/btnode
if [ ! -x "$BTNODE" ]; then
    echo "==> building release binaries for the smoke run"
    cargo build --release -q --workspace
fi

if ! command -v pgrep >/dev/null 2>&1; then
    echo "==> skipping: pgrep unavailable (needed to find worker pids)"
    exit 0
fi

TMP=$(mktemp -d)
PIDS=""
cleanup() {
    for pid in $PIDS; do
        # The supervisors' workers die with their parents' process group.
        kill "$pid" 2>/dev/null || true
    done
    rm -rf "$TMP"
}
trap cleanup EXIT INT TERM

mkdir -p "$TMP/wal"

# Derive a port block from the PID so parallel runs rarely collide; a
# bind failure is reported by btnode and treated as a skip below.
# Every port stays below 32768, under the kernel's ephemeral range
# (Linux's default ip_local_port_range is 32768-60999): the outbound
# dials of the fuzz legs that run before this script leave thousands of
# TIME_WAIT sockets on ephemeral ports, and those block a listener's bind
# there, which read as a skip.
# Layout: BASE..BASE+4 the first leg, BASE+5..BASE+9 the corruption leg.
BASE=$((20000 + $$ % 10000))
PEERS="--peer 127.0.0.1:$BASE --peer 127.0.0.1:$((BASE + 1)) \
--peer 127.0.0.1:$((BASE + 2)) --peer 127.0.0.1:$((BASE + 3)) \
--peer 127.0.0.1:$((BASE + 4))"

echo "==> booting 5 supervised btnode processes (fail-stop, n=5 k=2, ports $BASE-$((BASE + 4)))"
for i in 0 1 2 3 4; do
    # shellcheck disable=SC2086 # PEERS is intentionally word-split
    "$BTNODE" --id "$i" --n 5 --k 2 --proto failstop --input 1 \
        --listen "127.0.0.1:$((BASE + i))" $PEERS \
        --seed 7 --timeout 30 \
        --wal "$TMP/wal/node$i.wal" --snapshot-every 8 --supervise \
        >"$TMP/node$i.log" 2>&1 &
    eval "SUP$i=$!"
    PIDS="$PIDS $!"
done

# Let the cluster boot and start (possibly finish) consensus; the workers
# stay alive through their post-decision grace window, so the kills below
# always land on a live worker.
sleep 0.15

echo "==> SIGKILLing the workers of nodes 3 and 4 (supervisors stay up)"
KILLED=0
for i in 3 4; do
    sup=$(eval echo "\$SUP$i")
    workers=$(pgrep -P "$sup" || true)
    if [ -n "$workers" ]; then
        # shellcheck disable=SC2086 # pid list is intentionally word-split
        kill -9 $workers 2>/dev/null && KILLED=$((KILLED + 1))
    fi
done

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

for i in 0 1 2 3 4; do
    if ! grep -q "decided" "$TMP/node$i.log"; then
        echo "==> FAIL: node $i never decided; log follows" >&2
        cat "$TMP/node$i.log" >&2
        exit 1
    fi
done

if [ "$KILLED" = 0 ]; then
    echo "==> FAIL: no worker was killed — the recovery path went unexercised" >&2
    exit 1
fi
RESTARTS=$(grep -c "restarting from WAL" "$TMP"/node3.log "$TMP"/node4.log | \
    awk -F: '{ s += $2 } END { print s }')
if [ "$RESTARTS" = 0 ]; then
    echo "==> FAIL: workers were killed but no supervisor restarted one; logs follow" >&2
    cat "$TMP"/node3.log "$TMP"/node4.log >&2
    exit 1
fi

# Agreement across the crash: every node decided the same value.
VALUES=$(sed -n 's/.*decided \([A-Za-z0-9]\{1,\}\).*/\1/p' "$TMP"/node*.log | sort -u)
if [ -z "$VALUES" ] || [ "$(echo "$VALUES" | wc -l)" != 1 ]; then
    echo "==> FAIL: nodes disagree across the restart: $VALUES" >&2
    cat "$TMP"/node*.log >&2
    exit 1
fi

echo "==> recovery smoke test passed ($KILLED worker(s) SIGKILLed, $RESTARTS restart(s), unanimous '$VALUES')"

# ---- corruption leg: flip a WAL byte, SIGKILL, demand amnesia + quorum
# state transfer -------------------------------------------------------
#
# A second cluster exercises the *storage* failure story: node 3's WAL
# gets one mid-log byte overwritten (offset 8 is the first record's body
# tag, so the frame stays intact but its CRC breaks), then its worker is
# SIGKILLed. The supervisor restarts it with --expect-wal; the reopened
# log must be detected as unsafely damaged — never replayed — and the
# node must boot amnesiac, fetch matching state from k+1 peers, and
# rejoin as a learner, with the whole cluster still unanimous and
# equivocation-free.
if ! command -v dd >/dev/null 2>&1; then
    echo "==> skipping corruption leg: dd unavailable"
    exit 0
fi

mkdir -p "$TMP/wal2"
BASE2=$((BASE + 5))
PEERS2="--peer 127.0.0.1:$BASE2 --peer 127.0.0.1:$((BASE2 + 1)) \
--peer 127.0.0.1:$((BASE2 + 2)) --peer 127.0.0.1:$((BASE2 + 3)) \
--peer 127.0.0.1:$((BASE2 + 4))"

echo "==> corruption leg: booting 5 supervised btnode processes (ports $BASE2-$((BASE2 + 4)))"
for i in 0 1 2 3 4; do
    # No snapshots: compaction must not rewrite the file out from under
    # the byte flip below.
    # shellcheck disable=SC2086 # PEERS2 is intentionally word-split
    "$BTNODE" --id "$i" --n 5 --k 2 --proto failstop --input 1 \
        --listen "127.0.0.1:$((BASE2 + i))" $PEERS2 \
        --seed 11 --timeout 30 \
        --wal "$TMP/wal2/node$i.wal" --snapshot-every 0 --supervise \
        >"$TMP/c-node$i.log" 2>&1 &
    eval "CSUP$i=$!"
    PIDS="$PIDS $!"
done

sleep 0.15

# Flip before killing: the live worker only ever appends, so the damage
# sits unnoticed until the restarted incarnation reopens the log — no
# race against the supervisor's restart backoff.
echo "==> overwriting one mid-log byte in node 3's WAL, then SIGKILLing its worker"
printf '\245' | dd of="$TMP/wal2/node3.wal" bs=1 seek=8 count=1 conv=notrunc 2>/dev/null
KILLED=0
workers=$(pgrep -P "$CSUP3" || true)
if [ -n "$workers" ]; then
    # shellcheck disable=SC2086 # pid list is intentionally word-split
    kill -9 $workers 2>/dev/null && KILLED=1
fi

FAILED=0
for pid in $PIDS; do
    wait "$pid" || FAILED=1
done
PIDS=""

if grep -q "cannot bind" "$TMP"/c-node*.log; then
    echo "==> skipping corruption leg: sandbox forbids binding loopback sockets"
    exit 0
fi
if [ "$KILLED" = 0 ]; then
    echo "==> FAIL: node 3's worker was not killed — the corruption path went unexercised" >&2
    exit 1
fi
if [ "$FAILED" != 0 ]; then
    echo "==> FAIL: a corruption-leg node exited non-zero; logs follow" >&2
    cat "$TMP"/c-node*.log >&2
    exit 1
fi

if ! grep -q "booted amnesiac" "$TMP/c-node3.log"; then
    echo "==> FAIL: node 3 reopened a corrupt WAL without going amnesiac; log follows" >&2
    cat "$TMP/c-node3.log" >&2
    exit 1
fi
if ! grep -q "completed quorum state transfer" "$TMP/c-node3.log"; then
    echo "==> FAIL: node 3 went amnesiac but never completed a state transfer; log follows" >&2
    cat "$TMP/c-node3.log" >&2
    exit 1
fi
CORRUPTIONS=$(sed -n 's/.*wal_corruptions=\([0-9]\{1,\}\).*/\1/p' "$TMP/c-node3.log" | tail -1)
if [ -z "$CORRUPTIONS" ] || [ "$CORRUPTIONS" = 0 ]; then
    echo "==> FAIL: node 3's summary shows no WAL corruption detected; log follows" >&2
    cat "$TMP/c-node3.log" >&2
    exit 1
fi
if ! grep -q "state_transferred=true" "$TMP/c-node3.log"; then
    echo "==> FAIL: node 3's summary shows no completed state transfer; log follows" >&2
    cat "$TMP/c-node3.log" >&2
    exit 1
fi

# The amnesiac muzzle's whole point: no node saw a conflicting re-send.
if sed -n 's/.*equivocations=\([0-9]\{1,\}\).*/\1/p' "$TMP"/c-node*.log | grep -qv '^0$'; then
    echo "==> FAIL: equivocation observed across the corrupt-WAL restart; logs follow" >&2
    cat "$TMP"/c-node*.log >&2
    exit 1
fi

for i in 0 1 2 3 4; do
    if ! grep -q "decided" "$TMP/c-node$i.log"; then
        echo "==> FAIL: corruption-leg node $i never decided; log follows" >&2
        cat "$TMP/c-node$i.log" >&2
        exit 1
    fi
done
VALUES=$(sed -n 's/.*decided \([A-Za-z0-9]\{1,\}\).*/\1/p' "$TMP"/c-node*.log | sort -u)
if [ -z "$VALUES" ] || [ "$(echo "$VALUES" | wc -l)" != 1 ]; then
    echo "==> FAIL: nodes disagree across the corrupt-WAL restart: $VALUES" >&2
    cat "$TMP"/c-node*.log >&2
    exit 1
fi

echo "==> corruption leg passed (WAL flip detected $CORRUPTIONS time(s), quorum transfer completed, unanimous '$VALUES')"
