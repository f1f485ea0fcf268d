#!/usr/bin/env sh
# The full local gate: formatting, lints, and the test suite.
# Usage: scripts/check.sh
set -eu

cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (-D warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> sans-IO gate: netstack core.rs names no socket, poller, thread or clock read"
# Comments and the test module excluded: the seam must not silently close.
if sed -e '/#\[cfg(test)\]/,$d' -e 's|//.*||' crates/netstack/src/core.rs | grep -nE 'std::net|std::os|crate::poll|TcpStream|Instant::now|thread::'; then echo "core.rs must stay sans-IO"; exit 1; fi

echo "==> cargo test"
cargo test --workspace -q

echo "==> cargo build --release"
cargo build --release --workspace

FUZZTMP=$(mktemp -d)
trap 'rm -rf "$FUZZTMP"' EXIT INT TERM

echo "==> metrics overhead bench (fast config, 5% budget)"
# The committed BENCH_metrics.json documents the measured overhead
# (~0.5%); this fast re-run refuses the gate if instrumentation cost
# regresses past the acceptance budget. Output goes to the temp dir so
# the committed baseline is only refreshed deliberately.
target/release/metrics_overhead "$FUZZTMP/BENCH_metrics.json" \
    --frames 300000 --rounds 3 --max-overhead 5

echo "==> large-n smoke (n=1024 malicious slice, budgeted)"
# One seeded Figure 2 trial at n=1024 with a 1M-delivery cap: must stay
# safe and finish inside the wall budget — the delivery-engine perf gate.
# ~2 s with each send stored once in the shared send log; 10-17 s when
# every destination held its own copy, which must fail here.
target/release/large_n_smoke 1000000 8

echo "==> phases sweep smoke (--quick) + BENCH_phases.json schema check"
# A shrunken sweep exercises the full harness path; the schema check then
# runs against both the fresh output and the committed artifact.
target/release/phases --quick "$FUZZTMP/BENCH_phases_quick.json"
if ! command -v jq > /dev/null 2>&1; then
    echo "    (jq not installed; schema check skipped)"
fi
for f in "$FUZZTMP/BENCH_phases_quick.json" BENCH_phases.json; do
    command -v jq > /dev/null 2>&1 || break
    jq -e '
        (.e3_simple_phases | length) >= 2
        and (.e4_malicious_phases | length) >= 2
        and (.e8_decision_lag | length) >= 2
        and (.large_n_sweep.malicious | length) >= 1
        and (.large_n_sweep.simple | length) >= 1
        and ([.large_n_sweep.malicious[], .large_n_sweep.simple[]
              | has("n") and has("k") and has("l") and has("wall_ms")
              and has("ns_per_delivery") and has("phases")
              and has("eq13_bound") and .disagreements == 0] | all)
    ' "$f" > /dev/null || { echo "schema check failed: $f"; exit 1; }
done

echo "==> btfuzz self-test (injected defect: find, shrink, replay)"
target/release/btfuzz --inject --out "$FUZZTMP/inject-repro.jsonl"

echo "==> btfuzz clean sweep (30s budget)"
# The netstack cross-checks inside skip themselves where the sandbox
# forbids loopback sockets; the simulated sweep always runs.
target/release/btfuzz --budget 30 --out "$FUZZTMP/repro.jsonl"

echo "==> btfuzz netstack stress leg (30s budget, clusters up to n=50)"
# Loopback clusters up the size ladder under healing partitions and
# seeded crash-restarts — the event-loop scale gate. Skips internally
# (with a note) where the sandbox forbids loopback sockets.
target/release/btfuzz --netstack-stress --budget 30 \
    --out "$FUZZTMP/stress-repro.json"

echo "==> btfuzz storage-fault leg (15s budget, corrupt-WAL recovery)"
# Seeded byte flips armed in a crashed node's WAL: every case must
# detect the corruption, boot amnesiac, and recover by quorum state
# transfer with zero equivocations. Skips internally (with a note) where
# the sandbox forbids loopback sockets.
target/release/btfuzz --storage --budget 15 \
    --out "$FUZZTMP/storage-repro.json"

echo "==> netstack smoke test (release btnode cluster, end to end)"
# Skips internally (with a note) where the sandbox forbids sockets.
sh scripts/smoke_netstack.sh

echo "==> crash-recovery smoke test (SIGKILL workers, restart from WAL; corrupt-WAL leg)"
# Skips internally where the sandbox forbids sockets or lacks pgrep/dd.
sh scripts/smoke_recovery.sh

echo "==> replicated-log smoke test (btnode rsm cluster, btload, btstat)"
# Skips internally (with a note) where the sandbox forbids sockets.
sh scripts/smoke_rsm.sh

echo "==> btbench (own workspace): unit tests + --quick smoke of every workload"
# The root `cargo test` does not build btbench, yet it compiles against
# RsmCluster/RsmClusterOptions/sockets_available and opens
# <wal_dir>/rsm0.wal by name: an API or file-name break must show here,
# not in the benchmark pipeline.
cargo test --release --manifest-path btbench/Cargo.toml
cargo run --release --quiet --manifest-path btbench/Cargo.toml -- run --quick \
    > "$FUZZTMP/btbench-quick.txt" || { cat "$FUZZTMP/btbench-quick.txt"; exit 1; }
cat "$FUZZTMP/btbench-quick.txt"

echo "==> per-tick coalescing gate: loopback-put sends <= 400 frames per op"
# One frame per peer per tick reads ~60 here; one frame per message read
# ~1950. A count, not a time, so it is steady: a silent return to
# per-message frames must fail this gate, not the benchmark pipeline.
awk '/^== /{block=$2}
     block=="loopback-put" && $1=="netstack.frames_per_op"{seen=1; if ($2+0 > 400) over=1}
     END{exit !(seen && !over)}' "$FUZZTMP/btbench-quick.txt" \
    || { echo "netstack.frames_per_op on loopback-put is missing or above 400"; exit 1; }

echo "==> schedule identity gate: sim-byz-n32 runs the schedule it always ran"
# Exact counts of the first counted trial at the default seed (1983), the
# same on any machine; read at the commit before the shared send log and
# unchanged by it. A change to how simnet stores, orders or indexes
# pending messages moves them: it must fail this gate, not the benchmark
# pipeline.
cargo run --release --quiet --manifest-path btbench/Cargo.toml -- run --quick \
    --trace 1 --workload sim-byz-n32 --seconds 2 \
    > "$FUZZTMP/btbench-n32.txt" || { cat "$FUZZTMP/btbench-n32.txt"; exit 1; }
awk '$1=="simnet.steps_total"{steps=($2+0 == 58351)}
     $1=="simnet.msgs_sent_total"{msgs=($2+0 == 73760)}
     END{exit !(steps && msgs)}' "$FUZZTMP/btbench-n32.txt" \
    || { grep -E '^  simnet\.(steps|msgs_sent)_total' "$FUZZTMP/btbench-n32.txt";
         echo "sim-byz-n32 no longer takes 58351 steps / sends 73760 messages at seed 1983"; exit 1; }

echo "==> all checks passed"
