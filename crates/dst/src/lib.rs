//! Deterministic simulation testing for the Bracha–Toueg protocols.
//!
//! This crate closes the loop between the two runtimes the workspace
//! already has — the deterministic `simnet` simulator and the
//! event-driven `netstack` socket runtime — with a seeded fuzzer that
//! hunts for protocol-level counterexamples and reduces them to minimal,
//! replayable artifacts:
//!
//! - [`scenario`] — the fuzz case: protocol, `(n, k)`, inputs, faults,
//!   schedule adversary, seed, optional planted defect; generated under
//!   the paper's resilience bounds so violations indict the code;
//! - [`exec`] — runs one scenario through the simulator (byte-identical
//!   traces) or over loopback TCP (same fault pattern, wall-clock time,
//!   optionally a seeded crash-restart or corrupt-WAL restart);
//! - [`invariants`] — the property suite: agreement, validity,
//!   convergence, and the Fig. 1/Fig. 2 decision thresholds read back out
//!   of the trace;
//! - [`multislot`] — the replicated-log leg: seeded multi-decree (`rsm`)
//!   scenarios under the same schedule adversaries, held to per-slot
//!   agreement, gap-freedom, batch provenance, and exactly-once
//!   invariants;
//! - [`stress`] — the budgeted loopback sweep and its scale leg: 50-node
//!   clusters under healing partitions and crash-restarts, affordable
//!   only because netstack runs each node on a single thread;
//! - [`storage`] — the sweep's amnesia leg: seeded byte flips armed in a
//!   crashed node's WAL, held to corruption detection, quorum state
//!   transfer, zero equivocations, and the decision properties;
//! - [`shrink`] — greedy delta-debugging to a minimal scenario preserving
//!   the violation classes;
//! - [`artifact`] — one-file repro: scenario header plus JSONL trace,
//!   re-runnable and byte-verified by `btfuzz --replay`;
//! - [`fuzz`] — the loop tying it together, including the every-Nth
//!   cross-runtime conformance check.
//!
//! The companion binary `btfuzz` drives the loop from the command line
//! (`btfuzz --budget 30` is wired into `scripts/check.sh`); its
//! `--inject` mode plants a broken quorum rule by lowering Figure 1's bars
//! with [`bt_core::Config::ablate`] and demands the harness catch it — the
//! fuzzer testing itself.

pub mod artifact;
pub mod exec;
pub mod fuzz;
pub mod invariants;
pub mod multislot;
pub mod scenario;
pub mod shrink;
pub mod storage;
pub mod stress;

pub use artifact::{parse as parse_artifact, render as render_artifact, verify_replay, Repro};
pub use exec::{
    netstack_fault_plan, run_netstack, run_sim, run_sim_scheduled, NetMode, NetOutcome, SimOutcome,
};
pub use fuzz::{fuzz, Finding, FindingKind, FuzzConfig, FuzzOutcome};
pub use invariants::{check, check_equivocations, check_storage, classes, Violation};
pub use multislot::{
    check_multislot, fuzz_multislot, run_multislot, MultiSlotOutcome, MultiSlotScenario,
    MultiSlotSweep, MultiSlotViolation,
};
pub use scenario::{FaultSpec, Injection, OrderSpec, ProtoKind, Scenario, SchedSpec};
pub use shrink::{shrink, Shrunk, DEFAULT_SHRINK_RUNS};
pub use storage::{storage_scenario, STORAGE, STORAGE_SIZES};
pub use stress::{stress_scenario, sweep_netstack, NetLeg, SweepOutcome, STRESS, STRESS_LADDER};
