//! Deterministic multi-decree properties under the simulator: gap-free
//! ordering, batch atomicity, exactly-once application, and cross-replica
//! log identity, with no real network or clock anywhere.

use obs::metrics::Registry;
use rsm::{AppliedState, Command, LogView, Op, Replica, RsmMsg, RsmOptions};
use simnet::{Ctx, Envelope, ProcessId, Role, Sim, StopWhen, Value};

fn put(client: u64, request: u64, key: &[u8], value: &[u8]) -> Command {
    Command {
        client,
        request,
        op: Op::Put {
            key: key.to_vec(),
            value: value.to_vec(),
        },
    }
}

/// Runs `n` replicas to quiescence with `preload[i]` seeded into replica
/// `i`, returning each replica's applied view.
fn run_cluster(
    n: usize,
    seed: u64,
    opts: RsmOptions,
    preload: Vec<Vec<Command>>,
) -> Vec<AppliedState> {
    assert_eq!(preload.len(), n);
    let k = (n - 1) / 3;
    let config = bt_core::Config::malicious(n, k).expect("valid malicious config");
    let views: Vec<LogView> = (0..n).map(|_| LogView::new()).collect();
    let mut builder = Sim::builder();
    for (i, cmds) in preload.into_iter().enumerate() {
        let replica = Replica::new(config, ProcessId::new(i), opts)
            .with_view(views[i].clone())
            .with_preload(cmds);
        builder.process(Box::new(replica), Role::Correct);
    }
    let report = builder
        .seed(seed)
        .stop_when(StopWhen::Never)
        .step_limit(2_000_000)
        .build()
        .run();
    assert!(
        report.steps < 2_000_000,
        "cluster did not go quiescent within the step limit"
    );
    views.iter().map(LogView::snapshot).collect()
}

/// Every applied log is gap-free and identical across replicas.
fn assert_identical(states: &[AppliedState]) {
    for s in states {
        for (i, e) in s.log.iter().enumerate() {
            assert_eq!(e.slot, i as u64, "log has a gap or a reorder");
        }
    }
    for pair in states.windows(2) {
        assert_eq!(
            pair[0].log, pair[1].log,
            "two replicas applied different logs"
        );
        assert_eq!(pair[0].digest(), pair[1].digest());
        assert_eq!(pair[0].kv, pair[1].kv);
    }
}

#[test]
fn five_replicas_apply_identical_gap_free_logs() {
    let n = 5;
    let per_client = 20u64;
    let preload: Vec<Vec<Command>> = (0..n)
        .map(|i| {
            (1..=per_client)
                .map(|r| {
                    put(
                        i as u64 + 1,
                        r,
                        format!("k{i}-{r}").as_bytes(),
                        format!("v{i}-{r}").as_bytes(),
                    )
                })
                .collect()
        })
        .collect();
    let states = run_cluster(
        n,
        7,
        RsmOptions {
            window: 4,
            max_batch: 8,
        },
        preload,
    );
    assert_identical(&states);
    let s = &states[0];
    assert_eq!(s.applied_commands, n as u64 * per_client);
    assert_eq!(s.deduped_commands, 0);
    // Every submitted command landed exactly once.
    for i in 0..n {
        for r in 1..=per_client {
            let key = format!("k{i}-{r}");
            assert_eq!(
                s.kv.get(key.as_bytes()),
                Some(&format!("v{i}-{r}").into_bytes()),
                "missing {key}"
            );
        }
    }
}

#[test]
fn batches_are_atomic_and_bounded() {
    let n = 4;
    let max_batch = 10;
    // One loaded replica, three idle ones: its 50 commands must pack into
    // batches of at most `max_batch`, and batching must actually happen
    // (fewer non-empty slots than commands).
    let mut preload = vec![Vec::new(); n];
    preload[2] = (1..=50)
        .map(|r| put(9, r, format!("x{r}").as_bytes(), b"v"))
        .collect();
    let states = run_cluster(
        n,
        11,
        RsmOptions {
            window: 3,
            max_batch,
        },
        preload,
    );
    assert_identical(&states);
    let s = &states[0];
    let loaded: Vec<_> = s.log.iter().filter(|e| !e.commands.is_empty()).collect();
    assert!(!loaded.is_empty());
    assert!(loaded.iter().all(|e| e.commands.len() <= max_batch));
    assert!(
        loaded.len() < 50,
        "batching never combined commands: {} slots for 50 commands",
        loaded.len()
    );
    // All-or-nothing: a batch's commands are contiguous within one entry,
    // in submission order.
    let mut seen = 0u64;
    for e in &s.log {
        for c in &e.commands {
            assert_eq!(c.request, seen + 1, "batch split or reordered a command");
            seen = c.request;
        }
    }
    assert_eq!(seen, 50);
    assert_eq!(s.applied_commands, 50);
}

#[test]
fn duplicate_request_ids_apply_exactly_once() {
    let n = 4;
    // Two replicas preload the *same* client stream (a client that
    // resubmitted to a different node), interleaved with a private one.
    let shared: Vec<Command> = (1..=15)
        .map(|r| put(3, r, b"shared", format!("s{r}").as_bytes()))
        .collect();
    let mut preload = vec![Vec::new(); n];
    preload[0] = shared.clone();
    preload[1] = shared;
    preload[3] = (1..=5).map(|r| put(8, r, b"mine", b"m")).collect();
    let states = run_cluster(
        n,
        23,
        RsmOptions {
            window: 4,
            max_batch: 4,
        },
        preload,
    );
    assert_identical(&states);
    let s = &states[0];
    // 15 shared + 5 private applied; every duplicate skipped, everywhere
    // the same way.
    assert_eq!(s.applied_commands, 20);
    assert!(
        s.deduped_commands > 0,
        "the duplicate stream never collided"
    );
    assert_eq!(s.kv.get(b"shared".as_slice()), Some(&b"s15".to_vec()));
    assert!(s.is_complete(3, 15));
    assert!(s.is_complete(8, 5));
}

#[test]
fn idle_cluster_is_quiescent() {
    let states = run_cluster(5, 3, RsmOptions::default(), vec![Vec::new(); 5]);
    for s in &states {
        assert!(s.log.is_empty());
        assert_eq!(s.digest(), rsm::state::DIGEST_SEED);
    }
}

#[test]
fn pipelining_keeps_multiple_slots_in_flight() {
    // A window of 1 and a window of 6 must both converge to the same
    // correct contents (pipelining changes scheduling, never semantics).
    let n = 4;
    let preload: Vec<Vec<Command>> = (0..n)
        .map(|i| {
            (1..=12)
                .map(|r| put(i as u64 + 1, r, format!("p{i}-{r}").as_bytes(), b"v"))
                .collect()
        })
        .collect();
    let narrow = run_cluster(
        n,
        31,
        RsmOptions {
            window: 1,
            max_batch: 3,
        },
        preload.clone(),
    );
    let wide = run_cluster(
        n,
        31,
        RsmOptions {
            window: 6,
            max_batch: 3,
        },
        preload,
    );
    assert_identical(&narrow);
    assert_identical(&wide);
    assert_eq!(narrow[0].applied_commands, 48);
    assert_eq!(wide[0].applied_commands, 48);
    // Same commands, same KV — regardless of window-induced slot layout.
    assert_eq!(narrow[0].kv, wide[0].kv);
}

/// A process that, at start, sends replica 0 a `Submit` of its own — a
/// peer posing as replica 0's client service.
#[derive(Debug)]
struct ForeignProposer(Vec<Command>);

impl simnet::Process for ForeignProposer {
    type Msg = RsmMsg;
    fn on_start(&mut self, ctx: &mut Ctx<'_, RsmMsg>) {
        let commands = self.0.clone();
        ctx.send(ProcessId::new(0), RsmMsg::Submit { commands });
    }
    fn on_receive(&mut self, _: Envelope<RsmMsg>, _: &mut Ctx<'_, RsmMsg>) {}
    fn decision(&self) -> Option<Value> {
        None
    }
    fn phase(&self) -> u64 {
        0
    }
}

#[test]
fn a_submit_from_another_process_is_counted_and_dropped() {
    let n = 4;
    let config = bt_core::Config::malicious(n, 1).expect("valid config");
    let registry = Registry::new();
    let views: Vec<LogView> = (0..n - 1).map(|_| LogView::new()).collect();
    let mut builder = Sim::builder();
    for (i, view) in views.iter().enumerate() {
        // Replica 1's own clients keep the log moving past the Submit.
        let preload = if i == 1 {
            (1..=3).map(|r| put(1, r, b"own", b"v")).collect()
        } else {
            Vec::new()
        };
        let replica = Replica::new(config, ProcessId::new(i), RsmOptions::default())
            .with_view(view.clone())
            .with_preload(preload)
            .with_metrics(&registry);
        builder.process(Box::new(replica), Role::Correct);
    }
    let forged = (1..=3).map(|r| put(99, r, b"forged", b"x")).collect();
    builder.process(Box::new(ForeignProposer(forged)), Role::Faulty);
    let report = builder
        .seed(5)
        .stop_when(StopWhen::Never)
        .step_limit(2_000_000)
        .build()
        .run();
    assert!(report.steps < 2_000_000, "the run did not go quiescent");

    let states: Vec<AppliedState> = views.iter().map(LogView::snapshot).collect();
    assert_identical(&states);
    let clients: Vec<u64> = (states[0].log.iter())
        .flat_map(|e| e.commands.iter().map(|c| c.client))
        .collect();
    assert_eq!(clients, [1, 1, 1], "only replica 1's own commands applied");
    let reading = |name: &str| registry.snapshot().scalar(name, &[("node", "0")]);
    assert_eq!(reading("rsm_foreign_submits_total"), Some(1));
    assert_eq!(reading("rsm_pending_queue"), Some(0), "nothing queued");
}

#[test]
fn transfer_hooks_round_trip_the_applied_log() {
    use simnet::{Process, Wire};

    let n = 4;
    let config = bt_core::Config::malicious(n, 1).expect("valid config");
    // A donor log: five applied slots, two carrying commands.
    let log: Vec<rsm::LogEntry> = (0..5u64)
        .map(|slot| rsm::LogEntry {
            slot,
            winner: slot % n as u64,
            commands: if slot == 1 || slot == 3 {
                vec![put(7, slot, b"k", b"v")]
            } else {
                Vec::new()
            },
        })
        .collect();
    let mut bytes = Vec::new();
    log.encode(&mut bytes);

    let mut amnesiac =
        Replica::new(config, ProcessId::new(2), RsmOptions::default()).with_view(LogView::new());
    assert!(amnesiac.adopt_transfer(&bytes), "canonical bytes adopt");
    assert_eq!(amnesiac.phase(), 5, "applied prefix installed");
    // The digest contract the transfer layer verifies generically:
    // fnv1a64(transfer_state()) must equal transfer_digest().
    let served = amnesiac.transfer_state().expect("replicas serve state");
    assert_eq!(served, bytes, "adopted state re-serves byte-identically");
    assert_eq!(
        amnesiac.transfer_digest(),
        netstack::fnv1a64(&served),
        "digest contract"
    );

    // Malformed and non-canonical bytes are rejected without effect.
    let mut fresh =
        Replica::new(config, ProcessId::new(0), RsmOptions::default()).with_view(LogView::new());
    assert!(!fresh.adopt_transfer(b"garbage"));
    let mut gapped = log.clone();
    gapped[2].slot = 9; // a hole
    let mut bad = Vec::new();
    gapped.encode(&mut bad);
    assert!(!fresh.adopt_transfer(&bad));
    assert_eq!(
        fresh.phase(),
        0,
        "rejected bytes leave the replica unchanged"
    );
}
