//! Schedule identity pin: how the engine stores in-flight messages must
//! never change which message a seed delivers when.

use resilient_consensus::adversary::ContrarianMalicious;
use resilient_consensus::bt_core::{Config, Malicious};
use resilient_consensus::simnet::{Role, Sim, Value};

/// One Figure 2 run — n=32, k=3 contrarian attackers, alternating inputs,
/// the default ε-fair scheduler, seed 1983 — compared with literals read at
/// the commit *before* the shared send log replaced the per-destination
/// envelope slabs (PR 17, `bb462ae`). Every draw of the scheduler's random
/// stream depends on each buffer's length and order, so a storage change
/// that moved one message shows up in all of these.
#[test]
fn fig2_n32_run_is_step_identical_to_the_per_destination_slab_engine() {
    let (n, k) = (32, 3);
    let config = Config::malicious(n, k).unwrap();
    let mut b = Sim::builder();
    for i in 0..n - k {
        let input = Value::from(i % 2 == 0);
        b.process(Box::new(Malicious::new(config, input)), Role::Correct);
    }
    for _ in 0..k {
        b.process(Box::new(ContrarianMalicious::new(config)), Role::Faulty);
    }
    let r = b.seed(1983).step_limit(16_000_000).build().run();

    assert_eq!(r.steps, 61_835);
    assert_eq!(r.metrics.messages_sent, 77_760);
    assert_eq!(r.metrics.messages_dropped, 0);
    assert_eq!(r.metrics.max_buffer_occupancy, 623);
    assert_eq!(r.decided_value(), Some(Value::Zero));
    // The attackers (the last three) never decide.
    #[rustfmt::skip]
    let decided_at: [u64; 29] = [
        54232, 53427, 52539, 55223, 52456, 56671,
        54618, 52233, 55810, 55562, 55986, 52842,
        56692, 52316, 60295, 53144, 52339, 52314,
        55107, 54297, 52991, 56075, 56730, 55379,
        54001, 53804, 61835, 55782, 53343,
    ];
    let expected: Vec<Option<u64>> = decided_at
        .iter()
        .map(|&s| Some(s))
        .chain([None; 3])
        .collect();
    assert_eq!(r.decision_steps, expected);
}
