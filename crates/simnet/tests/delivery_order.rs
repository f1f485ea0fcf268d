//! Scheduler-visible ordering: [`Buffer`] (a mailbox of live bits over a
//! send log) must present *exactly* the logical view the old `Vec::remove` buffer did —
//! same deliverable set, same index semantics, same envelope at every
//! index — so a seeded run makes the same delivery sequence it always
//! made. The reference model here *is* the old representation: plain
//! `Vec`s, removal by shift.

use simnet::scheduler::{FairScheduler, Scheduler, SystemView};
use simnet::{Buffer, Envelope, ProcessId, SimRng};

const N: usize = 9;

/// One delivery selected against the reference model, mirroring
/// `FairScheduler`'s draw sequence: one uniform draw over deliverable
/// processes (ascending id order), one over that buffer's length.
fn model_select(
    model: &[Vec<Envelope<u32>>],
    runnable: &[bool],
    rng: &mut SimRng,
) -> Option<(usize, usize)> {
    let deliverable: Vec<usize> = (0..model.len())
        .filter(|&p| runnable[p] && !model[p].is_empty())
        .collect();
    if deliverable.is_empty() {
        return None;
    }
    let to = deliverable[rng.index(deliverable.len())];
    let index = rng.index(model[to].len());
    Some((to, index))
}

#[test]
fn seeded_delivery_sequence_matches_vec_remove_reference() {
    for seed in 0..25u64 {
        let mut rng = SimRng::seed(0xD311 ^ seed);
        let mut sched_rng = SimRng::seed(0x5EED ^ seed);
        let mut model_rng = SimRng::seed(0x5EED ^ seed);
        let mut sched = FairScheduler::new();

        let mut buffers: Vec<Buffer<u32>> = (0..N).map(|_| Buffer::new()).collect();
        let mut model: Vec<Vec<Envelope<u32>>> = vec![Vec::new(); N];
        let mut runnable = [true; N];
        let mut payload = 0u32;
        let mut deliveries: Vec<(usize, usize, u32)> = Vec::new();

        for step in 0..4_000u64 {
            // Mixed workload: bursts of sends, occasional halts, deliveries.
            match rng.index(10) {
                0..=4 => {
                    let to = rng.index(N);
                    let env = Envelope::new(ProcessId::new(rng.index(N)), payload);
                    buffers[to].push(env.clone());
                    model[to].push(env);
                    payload += 1;
                }
                5 if step > 2_000 => {
                    // Halt a process late in the run, like `observe` does.
                    let p = rng.index(N);
                    runnable[p] = false;
                    buffers[p].clear();
                    model[p].clear();
                }
                _ => {
                    let view = SystemView::new(&buffers, &runnable, step);
                    let sel = sched.select(&view, &mut sched_rng);
                    let expected = model_select(&model, &runnable, &mut model_rng);
                    assert_eq!(
                        sel.map(|s| (s.to.index(), s.index)),
                        expected,
                        "seed {seed} step {step}: selection diverged"
                    );
                    let Some(sel) = sel else { continue };
                    let env = buffers[sel.to.index()].take(sel.index);
                    let want = model[sel.to.index()].remove(sel.index);
                    assert_eq!(
                        (env.from, env.msg),
                        (want.from, want.msg),
                        "seed {seed} step {step}: delivered envelope diverged"
                    );
                    deliveries.push((sel.to.index(), sel.index, env.msg));
                }
            }
        }
        assert!(
            deliveries.len() > 500,
            "seed {seed}: workload too light to be meaningful ({} deliveries)",
            deliveries.len()
        );
        // Logical views agree at the end, too.
        for p in 0..N {
            assert_eq!(
                buffers[p].iter().map(|e| e.msg).collect::<Vec<_>>(),
                model[p].iter().map(|e| e.msg).collect::<Vec<_>>(),
                "seed {seed}: final buffer {p} diverged"
            );
        }
    }
}
