//! Layer replays: public functions of one layer timed in isolation over
//! inputs captured from the workload that just ran.

use std::hint::black_box;
use std::time::{Duration, Instant};

use prng::Prng;
use rsm::{AppliedState, LogEntry};
use simnet::{Buffer, Envelope, ProcessId, Wire};

/// How long each micro-timing loops: long enough that clock reads and
/// the first cold pass vanish, short enough to fit a traced run.
const BUDGET: Duration = Duration::from_millis(60);

/// Calls `pass` (one sweep over `per_pass` items) until [`BUDGET`] is
/// spent; returns nanoseconds per item and the items timed.
fn time_passes(per_pass: usize, mut pass: impl FnMut()) -> Option<(f64, u64)> {
    if per_pass == 0 {
        return None;
    }
    pass(); // warm caches and allocator
    let start = Instant::now();
    let mut items = 0u64;
    while start.elapsed() < BUDGET {
        pass();
        items += per_pass as u64;
    }
    Some((start.elapsed().as_nanos() as f64 / items as f64, items))
}

/// `(encode ns, decode ns, messages timed)` per message of `msgs`.
pub fn wire_ns<M: Wire>(msgs: &[M]) -> Option<(f64, f64, u64)> {
    let mut out = Vec::new();
    let (encode, items) = time_passes(msgs.len(), || {
        for m in msgs {
            out.clear();
            black_box(m).encode(&mut out);
            black_box(&out);
        }
    })?;
    let encoded: Vec<Vec<u8>> = msgs.iter().map(Wire::to_bytes).collect();
    let (decode, _) = time_passes(encoded.len(), || {
        for bytes in &encoded {
            black_box(M::from_bytes(black_box(bytes)).expect("round trip"));
        }
    })?;
    Some((encode, decode, items))
}

/// Nanoseconds per `Buffer::take` + `Buffer::push` pair with the buffer
/// held at `occupancy` messages, taking at uniformly random ranks as
/// the ε-fair scheduler does.
pub fn buffer_push_take_ns<M: Clone>(sample: &[M], occupancy: usize, seed: u64) -> Option<f64> {
    if sample.is_empty() || occupancy == 0 {
        return None;
    }
    let mut rng = Prng::seed_from_u64(seed);
    let mut buffer = Buffer::new();
    for i in 0..occupancy {
        buffer.push(Envelope::new(
            ProcessId::new(0),
            sample[i % sample.len()].clone(),
        ));
    }
    const PAIRS: usize = 4096;
    let (ns, _) = time_passes(PAIRS, || {
        for _ in 0..PAIRS {
            let env = buffer.take(rng.index(occupancy));
            buffer.push(black_box(env));
        }
    })?;
    Some(ns)
}

/// Nanoseconds per command of folding the committed `log` into a fresh
/// [`AppliedState`], and the commands timed. Cloning the entries that
/// `apply` consumes stays outside the timed region.
pub fn apply_ns_per_cmd(log: &[LogEntry]) -> Option<(f64, u64)> {
    let per_pass: u64 = log.iter().map(|e| e.commands.len() as u64).sum();
    if per_pass == 0 {
        return None;
    }
    let (mut timed, mut cmds) = (Duration::ZERO, 0u64);
    while timed < BUDGET {
        let entries = log.to_vec();
        let mut state = AppliedState::default();
        let t0 = Instant::now();
        for entry in entries {
            state.apply(entry);
        }
        timed += t0.elapsed();
        cmds += per_pass;
        black_box(&state);
    }
    Some((timed.as_nanos() as f64 / cmds as f64, cmds))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn micro_timings_produce_positive_numbers() {
        let msgs: Vec<u64> = (0..64).collect();
        let (enc, dec, items) = wire_ns(&msgs).unwrap();
        assert!(enc > 0.0 && dec > 0.0 && items >= 64);
        assert!(buffer_push_take_ns(&msgs, 100, 1).unwrap() > 0.0);
        assert!(wire_ns::<u64>(&[]).is_none());
        assert!(buffer_push_take_ns::<u64>(&[], 100, 1).is_none());
    }
}
