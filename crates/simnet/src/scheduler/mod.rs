//! Schedulers: resolution of the message system's nondeterminism.
//!
//! In the paper's model the `receive` primitive removes *some* message from
//! the buffer nondeterministically (or returns φ), modelling arbitrarily long
//! transmission delays. A [`Scheduler`] resolves that nondeterminism: each
//! simulation tick it picks which process receives which pending message.
//!
//! The paper's convergence proofs rest on one probabilistic assumption
//! (§2.3): *in any phase, every possible view of `n−k` messages has some
//! fixed probability ε > 0 of being the one a process sees.* The
//! [`FairScheduler`] satisfies it (every pending message has positive
//! probability of being delivered next, hence every view has positive
//! probability). The adversarial schedulers ([`DelayingScheduler`],
//! [`PartitionScheduler`]) deliberately violate uniformity while preserving
//! reliability, to stress the safety properties — which the paper proves
//! without any probabilistic assumption.

mod delaying;
mod fair;
mod partition;
mod round_robin;
mod scripted;

pub use delaying::DelayingScheduler;
pub use fair::{DeliveryOrder, FairScheduler};
pub use partition::PartitionScheduler;
pub use round_robin::RoundRobinScheduler;
pub use scripted::ScriptedScheduler;

use core::fmt;
use std::borrow::Cow;

use crate::buffer::{ones, Store};
use crate::{Buffer, ProcessId, SimRng};

/// Where a view reads pending messages from: standalone buffers, one per
/// process, or the engine's shared store.
enum Pending<'a, M> {
    Buffers(&'a [Buffer<M>]),
    Store(&'a Store<M>),
}

/// A read-only view of the system the scheduler may base its choice on:
/// which processes can still take steps, and what is pending in each buffer.
///
/// The deliverable set (runnable processes with a non-empty buffer) is
/// materialized as a bitmask so schedulers can count and rank-select
/// candidates in O(n/64) instead of collecting a fresh `Vec` per delivery.
/// The engine maintains the mask incrementally across steps and lends it
/// via [`SystemView::with_ready`]; the public [`SystemView::new`] builds it
/// by scanning, which is fine for tests and one-shot callers.
pub struct SystemView<'a, M> {
    pending: Pending<'a, M>,
    runnable: &'a [bool],
    ready: Cow<'a, [u64]>,
    step: u64,
}

impl<'a, M> SystemView<'a, M> {
    /// Creates a view. Called by the engine; public so schedulers can be
    /// unit-tested in isolation.
    pub fn new(buffers: &'a [Buffer<M>], runnable: &'a [bool], step: u64) -> Self {
        assert_eq!(
            buffers.len(),
            runnable.len(),
            "buffers and runnable mask must have the same length"
        );
        let mut ready = vec![0u64; buffers.len().div_ceil(64)];
        for (i, b) in buffers.iter().enumerate() {
            if runnable[i] && !b.is_empty() {
                ready[i >> 6] |= 1u64 << (i & 63);
            }
        }
        SystemView {
            pending: Pending::Buffers(buffers),
            runnable,
            ready: Cow::Owned(ready),
            step,
        }
    }

    /// Creates a view of the engine's store around its incrementally
    /// maintained deliverable mask (bit `i` set iff process `i` is runnable
    /// with a non-empty buffer). The caller guarantees the mask is
    /// consistent with `store`/`runnable`.
    pub(crate) fn with_ready(
        store: &'a Store<M>,
        runnable: &'a [bool],
        ready: &'a [u64],
        step: u64,
    ) -> Self {
        SystemView {
            pending: Pending::Store(store),
            runnable,
            ready: Cow::Borrowed(ready),
            step,
        }
    }

    /// The store holding `pid`'s pending messages, and `pid`'s mailbox in it.
    fn mailbox(&self, pid: ProcessId) -> (&'a Store<M>, usize) {
        match self.pending {
            Pending::Buffers(buffers) => (&buffers[pid.index()].store, 0),
            Pending::Store(store) => (store, pid.index()),
        }
    }

    /// Number of processes in the system.
    #[must_use]
    pub fn n(&self) -> usize {
        self.runnable.len()
    }

    /// The global atomic-step counter.
    #[must_use]
    pub fn step(&self) -> u64 {
        self.step
    }

    /// Whether `pid` is still participating (alive and not halted).
    #[must_use]
    pub fn is_runnable(&self, pid: ProcessId) -> bool {
        self.runnable[pid.index()]
    }

    /// Number of messages pending at `pid`, oldest-first indexed; the valid
    /// delivery indices for `pid` are `0..pending_len(pid)`.
    #[must_use]
    pub fn pending_len(&self, pid: ProcessId) -> usize {
        let (store, mailbox) = self.mailbox(pid);
        store.len(mailbox)
    }

    /// The senders of `pid`'s pending messages, as `(index, from)` pairs in
    /// oldest-first order. Adversarial schedulers (delay, partition) filter
    /// on provenance through this; payload contents stay invisible so no
    /// scheduler can depend on what a Byzantine sender wrote.
    pub fn pending_senders(&self, pid: ProcessId) -> impl Iterator<Item = (usize, ProcessId)> + '_ {
        let (store, mailbox) = self.mailbox(pid);
        store
            .pending(mailbox)
            .enumerate()
            .map(|(i, env)| (i, env.from))
    }

    /// Processes that are runnable and have at least one pending message —
    /// the candidates for the next delivery, in ascending id order.
    pub fn deliverable(&self) -> impl Iterator<Item = ProcessId> + '_ {
        self.ready
            .iter()
            .enumerate()
            .flat_map(|(w, &word)| ones(word).map(move |bit| ProcessId::new((w << 6) | bit)))
    }

    /// Number of deliverable processes (the length of
    /// [`SystemView::deliverable`]).
    #[must_use]
    pub fn deliverable_count(&self) -> usize {
        self.ready.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The `rank`-th deliverable process in ascending id order.
    ///
    /// # Panics
    ///
    /// Panics if `rank >= self.deliverable_count()`.
    #[must_use]
    pub fn deliverable_nth(&self, rank: usize) -> ProcessId {
        let mut rem = rank;
        for (w, &word) in self.ready.iter().enumerate() {
            let count = word.count_ones() as usize;
            if rem < count {
                let mut bits = word;
                for _ in 0..rem {
                    bits &= bits - 1;
                }
                return ProcessId::new((w << 6) | bits.trailing_zeros() as usize);
            }
            rem -= count;
        }
        panic!("deliverable rank {rank} out of range");
    }

    /// Total number of pending messages across runnable processes.
    #[must_use]
    pub fn total_deliverable(&self) -> usize {
        self.deliverable().map(|p| self.pending_len(p)).sum()
    }
}

impl<M> fmt::Debug for SystemView<'_, M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SystemView")
            .field("n", &self.n())
            .field("step", &self.step)
            .field("total_deliverable", &self.total_deliverable())
            .finish()
    }
}

/// One resolved delivery: give process `to` the pending message at `index`
/// in its buffer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Selection {
    /// The receiving process.
    pub to: ProcessId,
    /// Index into `view.pending(to)`.
    pub index: usize,
}

/// Strategy resolving which pending message is delivered next.
///
/// Returning `None` means no delivery is possible (every runnable process has
/// an empty buffer); the engine then declares the run quiescent. A scheduler
/// must only select runnable processes and in-bounds indices.
pub trait Scheduler<M>: fmt::Debug {
    /// Picks the next delivery, or `None` if nothing is deliverable.
    fn select(&mut self, view: &SystemView<'_, M>, rng: &mut SimRng) -> Option<Selection>;
}

#[cfg(test)]
pub(crate) mod test_util {
    use super::*;
    use crate::Envelope;

    /// Builds buffers where process `i` holds `counts[i]` dummy messages
    /// (all from p0), plus a runnable mask.
    pub(crate) fn make_buffers(counts: &[usize]) -> Vec<Buffer<u32>> {
        counts
            .iter()
            .map(|&c| {
                let mut b = Buffer::new();
                for m in 0..c {
                    b.push(Envelope::new(ProcessId::new(0), m as u32));
                }
                b
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::test_util::make_buffers;
    use super::*;

    #[test]
    fn view_reports_deliverable_processes() {
        let buffers = make_buffers(&[2, 0, 1, 3]);
        let runnable = [true, true, false, true];
        let view = SystemView::new(&buffers, &runnable, 5);
        let d: Vec<_> = view.deliverable().map(ProcessId::index).collect();
        assert_eq!(d, vec![0, 3], "p1 empty, p2 not runnable");
        assert_eq!(view.total_deliverable(), 5);
        assert_eq!(view.step(), 5);
        assert_eq!(view.n(), 4);
    }

    #[test]
    #[should_panic(expected = "same length")]
    fn view_rejects_mismatched_lengths() {
        let buffers = make_buffers(&[1]);
        let runnable = [true, false];
        let _ = SystemView::new(&buffers, &runnable, 0);
    }
}
