//! The applied side of the log: committed entries, the KV state machine,
//! and the shared view handles read by services, tests, and tooling.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, PoisonError};

use simnet::Wire;

use crate::command::{Command, Op};

/// FNV-1a over `bytes`, seeded with `state` so digests chain.
#[must_use]
pub fn fnv1a64_chain(mut state: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        state ^= u64::from(b);
        state = state.wrapping_mul(0x0000_0100_0000_01b3);
    }
    state
}

/// The FNV-1a offset basis — the digest of the empty log.
pub const DIGEST_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// One committed log position.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LogEntry {
    /// The slot index.
    pub slot: u64,
    /// The consensus winner for the slot (the slot leader's id, or an
    /// out-of-range word for a defensively no-op'd slot).
    pub winner: u64,
    /// The commands the slot carried, in announcement order. Empty for
    /// gap-fill and no-op slots.
    pub commands: Vec<Command>,
}

impl Wire for LogEntry {
    fn encode(&self, out: &mut Vec<u8>) {
        self.slot.encode(out);
        self.winner.encode(out);
        self.commands.encode(out);
    }

    fn decode(r: &mut simnet::WireReader<'_>) -> Result<Self, simnet::WireError> {
        Ok(LogEntry {
            slot: u64::decode(r)?,
            winner: u64::decode(r)?,
            commands: Vec::decode(r)?,
        })
    }

    fn validate(&self, n: usize) -> bool {
        self.commands.iter().all(|c| c.validate(n))
    }
}

/// The materialized state machine: the committed log prefix and the KV
/// map it folds into, plus the per-client exactly-once watermarks.
///
/// Everything here is a pure function of the committed entry sequence, so
/// two replicas whose [`AppliedState::digest`] match hold byte-identical
/// logs *and* identical KV maps.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AppliedState {
    /// Committed entries, in slot order, no gaps.
    pub log: Vec<LogEntry>,
    /// The KV map after applying every entry in `log`.
    pub kv: BTreeMap<Vec<u8>, Vec<u8>>,
    /// Per-client highest applied request id (commands at or below their
    /// client's watermark were skipped as duplicates).
    pub watermarks: BTreeMap<u64, u64>,
    /// Chained FNV-1a digest over the wire encodings of `log`'s entries.
    pub digest: u64,
    /// Commands actually applied (duplicates excluded).
    pub applied_commands: u64,
    /// Commands skipped as duplicates of an already-applied request id.
    pub deduped_commands: u64,
}

impl AppliedState {
    /// The next slot to apply (== the number of committed entries).
    #[must_use]
    pub fn next_slot(&self) -> u64 {
        self.log.len() as u64
    }

    /// The chained digest, [`DIGEST_SEED`] for an empty log.
    #[must_use]
    pub fn digest(&self) -> u64 {
        if self.log.is_empty() {
            DIGEST_SEED
        } else {
            self.digest
        }
    }

    /// Whether `(client, request)` has already been applied (or skipped
    /// as a duplicate) — the completion predicate a service answers on.
    #[must_use]
    pub fn is_complete(&self, client: u64, request: u64) -> bool {
        self.watermarks.get(&client).copied().unwrap_or(0) >= request
    }

    /// Appends one committed entry: applies its commands all-or-nothing
    /// in order (each either mutates the KV and advances its client's
    /// watermark, or is skipped as a duplicate), then folds the entry
    /// into the chained digest.
    ///
    /// # Panics
    ///
    /// Panics if `entry.slot` is not the next slot — gaps are a replica
    /// logic bug, never valid input.
    pub fn apply(&mut self, entry: LogEntry) {
        assert_eq!(entry.slot, self.next_slot(), "log entries apply in order");
        for cmd in &entry.commands {
            let watermark = self.watermarks.entry(cmd.client).or_insert(0);
            if cmd.request <= *watermark {
                self.deduped_commands += 1;
                continue;
            }
            *watermark = cmd.request;
            self.applied_commands += 1;
            match &cmd.op {
                Op::Put { key, value } => {
                    self.kv.insert(key.clone(), value.clone());
                }
                Op::Del { key } => {
                    self.kv.remove(key);
                }
                Op::Noop => {}
            }
        }
        let seed = self.digest();
        self.digest = fnv1a64_chain(seed, &entry.to_bytes());
        self.log.push(entry);
    }
}

/// A shared view of one replica's [`AppliedState`].
///
/// The replica mutates it under the mutex as slots commit; its client
/// service, running on the same event thread, reads it after each tick to
/// turn a commit into a client acknowledgement, and tests and tooling read
/// it from anywhere. Cloning shares the same state.
#[derive(Clone, Debug, Default)]
pub struct LogView {
    inner: Arc<Mutex<AppliedState>>,
}

impl LogView {
    /// A fresh, empty view.
    #[must_use]
    pub fn new() -> Self {
        LogView::default()
    }

    /// Runs `f` on the current applied state.
    pub fn with<R>(&self, f: impl FnOnce(&AppliedState) -> R) -> R {
        f(&self.inner.lock().unwrap_or_else(PoisonError::into_inner))
    }

    /// Runs `f` mutably. Only the owning replica should call this.
    pub fn update<R>(&self, f: impl FnOnce(&mut AppliedState) -> R) -> R {
        f(&mut self.inner.lock().unwrap_or_else(PoisonError::into_inner))
    }

    /// A snapshot clone of the applied state.
    #[must_use]
    pub fn snapshot(&self) -> AppliedState {
        self.with(Clone::clone)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn apply_folds_kv_and_digest() {
        let mut a = AppliedState::default();
        assert_eq!(a.digest(), DIGEST_SEED);
        a.apply(LogEntry {
            slot: 0,
            winner: 0,
            commands: vec![put(1, 1, b"x", b"1"), put(1, 2, b"y", b"2")],
        });
        a.apply(LogEntry {
            slot: 1,
            winner: 1,
            commands: vec![Command {
                client: 1,
                request: 3,
                op: Op::Del { key: b"x".to_vec() },
            }],
        });
        assert_eq!(a.kv.get(b"y".as_slice()), Some(&b"2".to_vec()));
        assert!(!a.kv.contains_key(b"x".as_slice()));
        assert_eq!(a.applied_commands, 3);
        assert_ne!(a.digest(), DIGEST_SEED);

        // Same entries ⇒ same digest; divergent entries ⇒ different digest.
        let mut b = AppliedState::default();
        b.apply(LogEntry {
            slot: 0,
            winner: 0,
            commands: vec![put(1, 1, b"x", b"1"), put(1, 2, b"y", b"2")],
        });
        assert_ne!(a.digest(), b.digest());
        b.apply(LogEntry {
            slot: 1,
            winner: 1,
            commands: vec![Command {
                client: 1,
                request: 3,
                op: Op::Del { key: b"x".to_vec() },
            }],
        });
        assert_eq!(a.digest(), b.digest());
    }

    #[test]
    fn duplicate_request_ids_apply_once() {
        let mut a = AppliedState::default();
        a.apply(LogEntry {
            slot: 0,
            winner: 0,
            commands: vec![put(5, 1, b"k", b"first")],
        });
        a.apply(LogEntry {
            slot: 1,
            winner: 1,
            commands: vec![put(5, 1, b"k", b"retry"), put(5, 2, b"k2", b"v2")],
        });
        assert_eq!(a.kv.get(b"k".as_slice()), Some(&b"first".to_vec()));
        assert_eq!(a.applied_commands, 2);
        assert_eq!(a.deduped_commands, 1);
        assert!(a.is_complete(5, 2));
        assert!(!a.is_complete(5, 3));
    }

    #[test]
    #[should_panic(expected = "log entries apply in order")]
    fn gaps_are_rejected() {
        let mut a = AppliedState::default();
        a.apply(LogEntry {
            slot: 1,
            winner: 0,
            commands: Vec::new(),
        });
    }
}
