//! In-flight message storage: one send log, one mailbox of live bits per
//! destination.
//!
//! Logically each process still owns what §2.1 describes: the multiset of
//! messages sent to it but not yet received, ordered by arrival so
//! schedulers can index it deterministically. Physically the protocols
//! define far fewer *distinct* messages than (message, destination) pairs —
//! Fig. 2 echoes every initial to all, n² sends per phase addressed to n
//! destinations each — so a [`Store`] keeps every distinct send **once**:
//!
//! * The [`SendLog`] holds `(envelope, recipients still to take it)`
//!   entries, appended in global send order; an entry's *position* is its
//!   append sequence number.
//! * A [`Mailbox`] is one destination's buffer minus the messages: a live
//!   bit per log position (set = sent to this destination and not yet
//!   taken), a Fenwick tree over the 64-bit words of those bits, and the
//!   number of the first word it still keeps.
//!
//! At n = 128 a Fig. 2 trial's ~2 M in-flight (message, destination) pairs
//! are ~32 k entries plus 128 × 4 KiB of bits: L2 instead of DRAM, which is
//! the whole point.
//!
//! **Order.** A destination's arrival order *is* global send order
//! restricted to that destination, so the logical index schedulers pick —
//! rank among live bits, oldest first — and the `index` recorded in
//! [`Event::Deliver`](crate::Event::Deliver) mean exactly what they meant
//! when every destination held its own copies. The Fenwick tree turns a rank
//! into a position in O(log words).
//!
//! **Sharing rule.** When the engine stores a send that equals (`from` and
//! payload) the log's *newest* entry, and the destination holds no bit at
//! that entry, the send joins it — one more recipient, one more bit —
//! instead of appending: the n clones of a `Ctx::broadcast` collapse to one
//! entry. A repeat to the same destination, or anything after an intervening
//! send, appends, so multiplicity and order are untouched. `take` moves the
//! envelope out for the last recipient and clones it for the others — the
//! clones `broadcast` made eagerly, made later. `==` must mean
//! "interchangeable", as a derived `PartialEq` does. A lone [`Buffer`] has
//! nobody to share with and never tests equality.
//!
//! For a payload type with drop glue (heap-carrying messages) joining would
//! *add* an equality walk, a drop and a second clone per recipient, so such
//! a type never shares: sharing replaces bitwise copies only. Having no use
//! for one global order, it gets one log per destination — the same code,
//! with every mailbox dense in its own log's positions.
//!
//! **Release and the retention bound.** A log is stored in 64-entry chunks,
//! chunk `w` covering the positions of its mailboxes' word `w`. An entry
//! whose last recipient took it (or halted) gives up its envelope at once; a
//! full chunk whose entries are all taken gives up its slots at once,
//! wherever it sits, and such chunks at the head are popped. So at every
//! moment, per log,
//!
//! ```text
//! entry slots in use <= 64 * (live entries + 1),   live entries <= sum of buffer lengths
//! ```
//!
//! however long one destination is starved while the others keep talking:
//! what the starved destination has pending pins only the chunks those
//! entries sit in. A fully taken entry behind the head costs its slot until
//! the rest of its chunk is taken; after that, one 32-byte chunk header per
//! 64 positions, plus one bit (and 1/16 byte of tree) in each mailbox whose
//! oldest pending message is older. Under uniformly random takes at steady
//! occupancy L the last of a chunk's 64 entries leaves after about 4.7 L
//! takes, so an unshared log keeps about 4.7 slots in use per pending
//! message where a per-destination slab with tombstone compaction kept up
//! to 2.
//!
//! The emptied allocation of a fully taken chunk is kept for the next chunk
//! the log starts, so what a log has allocated is the peak of its slots in
//! use, and a log in steady state — starting and finishing chunks at the
//! same rate — stays out of the allocator (a 3–4 KiB request every 64 sends
//! measured about 20 ns per delivery in the n = 5 engine).
//!
//! **What dense bits cost.** A mailbox is dense in *log* positions, which is
//! what makes a broadcast cost one bit per destination. Sends of a sharing
//! type that do not in fact share (per-destination payloads, pure unicast)
//! spread a mailbox's bits over n times as many words, so rank-select walks
//! log2(n) more tree levels and a pending message costs n/8 bytes of bits:
//! measured on pure unicast, about 1.15 times the per-delivery cost of
//! private slabs at n = 5 and twice at n = 128. The protocols this engine
//! exists for broadcast.
//! A mailbox drops its leading all-zero words once they are half of it, and
//! starts over at the current position whenever it runs empty.

use core::fmt;
use core::mem;
use std::collections::VecDeque;

use crate::Envelope;

/// Fenwick (binary indexed) tree of live counts per 64-slot word: prefix
/// sums and rank-select in O(log words).
#[derive(Default)]
struct WordTree {
    tree: Vec<u32>,
}

impl WordTree {
    fn add(&mut self, word: usize, delta: i32) {
        let mut i = word + 1;
        while i <= self.tree.len() {
            self.tree[i - 1] = (self.tree[i - 1] as i32 + delta) as u32;
            i += i & i.wrapping_neg();
        }
    }

    /// Appends a word with count 0, keeping the tree consistent.
    fn push_zero(&mut self) {
        let i = self.tree.len() + 1; // 1-based position of the new node
        let lowbit = i & i.wrapping_neg();
        // Node i spans (i - lowbit, i]: its own empty word and the spans
        // of nodes i - 1, i - 2, i - 4, … down to i - lowbit / 2. Summing
        // those is O(1) on average; a sparse mailbox pushes many of these.
        let mut value = 0;
        let mut step = 1;
        while step < lowbit {
            value += self.tree[i - step - 1];
            step <<= 1;
        }
        self.tree.push(value);
    }

    /// Finds the word containing the live slot of rank `rank`; returns the
    /// word index and the remaining rank within it. `rank` must be less
    /// than the total count.
    fn select(&self, rank: usize) -> (usize, usize) {
        let len = self.tree.len();
        let mut pos = 0usize;
        let mut rem = rank;
        let mut pw = len.next_power_of_two();
        if pw > len {
            pw >>= 1;
        }
        while pw > 0 {
            let next = pos + pw;
            if next <= len && (self.tree[next - 1] as usize) <= rem {
                rem -= self.tree[next - 1] as usize;
                pos = next;
            }
            pw >>= 1;
        }
        (pos, rem)
    }

    /// Rebuilds from per-word counts in O(words).
    fn rebuild(&mut self, counts: impl Iterator<Item = u32>) {
        self.tree.clear();
        self.tree.extend(counts);
        let len = self.tree.len();
        for i in 1..=len {
            let parent = i + (i & i.wrapping_neg());
            if parent <= len {
                self.tree[parent - 1] += self.tree[i - 1];
            }
        }
    }

    fn clear(&mut self) {
        self.tree.clear();
    }
}

/// Index of the `rank`-th set bit of `word` (rank < popcount).
fn nth_set_bit(mut word: u64, mut rank: usize) -> usize {
    loop {
        let tz = word.trailing_zeros() as usize;
        if rank == 0 {
            return tz;
        }
        word &= word - 1;
        rank -= 1;
    }
}

/// The set bits of `word`, lowest first.
pub(crate) fn ones(mut word: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        if word == 0 {
            return None;
        }
        let bit = word.trailing_zeros() as usize;
        word &= word - 1;
        Some(bit)
    })
}

/// Entries per [`SendLog`] chunk — one chunk per mailbox word, so word `w`
/// of every mailbox and chunk `w` of the log describe the same 64 sends.
const CHUNK: usize = 64;

/// One distinct send and how many of its recipients have yet to take it.
struct Entry<M> {
    /// `None` once the last recipient took it.
    env: Option<Envelope<M>>,
    remaining: u32,
}

impl<M> Entry<M> {
    /// The envelope of an entry some mailbox still holds a live bit for.
    fn envelope(&self) -> &Envelope<M> {
        self.env.as_ref().expect("live bit points at a live entry")
    }
}

struct Chunk<M> {
    /// Up to [`CHUNK`] entries; emptied, and its allocation moved to the
    /// log's spares, once the chunk is full and every entry in it is taken.
    entries: Vec<Entry<M>>,
    /// Entries with `remaining > 0`.
    live: u32,
}

/// Every distinct message in flight, once, in global send order (see the
/// module docs).
struct SendLog<M> {
    /// `chunks[c]` holds positions `(first + c) * CHUNK ..`.
    chunks: VecDeque<Chunk<M>>,
    /// Chunk number of `chunks[0]`.
    first: usize,
    /// Position the next append gets.
    next: usize,
    /// Emptied allocations of fully taken chunks, for the next chunks.
    spare: Vec<Vec<Entry<M>>>,
}

impl<M> SendLog<M> {
    /// Whether sends of `M` may share entries: only when a clone is a
    /// bitwise copy (module docs, "Sharing rule").
    const SHARES: bool = !mem::needs_drop::<M>();

    fn new() -> Self {
        SendLog {
            chunks: VecDeque::new(),
            first: 0,
            next: 0,
            spare: Vec::new(),
        }
    }

    /// Appends `env` for one recipient and returns its position.
    fn append(&mut self, env: Envelope<M>) -> usize {
        let pos = self.next;
        self.next += 1;
        if pos.is_multiple_of(CHUNK) {
            let entries = self
                .spare
                .pop()
                .unwrap_or_else(|| Vec::with_capacity(CHUNK));
            self.chunks.push_back(Chunk { entries, live: 0 });
        }
        // A partly filled chunk is never released, so the back chunk is
        // the one `pos` falls in.
        let chunk = self.chunks.back_mut().expect("chunk pushed above");
        chunk.entries.push(Entry {
            env: Some(env),
            remaining: 1,
        });
        chunk.live += 1;
        pos
    }

    /// The newest entry and its position, if `env` may join it under the
    /// module docs' sharing rule (the destination's own bit aside).
    fn joinable(&mut self, env: &Envelope<M>) -> Option<(usize, &mut Entry<M>)>
    where
        M: PartialEq,
    {
        if !Self::SHARES {
            return None;
        }
        let entry = self.chunks.back_mut()?.entries.last_mut()?;
        (entry.env.as_ref() == Some(env)).then_some((self.next - 1, entry))
    }

    /// The entries of chunk number `chunk` (empty once fully taken).
    fn chunk(&self, chunk: usize) -> &[Entry<M>] {
        &self.chunks[chunk - self.first].entries
    }

    fn get(&self, pos: usize) -> &Envelope<M> {
        self.chunk(pos / CHUNK)[pos % CHUNK].envelope()
    }

    /// One recipient takes the entry at `pos`: the last one gets the
    /// envelope itself, the others a clone.
    fn take(&mut self, pos: usize) -> Envelope<M>
    where
        M: Clone,
    {
        self.depart(pos, |env, last| if last { env.take() } else { env.clone() })
            .expect("live bit points at a live entry")
    }

    /// One recipient gives up the entry at `pos` unread.
    fn forget(&mut self, pos: usize) {
        self.depart(pos, |env, last| {
            if last {
                *env = None;
            }
        });
    }

    /// Strikes one recipient off the entry at `pos` and hands its envelope
    /// to `f`, with whether that recipient was the last — in which case `f`
    /// must leave `None` behind. Empties the chunk when that leaves it full
    /// and fully taken, and pops emptied chunks off the head.
    fn depart<R>(&mut self, pos: usize, f: impl FnOnce(&mut Option<Envelope<M>>, bool) -> R) -> R {
        let chunk = &mut self.chunks[pos / CHUNK - self.first];
        let entry = &mut chunk.entries[pos % CHUNK];
        entry.remaining -= 1;
        let last = entry.remaining == 0;
        let out = f(&mut entry.env, last);
        if last {
            chunk.live -= 1;
            if chunk.live == 0 && chunk.entries.len() == CHUNK {
                chunk.entries.clear();
                self.spare.push(mem::take(&mut chunk.entries));
                while self.chunks.front().is_some_and(|c| c.entries.is_empty()) {
                    self.chunks.pop_front();
                    self.first += 1;
                }
            }
        }
        out
    }
}

/// What the logs of a [`Store`] hold, in entries.
#[cfg(test)]
#[derive(Debug)]
pub(crate) struct LogStats {
    /// Entries with recipients pending.
    pub(crate) live: usize,
    /// Slots of chunks not yet fully taken.
    pub(crate) in_use: usize,
    /// Slots of emptied allocations kept for the next chunks.
    pub(crate) spare: usize,
}

/// One destination's view of the [`SendLog`]: which positions it has
/// pending (see the module docs).
#[derive(Default)]
struct Mailbox {
    /// Live bit per log position; `words[w]` covers positions
    /// `(first_word + w) * 64 ..`. Stale while `live == 0`.
    words: Vec<u64>,
    /// Fenwick tree of live counts per word.
    tree: WordTree,
    first_word: usize,
    /// Number of live (pending) messages.
    live: usize,
}

impl Mailbox {
    /// Whether the message at `pos` is pending here.
    #[inline]
    fn contains(&self, pos: usize) -> bool {
        self.live > 0
            && (pos >> 6)
                .checked_sub(self.first_word)
                .and_then(|w| self.words.get(w))
                .is_some_and(|word| word >> (pos & 63) & 1 == 1)
    }

    /// Marks `pos` pending. Positions arrive in non-decreasing order.
    #[inline]
    fn set(&mut self, pos: usize) {
        if self.live == 0 {
            self.words.clear();
            self.tree.clear();
            self.first_word = pos >> 6;
        }
        let word = (pos >> 6) - self.first_word;
        while self.words.len() <= word {
            self.words.push(0);
            self.tree.push_zero();
        }
        self.words[word] |= 1u64 << (pos & 63);
        self.tree.add(word, 1);
        self.live += 1;
    }

    /// Word and bit of the live message with logical index `index`.
    #[inline]
    fn locate(&self, index: usize) -> (usize, usize) {
        assert!(
            index < self.live,
            "buffer index {index} out of range (len {})",
            self.live
        );
        let (word, rem) = self.tree.select(index);
        (word, nth_set_bit(self.words[word], rem))
    }

    fn position(&self, (word, bit): (usize, usize)) -> usize {
        ((self.first_word + word) << 6) | bit
    }

    /// Clears the live bit of logical index `index` and returns its
    /// position.
    #[inline]
    fn take(&mut self, index: usize) -> usize {
        let (word, bit) = self.locate(index);
        let pos = self.position((word, bit));
        self.words[word] &= !(1u64 << bit);
        self.tree.add(word, -1);
        self.live -= 1;
        if index == 0 && self.live > 0 {
            // The oldest message left, so the words before the new oldest
            // are all zero. Drop them once they are half the vector: the
            // O(words) rebuild is paid for by the words it removes.
            let zeros = if self.words[word] != 0 {
                word
            } else {
                self.tree.select(0).0
            };
            if zeros > 0 && zeros * 2 >= self.words.len() {
                self.words.drain(..zeros);
                self.first_word += zeros;
                self.tree.rebuild(self.words.iter().map(|w| w.count_ones()));
            }
        }
        pos
    }

    /// `(chunk number, live bits)` of every word with a pending message,
    /// oldest first.
    fn live_words(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        let words = if self.live > 0 { &self.words[..] } else { &[] };
        words
            .iter()
            .enumerate()
            .filter(|(_, &word)| word != 0)
            .map(|(w, &word)| (self.first_word + w, word))
    }
}

/// The in-flight messages of a whole system: one [`Mailbox`] per
/// destination over the shared [`SendLog`] (see the module docs) — or, for
/// a payload type that never shares, over a log of the destination's own,
/// which keeps its bits dense.
pub(crate) struct Store<M> {
    logs: Vec<SendLog<M>>,
    boxes: Vec<Mailbox>,
}

impl<M> Store<M> {
    /// An empty store for `n` destinations.
    pub(crate) fn new(n: usize) -> Self {
        let logs = if SendLog::<M>::SHARES { 1 } else { n };
        Store {
            logs: (0..logs).map(|_| SendLog::new()).collect(),
            boxes: (0..n).map(|_| Mailbox::default()).collect(),
        }
    }

    /// The log `to`'s mailbox indexes, and the mailbox.
    fn parts(&self, to: usize) -> (&SendLog<M>, &Mailbox) {
        let log = if SendLog::<M>::SHARES { 0 } else { to };
        (&self.logs[log], &self.boxes[to])
    }

    fn parts_mut(&mut self, to: usize) -> (&mut SendLog<M>, &mut Mailbox) {
        let log = if SendLog::<M>::SHARES { 0 } else { to };
        (&mut self.logs[log], &mut self.boxes[to])
    }

    /// Number of messages pending at `to`.
    pub(crate) fn len(&self, to: usize) -> usize {
        self.boxes[to].live
    }

    /// Appends `env` for `to` alone.
    fn push(&mut self, to: usize, env: Envelope<M>) {
        let (log, mailbox) = self.parts_mut(to);
        mailbox.set(log.append(env));
    }

    /// Stores a send to `to`, sharing the log's newest entry when the
    /// module docs' sharing rule allows; returns `to`'s new length.
    pub(crate) fn send(&mut self, to: usize, env: Envelope<M>) -> usize
    where
        M: PartialEq,
    {
        let (log, mailbox) = self.parts_mut(to);
        let pos = match log.joinable(&env) {
            Some((pos, entry)) if !mailbox.contains(pos) => {
                entry.remaining += 1;
                pos
            }
            _ => log.append(env),
        };
        mailbox.set(pos);
        mailbox.live
    }

    /// Removes and returns the message at logical `index` of `to`.
    pub(crate) fn take(&mut self, to: usize, index: usize) -> Envelope<M>
    where
        M: Clone,
    {
        let (log, mailbox) = self.parts_mut(to);
        log.take(mailbox.take(index))
    }

    /// The message at logical `index` of `to`, without removal.
    fn get(&self, to: usize, index: usize) -> &Envelope<M> {
        let (log, mailbox) = self.parts(to);
        log.get(mailbox.position(mailbox.locate(index)))
    }

    /// The messages pending at `to`, oldest first.
    pub(crate) fn pending(&self, to: usize) -> impl Iterator<Item = &Envelope<M>> {
        let (log, mailbox) = self.parts(to);
        mailbox.live_words().flat_map(move |(chunk, word)| {
            let entries = log.chunk(chunk);
            ones(word).map(move |bit| entries[bit].envelope())
        })
    }

    /// Drops everything pending at `to`, releasing its share of each log
    /// entry; returns how many messages that was.
    pub(crate) fn clear(&mut self, to: usize) -> usize {
        let (log, mailbox) = self.parts_mut(to);
        for (chunk, word) in mailbox.live_words() {
            for bit in ones(word) {
                log.forget(chunk * CHUNK + bit);
            }
        }
        mem::replace(&mut mailbox.live, 0)
    }

    #[cfg(test)]
    pub(crate) fn log_stats(&self) -> LogStats {
        let chunks = || self.logs.iter().flat_map(|log| &log.chunks);
        let spares = self.logs.iter().flat_map(|log| &log.spare);
        LogStats {
            live: chunks().map(|c| c.live as usize).sum(),
            in_use: chunks().map(|c| c.entries.len()).sum(),
            spare: spares.map(Vec::capacity).sum(),
        }
    }
}

/// The message buffer the message system maintains for one process: messages
/// sent to it but not yet received (§2.1).
///
/// `receive` in the paper removes *some* message nondeterministically; here
/// the [scheduler](crate::scheduler) resolves the nondeterminism by picking
/// an index, and [`Buffer::take`] removes it. Arrival order is preserved so
/// FIFO schedulers can model orderly channels, while random schedulers index
/// freely.
///
/// A standalone buffer is a one-destination store — the same send log and
/// mailbox the engine runs, with nobody to share entries with.
pub struct Buffer<M> {
    pub(crate) store: Store<M>,
    /// Total number of envelopes ever enqueued, for metrics.
    enqueued: u64,
}

impl<M> Buffer<M> {
    /// Creates an empty buffer.
    #[must_use]
    pub fn new() -> Self {
        Buffer {
            store: Store::new(1),
            enqueued: 0,
        }
    }

    /// Number of messages currently awaiting delivery.
    #[must_use]
    pub fn len(&self) -> usize {
        self.store.len(0)
    }

    /// Whether the buffer holds no deliverable messages.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of envelopes ever placed in this buffer.
    #[must_use]
    pub fn total_enqueued(&self) -> u64 {
        self.enqueued
    }

    /// Places an envelope at the back of the buffer (the paper's
    /// instantaneous `send`).
    pub fn push(&mut self, env: Envelope<M>) {
        self.enqueued += 1;
        self.store.push(0, env);
    }

    /// Removes and returns the envelope at `index`, preserving the relative
    /// order of the rest (so index 0 is always the oldest message).
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    pub fn take(&mut self, index: usize) -> Envelope<M>
    where
        M: Clone,
    {
        self.store.take(0, index)
    }

    /// The live message at logical `index` (0 = oldest), without removal.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    #[must_use]
    pub fn get(&self, index: usize) -> &Envelope<M> {
        self.store.get(0, index)
    }

    /// Iterates the pending envelopes, oldest first. Schedulers use this to
    /// pick a delivery index; they must not rely on payload contents of
    /// Byzantine senders.
    pub fn iter(&self) -> impl Iterator<Item = &Envelope<M>> {
        self.store.pending(0)
    }

    /// Drops all pending messages (used when a process halts: deliveries to
    /// it can never affect the run again).
    pub fn clear(&mut self) {
        self.store.clear(0);
    }
}

impl<M> Default for Buffer<M> {
    fn default() -> Self {
        Buffer::new()
    }
}

impl<M: fmt::Debug> fmt::Debug for Buffer<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Buffer")
            .field("pending", &self.iter().collect::<Vec<_>>())
            .field("enqueued", &self.total_enqueued())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ProcessId;

    fn env(from: usize, m: u32) -> Envelope<u32> {
        Envelope::new(ProcessId::new(from), m)
    }

    #[test]
    fn push_take_preserves_order() {
        let mut b = Buffer::new();
        b.push(env(0, 10));
        b.push(env(1, 11));
        b.push(env(2, 12));
        assert_eq!(b.len(), 3);

        let middle = b.take(1);
        assert_eq!(middle.msg, 11);
        assert_eq!(b.get(0).msg, 10);
        assert_eq!(b.get(1).msg, 12);
        assert_eq!(b.iter().map(|e| e.msg).collect::<Vec<_>>(), vec![10, 12]);
    }

    #[test]
    fn counts_total_enqueued_across_takes() {
        let mut b = Buffer::new();
        for i in 0..5 {
            b.push(env(0, i));
        }
        while !b.is_empty() {
            b.take(0);
        }
        assert_eq!(b.total_enqueued(), 5);
        assert!(b.is_empty());
    }

    #[test]
    fn clear_empties_but_keeps_stats() {
        let mut b = Buffer::new();
        b.push(env(0, 1));
        b.push(env(0, 2));
        b.clear();
        assert!(b.is_empty());
        assert_eq!(b.total_enqueued(), 2);
    }

    #[test]
    #[should_panic]
    fn take_out_of_bounds_panics() {
        let mut b: Buffer<u32> = Buffer::new();
        b.take(0);
    }

    /// Cross-checks the slab against the obviously correct `Vec::remove`
    /// model across a long randomized push/take interleaving — including
    /// runs long enough to trigger compaction many times over.
    #[test]
    fn matches_vec_remove_model_under_random_workload() {
        let mut rng = crate::SimRng::seed(0xB0FF);
        let mut b = Buffer::new();
        let mut model: Vec<u32> = Vec::new();
        let mut next = 0u32;
        for _ in 0..20_000 {
            let push = model.is_empty() || rng.index(3) > 0;
            if push {
                b.push(env(0, next));
                model.push(next);
                next += 1;
            } else {
                let i = rng.index(model.len());
                assert_eq!(b.take(i).msg, model.remove(i));
            }
            assert_eq!(b.len(), model.len());
            if !model.is_empty() {
                let probe = rng.index(model.len());
                assert_eq!(b.get(probe).msg, model[probe]);
            }
        }
        assert_eq!(b.iter().map(|e| e.msg).collect::<Vec<_>>(), model);
        assert_eq!(b.total_enqueued(), u64::from(next));
    }

    #[test]
    fn interleaved_takes_hit_every_logical_position() {
        let mut b = Buffer::new();
        for i in 0..300 {
            b.push(env(0, i));
        }
        // Take from the middle repeatedly: ranks shift exactly like remove.
        let mut model: Vec<u32> = (0..300).collect();
        for step in 0..250 {
            let i = (step * 7) % model.len();
            assert_eq!(b.take(i).msg, model.remove(i), "step {step}");
        }
        assert_eq!(b.iter().map(|e| e.msg).collect::<Vec<_>>(), model);
    }
}

#[cfg(test)]
mod store_tests {
    use std::cell::Cell;
    use std::rc::Rc;

    use super::*;
    use crate::{ProcessId, SimRng};

    fn env<M>(from: usize, msg: M) -> Envelope<M> {
        Envelope::new(ProcessId::new(from), msg)
    }

    /// What `to` has pending, oldest first, as `(from, msg)`.
    fn pending<M: Clone>(store: &Store<M>, to: usize) -> Vec<(usize, M)> {
        store
            .pending(to)
            .map(|e| (e.from.index(), e.msg.clone()))
            .collect()
    }

    /// The retention bound of the module docs, checked against the lengths
    /// the caller tracks.
    fn assert_bound<M>(store: &Store<M>, n: usize) {
        let log = store.log_stats();
        let in_flight: usize = (0..n).map(|d| store.len(d)).sum();
        assert!(log.live <= in_flight, "{log:?}, {in_flight} msgs");
        let logs = store.logs.len();
        assert!(
            log.in_use <= CHUNK * (log.live + logs),
            "{log:?}, {logs} logs"
        );
    }

    #[test]
    fn broadcast_is_stored_once_and_taken_by_each_destination() {
        let n = 5;
        let mut store: Store<u32> = Store::new(n);
        for to in 0..n {
            assert_eq!(store.send(to, env(2, 7)), 1);
        }
        let log = store.log_stats();
        assert_eq!((log.live, log.in_use), (1, 1), "one entry for the n sends");
        for to in 0..n {
            assert_eq!(store.take(to, 0), env(2, 7));
        }
        assert_eq!(store.log_stats().live, 0);
    }

    /// The n-destination store against one `Vec::remove` model per
    /// destination: broadcasts, unicasts, repeats to one destination, takes
    /// at random ranks and whole-buffer clears, with payloads drawn from a
    /// small alphabet so equal sends recur across steps and senders.
    /// Returns how many broadcasts ended up in at most two entries.
    fn check_against_model<M: Clone + PartialEq + fmt::Debug>(wrap: fn(u32) -> M) -> usize {
        const N: usize = 7;
        let mut rng = SimRng::seed(0x5708E);
        let mut store: Store<M> = Store::new(N);
        let mut model: Vec<Vec<(usize, M)>> = vec![Vec::new(); N];
        let send = |store: &mut Store<M>, model: &mut Vec<Vec<_>>, from, to: usize, msg: &M| {
            model[to].push((from, msg.clone()));
            assert_eq!(store.send(to, env(from, msg.clone())), model[to].len());
        };
        let mut shared = 0usize;
        for _ in 0..30_000 {
            let (from, msg) = (rng.index(N), wrap(rng.index(3) as u32));
            match rng.index(12) {
                0..=2 => {
                    let before = store.log_stats().live;
                    for to in 0..N {
                        send(&mut store, &mut model, from, to, &msg);
                    }
                    shared += usize::from(store.log_stats().live <= before + 2);
                }
                3..=4 => send(&mut store, &mut model, from, rng.index(N), &msg),
                5 => {
                    let to = rng.index(N);
                    send(&mut store, &mut model, from, to, &msg);
                    send(&mut store, &mut model, from, to, &msg);
                }
                6..=10 => {
                    let to = rng.index(N);
                    if !model[to].is_empty() {
                        let index = rng.index(model[to].len());
                        let got = store.take(to, index);
                        assert_eq!((got.from.index(), got.msg), model[to].remove(index));
                    }
                }
                _ => {
                    if rng.index(8) == 0 {
                        let to = rng.index(N);
                        assert_eq!(store.clear(to), model[to].len());
                        model[to].clear();
                    }
                }
            }
            for (to, want) in model.iter().enumerate() {
                assert_eq!(store.len(to), want.len());
                assert_eq!(&pending(&store, to), want, "destination {to}");
            }
            assert_bound(&store, N);
        }
        shared
    }

    #[test]
    fn matches_per_destination_vec_remove_model() {
        let shared = check_against_model::<u32>(|m| m);
        assert!(shared > 1_000, "broadcasts must share entries ({shared})");
    }

    /// The same workload with a payload that owns heap memory: nothing is
    /// shared (one log per destination), everything else holds.
    #[test]
    fn heap_payload_matches_the_model_without_sharing() {
        assert_eq!(check_against_model::<Box<u32>>(Box::new), 0);
    }

    /// Equal sends from different steps and from different senders: whether
    /// or not they end up sharing an entry, every destination sees the
    /// order and multiplicity it was sent.
    #[test]
    fn equal_sends_across_steps_and_senders_keep_order_and_multiplicity() {
        let mut store: Store<u32> = Store::new(3);
        // Step 1: p0 broadcasts 7.
        for to in 0..3 {
            store.send(to, env(0, 7));
        }
        // Step 2: p0 sends 7 to p0 again, which still holds the first copy
        // — a repeat to the same destination appends.
        store.send(0, env(0, 7));
        assert_eq!(store.log_stats().live, 2);
        assert_eq!(pending(&store, 0), vec![(0, 7), (0, 7)]);
        // Step 3: p1 takes its copy; p0's next equal send to p1 joins the
        // newest entry, which p1 does not cover (it never held that one).
        assert_eq!(store.take(1, 0), env(0, 7));
        store.send(1, env(0, 7));
        assert_eq!(store.log_stats().live, 2);
        assert_eq!(pending(&store, 1), vec![(0, 7)]);
        // Step 4: the same payload from another sender never shares.
        for to in 0..3 {
            store.send(to, env(1, 7));
        }
        assert_eq!(store.log_stats().live, 3);
        assert_eq!(pending(&store, 0), vec![(0, 7), (0, 7), (1, 7)]);
        assert_eq!(pending(&store, 1), vec![(0, 7), (1, 7)]);
        assert_eq!(pending(&store, 2), vec![(0, 7), (1, 7)]);
        // Step 5: an intervening send ends the run of equal sends.
        store.send(0, env(2, 1));
        store.send(1, env(2, 2));
        store.send(2, env(2, 1));
        assert_eq!(store.log_stats().live, 6);
        assert_eq!(pending(&store, 2), vec![(0, 7), (1, 7), (2, 1)]);
        // Every copy comes out, in order, exactly once.
        for (to, want) in [(0, 4), (1, 3), (2, 3)] {
            let all = pending(&store, to);
            assert_eq!(all.len(), want);
            for (from, msg) in all {
                assert_eq!(store.take(to, 0), env(from, msg));
            }
        }
        assert_eq!(store.log_stats().live, 0);
    }

    /// A message that knows how many copies of it are alive.
    #[derive(Debug)]
    struct Tracked {
        bytes: Vec<u8>,
        alive: Rc<Cell<usize>>,
    }

    impl Tracked {
        fn new(bytes: Vec<u8>, alive: &Rc<Cell<usize>>) -> Self {
            alive.set(alive.get() + 1);
            Tracked {
                bytes,
                alive: Rc::clone(alive),
            }
        }
    }

    impl Clone for Tracked {
        fn clone(&self) -> Self {
            Tracked::new(self.bytes.clone(), &self.alive)
        }
    }

    impl Drop for Tracked {
        fn drop(&mut self) {
            self.alive.set(self.alive.get() - 1);
        }
    }

    impl PartialEq for Tracked {
        fn eq(&self, other: &Self) -> bool {
            self.bytes == other.bytes
        }
    }

    /// A heap-carrying payload broadcast the way `Ctx::broadcast` does it
    /// (one clone per destination): never more copies alive than
    /// recipients, each recipient ends up owning one, none is leaked.
    #[test]
    fn heap_payload_round_trips_with_one_live_clone_per_recipient() {
        const N: usize = 6;
        let alive = Rc::new(Cell::new(0));
        let mut store: Store<Tracked> = Store::new(N);
        {
            let original = Tracked::new(vec![0xAB; 4096], &alive);
            for to in 0..N {
                store.send(to, env(1, original.clone()));
                assert!(alive.get() <= to + 2, "the original plus one per send");
            }
        }
        assert_eq!(alive.get(), N);
        let mut received = Vec::new();
        for to in (0..N).rev() {
            received.push(store.take(to, 0));
            assert_eq!(alive.get(), N, "a take moves or clones, never both");
        }
        assert!(received.iter().all(|e| e.msg.bytes == [0xAB; 4096]));
        drop(received);
        assert_eq!(alive.get(), 0);

        // Dropped unread (the destination halted): nothing leaks either.
        for to in 0..N {
            store.send(to, env(1, Tracked::new(vec![1, 2, 3], &alive)));
        }
        for to in 0..N {
            assert_eq!(store.clear(to), 1);
        }
        assert_eq!(alive.get(), 0);
    }
}
