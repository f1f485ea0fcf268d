//! The per-node write-ahead log: crash recovery for the socket runtime.
//!
//! A node's entire execution is a deterministic function of its
//! configuration and the sequence of messages delivered to its state
//! machine (coin flips included — the RNG is seeded and its state is
//! checkpointed). The WAL therefore records exactly that sequence: one
//! [`WalRecord::Boot`] header, then one [`WalRecord::Delivery`] per
//! accepted frame (its payload is the frame's: one or more messages back
//! to back) and per round of self-sends, with an optional
//! [`WalRecord::Snapshot`] checkpoint so replay need not start from
//! genesis.
//!
//! The recovery invariant is **log-before-send**, held per *group*: the
//! node core frames every delivery of one event-loop tick into one buffer
//! and appends it ([`Wal::append_group`]) *before* it steps any of them,
//! and the frames those steps cause exist only once the tick is sealed. A
//! node restarted from its log re-derives the exact state it had durably
//! reached, and re-produces byte-identical frames under the same sequence
//! numbers — pure retransmission, which the receiver's seq-dedup layer
//! absorbs. A crashed-and-recovered node can therefore never equivocate:
//! it is benign, not Byzantine, exactly the paper's fail-stop model
//! extended with rejoin.
//!
//! Which messages share an outgoing frame depends on where a tick ended,
//! so tick boundaries are a fact of the log: a body-less
//! [`WalRecord::Seal`] marks each one, written at the head of the *next*
//! tick's first group (so it costs no write of its own). The end of the
//! log seals implicitly — safe, because a tick whose seal marker is
//! missing either never sealed (it released no frame) or sealed exactly
//! there.
//!
//! # On-disk format
//!
//! The log is a flat sequence of records, each
//!
//! ```text
//! [len: u32 LE] [crc32: u32 LE] [body: len bytes]
//! ```
//!
//! where the checksum (CRC-32/ISO-HDLC, the zlib polynomial) covers the
//! body, and the body is the [`Wire`] encoding of a [`WalRecord`]. A group
//! of records is appended with a single `write(2)`, so a SIGKILL leaves a
//! *prefix* of the group ending in at most one torn record — none of
//! which was stepped or acknowledged, since the append had not returned.
//! Durability is against *process* death (the kernel holds the page cache
//! once `write` returns); deployments that must survive power loss would
//! add an `fdatasync` per group at the same call site.
//!
//! The boot header carries a format version ([`WAL_VERSION`]). A log
//! written before frames were grouped per tick has none (it reads as
//! version 0) and no seals, while its per-message frames are already on
//! the wire: replaying it under this grouping would renumber them.
//! Version 1 checkpoints also carried the link-fault injector's RNG
//! state, from when an injected drop decided what a frame held; this
//! build's decoder reads such a record as damage. The node core refuses
//! every other version with `InvalidData`, before it judges damage.
//!
//! # Damage classification
//!
//! [`Wal::open`] scans until the first bad record and *classifies* the
//! damage ([`WalDamage`]) instead of blindly truncating:
//!
//! * **torn tail** — the bad region is an *incomplete* final record (a
//!   header shorter than 8 bytes, or a plausible length whose body runs
//!   past end-of-file). This is the only shape a crash mid-append can
//!   produce; the record never reached durability, so truncating it and
//!   replaying the clean prefix is safe. [`Wal::open`] does exactly that.
//! * **mid-log damage** — a *fully framed* record fails its checksum,
//!   decodes to garbage, or announces a hostile length. A single
//!   `write(2)` cannot leave this behind: it is bit rot, a short write
//!   that later appends buried, or tampering. Everything from the damage
//!   onward is untrusted **and the prefix watermark is a lie** — the node
//!   durably acknowledged deliveries the surviving prefix does not
//!   contain, so replaying the prefix and rejoining would re-send
//!   different bytes under used sequence numbers (equivocation). The log
//!   is left untouched as evidence and the caller must refuse to rejoin
//!   from it (see the node core's amnesiac mode).
//!
//! A *missing* log (the third unsafe shape: lost rename, deleted file) is
//! indistinguishable from a fresh boot down here; the node layer detects
//! it by being told to expect history.
//!
//! All file I/O goes through the [`Storage`] trait so the fuzzer can
//! inject the damage above deterministically; see the [`storage`] module.
//!
//! [`storage`]: crate::storage

use std::io;
use std::path::{Path, PathBuf};

use simnet::{ProcessId, Value, Wire, WireError, WireReader};

use crate::storage::{RealStorage, Storage};

/// Hard cap on one record body; far above any frame the runtime produces
/// (snapshots of big systems included), so a corrupt length prefix is
/// rejected rather than allocated for.
pub const MAX_RECORD_LEN: usize = 1 << 24;

/// CRC-32/ISO-HDLC lookup table (reflected 0xEDB88320 polynomial).
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// The CRC-32/ISO-HDLC checksum of `bytes` (zlib's `crc32`).
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = !0u32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// The log format this build writes and replays: version 2 groups a
/// tick's messages into one frame per peer, marks tick boundaries with
/// [`WalRecord::Seal`], and checkpoints no link-fault state. Version 1
/// checkpointed the fault injector's RNG; version 0 is the unversioned
/// format before seals.
pub const WAL_VERSION: u64 = 2;

/// The log header: enough to refuse replaying a log onto the wrong node,
/// the wrong cluster configuration, or under the wrong frame grouping.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BootRecord {
    /// The process this log belongs to.
    pub node: ProcessId,
    /// System size `n` at boot.
    pub n: usize,
    /// The node's RNG seed.
    pub seed: u64,
    /// The log's format version (see [`WAL_VERSION`]).
    pub version: u64,
}

impl Wire for BootRecord {
    fn encode(&self, out: &mut Vec<u8>) {
        self.node.encode(out);
        self.n.encode(out);
        self.seed.encode(out);
        self.version.encode(out);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(BootRecord {
            node: Wire::decode(r)?,
            n: Wire::decode(r)?,
            seed: Wire::decode(r)?,
            // A header ends its record; one that stops at the seed was
            // written before the format carried a version.
            version: match r.remaining() {
                0 => 0,
                _ => Wire::decode(r)?,
            },
        })
    }
}

/// One accepted frame's — or one self-send round's — messages, delivered
/// to the state machine in payload order; records are in delivery order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeliveryRecord {
    /// Who the messages came from (possibly this node itself).
    pub from: ProcessId,
    /// The wire sequence number for remote deliveries — replay restores
    /// the receiver's per-peer high-water mark from it — or `None` for
    /// self-deliveries, which never touch a socket.
    pub seq: Option<u64>,
    /// One or more encoded messages back to back: the frame's payload
    /// exactly as it arrived (or as produced locally for self-sends).
    pub payload: Vec<u8>,
}

impl Wire for DeliveryRecord {
    fn encode(&self, out: &mut Vec<u8>) {
        self.from.encode(out);
        self.seq.encode(out);
        // `Vec<u8>`'s own encoding, without its per-byte loop.
        self.payload.len().encode(out);
        out.extend_from_slice(&self.payload);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(DeliveryRecord {
            from: Wire::decode(r)?,
            seq: Wire::decode(r)?,
            payload: Wire::decode(r)?,
        })
    }
}

/// A full node checkpoint: everything needed to resume without replaying
/// the deliveries that precede it.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct SnapshotRecord {
    /// Local step counter at the checkpoint.
    pub step: u64,
    /// The RNG's original seed.
    pub rng_seed: u64,
    /// The RNG's 256-bit state (always 4 words).
    pub rng_state: Vec<u64>,
    /// The protocol state machine's own [`simnet::Process::snapshot`].
    pub process: Vec<u8>,
    /// Next outbound sequence number per peer.
    pub out_seq: Vec<u64>,
    /// Next expected inbound sequence number per peer (the durable
    /// delivered high-water marks).
    pub next_seq: Vec<u64>,
    /// Per-peer unacked outbound backlog: `(seq, payload)` pairs that must
    /// be offered for retransmission after restart.
    pub backlogs: Vec<Vec<(u64, Vec<u8>)>>,
    /// Pending self-deliveries (encoded messages the process sent to
    /// itself that had not yet been consumed at the checkpoint).
    pub self_queue: Vec<Vec<u8>>,
    /// Whether this checkpoint was installed by quorum state transfer
    /// rather than derived from the node's own history. An adopted node
    /// is a *learner*: it reports `adopted_decision` and serves state,
    /// but never sends protocol messages again (its own history is gone,
    /// so a fresh `on_start` could equivocate at the protocol level).
    /// The flag survives further restarts so the node resumes as a
    /// learner instead of replaying adopted state as if it were its own.
    pub adopted: bool,
    /// The decision confirmed by `f + 1` matching peers at adoption time
    /// (`None` when the quorum had not decided a one-shot value, e.g.
    /// for long-lived replicated-log processes).
    pub adopted_decision: Option<Value>,
}

impl Wire for SnapshotRecord {
    fn encode(&self, out: &mut Vec<u8>) {
        self.step.encode(out);
        self.rng_seed.encode(out);
        self.rng_state.encode(out);
        self.process.encode(out);
        self.out_seq.encode(out);
        self.next_seq.encode(out);
        self.backlogs.encode(out);
        self.self_queue.encode(out);
        self.adopted.encode(out);
        self.adopted_decision.encode(out);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(SnapshotRecord {
            step: Wire::decode(r)?,
            rng_seed: Wire::decode(r)?,
            rng_state: Wire::decode(r)?,
            process: Wire::decode(r)?,
            out_seq: Wire::decode(r)?,
            next_seq: Wire::decode(r)?,
            backlogs: Wire::decode(r)?,
            self_queue: Wire::decode(r)?,
            adopted: Wire::decode(r)?,
            adopted_decision: Wire::decode(r)?,
        })
    }
}

/// One unit of the log.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WalRecord {
    /// Log header; always the first record.
    Boot(BootRecord),
    /// One delivered message.
    Delivery(DeliveryRecord),
    /// A checkpoint superseding everything before it.
    Snapshot(SnapshotRecord),
    /// A tick boundary: everything the deliveries since the previous
    /// boundary staged was sealed into frames here (see the module docs).
    Seal,
}

impl Wire for WalRecord {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            WalRecord::Boot(b) => {
                out.push(0);
                b.encode(out);
            }
            WalRecord::Delivery(d) => {
                out.push(1);
                d.encode(out);
            }
            WalRecord::Snapshot(s) => {
                out.push(2);
                s.encode(out);
            }
            WalRecord::Seal => out.push(3),
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let offset = r.offset();
        match r.byte()? {
            0 => Ok(WalRecord::Boot(Wire::decode(r)?)),
            1 => Ok(WalRecord::Delivery(Wire::decode(r)?)),
            2 => Ok(WalRecord::Snapshot(Wire::decode(r)?)),
            3 => Ok(WalRecord::Seal),
            _ => Err(WireError::Invalid {
                what: "wal record tag",
                offset,
            }),
        }
    }
}

/// How the log's intact prefix ended — the recovery-safety judgement.
/// See the module docs for why the distinction matters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum WalDamage {
    /// The log is clean: every byte belongs to an intact record.
    #[default]
    None,
    /// The final record is incomplete — the only shape a crash
    /// mid-append leaves. Safe: the torn bytes were truncated and the
    /// prefix replays.
    TornTail {
        /// Bytes truncated from the torn tail.
        lost: u64,
    },
    /// A fully framed record is corrupt (bad checksum, hostile length,
    /// or undecodable body). Unsafe: the durable watermark cannot be
    /// trusted, the file is left untouched as evidence, and the caller
    /// must not rejoin from this log.
    MidLog {
        /// Byte offset of the first corrupt record.
        offset: u64,
    },
}

impl WalDamage {
    /// Whether recovering from this log would risk equivocation — i.e.
    /// the node must declare amnesia instead of replaying.
    #[must_use]
    pub fn is_unsafe(&self) -> bool {
        matches!(self, WalDamage::MidLog { .. })
    }
}

/// What [`Wal::open`] found on disk.
#[derive(Debug, Default)]
pub struct Recovered {
    /// Every intact record before the first damage, in log order.
    pub records: Vec<WalRecord>,
    /// Bytes discarded from a torn tail (0 otherwise; mid-log damage is
    /// never discarded).
    pub tail_lost: u64,
    /// How the intact prefix ended.
    pub damage: WalDamage,
}

impl Recovered {
    /// The boot header, if the log has one.
    #[must_use]
    pub fn boot(&self) -> Option<&BootRecord> {
        self.records.iter().find_map(|r| match r {
            WalRecord::Boot(b) => Some(b),
            _ => None,
        })
    }

    /// The latest snapshot, if any, and the records logged after it (the
    /// whole log when no snapshot exists), in order: the deliveries to
    /// replay and the seals between them.
    #[must_use]
    pub fn replay_plan(&self) -> (Option<&SnapshotRecord>, &[WalRecord]) {
        let last_snap = self
            .records
            .iter()
            .rposition(|r| matches!(r, WalRecord::Snapshot(_)));
        let snapshot = last_snap.map(|i| match &self.records[i] {
            WalRecord::Snapshot(s) => s,
            _ => unreachable!(),
        });
        (snapshot, &self.records[last_snap.map_or(0, |i| i + 1)..])
    }
}

/// An open write-ahead log, positioned for appending. All I/O is routed
/// through a [`Storage`] implementation ([`RealStorage`] unless
/// [`Wal::open_with`] injects another).
#[derive(Debug)]
pub struct Wal {
    storage: Box<dyn Storage>,
    path: PathBuf,
}

/// Appends the on-disk bytes of one record to `out` — how a group is
/// built up for [`Wal::append_group`].
pub(crate) fn frame_into(out: &mut Vec<u8>, record: &WalRecord) {
    let start = out.len();
    out.extend_from_slice(&[0; 8]);
    record.encode(out);
    let body = &out[start + 8..];
    let (len, crc) = (body.len() as u32, crc32(body));
    out[start..start + 4].copy_from_slice(&len.to_le_bytes());
    out[start + 4..start + 8].copy_from_slice(&crc.to_le_bytes());
}

/// Scans `bytes`, returning the intact records and the offset of the
/// first torn or corrupt record (== `bytes.len()` for a clean log).
fn scan(bytes: &[u8]) -> (Vec<WalRecord>, usize) {
    let mut records = Vec::new();
    let mut pos = 0usize;
    while bytes.len() - pos >= 8 {
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().unwrap());
        if len > MAX_RECORD_LEN || bytes.len() - pos - 8 < len {
            break; // torn tail or garbage length
        }
        let body = &bytes[pos + 8..pos + 8 + len];
        if crc32(body) != crc {
            break; // corrupt record: nothing after it can be trusted
        }
        match WalRecord::from_bytes(body) {
            Ok(record) => records.push(record),
            Err(_) => break, // checksummed but malformed: treat as corrupt
        }
        pos += 8 + len;
    }
    (records, pos)
}

/// Classifies the bad region starting at `pos`: an incomplete final
/// record is a torn tail (the only shape a crash mid-append produces — a
/// partial `write(2)` persists a strict prefix of one record); anything
/// fully framed but invalid is mid-log corruption, wherever it sits.
fn classify(bytes: &[u8], pos: usize) -> WalDamage {
    let avail = bytes.len() - pos;
    if avail == 0 {
        return WalDamage::None;
    }
    if avail < 8 {
        return WalDamage::TornTail { lost: avail as u64 };
    }
    let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
    if len <= MAX_RECORD_LEN && avail - 8 < len {
        return WalDamage::TornTail { lost: avail as u64 };
    }
    WalDamage::MidLog { offset: pos as u64 }
}

impl Wal {
    /// Opens (creating if absent) the log at `path` through the real
    /// filesystem, recovering every intact record. A torn tail is
    /// truncated so appends extend a clean prefix; mid-log corruption is
    /// preserved and reported via [`Recovered::damage`] — the caller
    /// must check it before trusting the records.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn open(path: impl AsRef<Path>) -> io::Result<(Wal, Recovered)> {
        Wal::open_with(path, Box::new(RealStorage::new()))
    }

    /// [`Wal::open`] through an arbitrary [`Storage`] layer — the fault
    /// injection seam.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn open_with(
        path: impl AsRef<Path>,
        mut storage: Box<dyn Storage>,
    ) -> io::Result<(Wal, Recovered)> {
        let path = path.as_ref().to_path_buf();
        let bytes = storage.open(&path)?;
        let (records, good) = scan(&bytes);
        let damage = classify(&bytes, good);
        let mut tail_lost = 0;
        if let WalDamage::TornTail { lost } = damage {
            // Safe to repair: the torn record never reached durability.
            storage.truncate(good as u64)?;
            tail_lost = lost;
        }
        Ok((
            Wal { storage, path },
            Recovered {
                records,
                tail_lost,
                damage,
            },
        ))
    }

    /// Appends one record: a group of one.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn append(&mut self, record: &WalRecord) -> io::Result<()> {
        let mut framed = Vec::new();
        frame_into(&mut framed, record);
        self.append_group(&framed)
    }

    /// Appends a group of records framed back to back (by `frame_into`)
    /// with a single `write(2)`: a crash leaves a prefix of the group, so
    /// nothing in it may be acted on before this returns — which it does
    /// only once the kernel owns the bytes, the durability point of
    /// log-before-send.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub(crate) fn append_group(&mut self, framed: &[u8]) -> io::Result<()> {
        self.storage.append(framed)
    }

    /// Rewrites the log as `boot` + `snapshot` atomically: stage to a
    /// sibling temp file, data-sync it, rename over the log, then sync
    /// the parent directory so the rename itself is durable (without the
    /// directory sync a compaction that survived `sync_data` can still
    /// vanish wholesale on power loss — leaving exactly the missing-log
    /// amnesia case).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn compact(&mut self, boot: &BootRecord, snapshot: &SnapshotRecord) -> io::Result<()> {
        let mut out = Vec::new();
        frame_into(&mut out, &WalRecord::Boot(boot.clone()));
        frame_into(&mut out, &WalRecord::Snapshot(snapshot.clone()));
        self.storage.stage_replacement(&out)?;
        self.storage.commit_replacement()?;
        self.storage.sync_dir()
    }

    /// The log's path.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn boot() -> WalRecord {
        WalRecord::Boot(BootRecord {
            node: ProcessId::new(2),
            n: 5,
            seed: 77,
            version: WAL_VERSION,
        })
    }

    fn frame_record(record: &WalRecord) -> Vec<u8> {
        let mut out = Vec::new();
        frame_into(&mut out, record);
        out
    }

    fn delivery(from: usize, seq: Option<u64>, payload: &[u8]) -> WalRecord {
        WalRecord::Delivery(DeliveryRecord {
            from: ProcessId::new(from),
            seq,
            payload: payload.to_vec(),
        })
    }

    fn snapshot() -> WalRecord {
        WalRecord::Snapshot(SnapshotRecord {
            step: 42,
            rng_seed: 7,
            rng_state: vec![1, 2, 3, 4],
            process: vec![9, 9, 9],
            out_seq: vec![3, 0, 5],
            next_seq: vec![1, 0, 2],
            backlogs: vec![vec![(2, vec![8])], vec![], vec![(4, vec![])]],
            self_queue: vec![vec![1, 2], vec![]],
            adopted: true,
            adopted_decision: Some(Value::One),
        })
    }

    #[test]
    fn crc32_reference_vectors() {
        // Standard check value for "123456789" under CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn records_round_trip() {
        for r in [
            boot(),
            delivery(1, Some(9), b"abc"),
            delivery(0, None, b""),
            snapshot(),
            WalRecord::Seal,
        ] {
            let bytes = r.to_bytes();
            assert_eq!(WalRecord::from_bytes(&bytes), Ok(r));
        }
        // A delivery's payload is encoded exactly as `Vec<u8>` encodes.
        let mut generic = vec![1u8];
        ProcessId::new(1).encode(&mut generic);
        Some(9u64).encode(&mut generic);
        b"abc".to_vec().encode(&mut generic);
        assert_eq!(delivery(1, Some(9), b"abc").to_bytes(), generic);
    }

    #[test]
    fn unversioned_boot_header_reads_as_version_zero() {
        // The header as written before the format had a version: tag,
        // node, n, seed — and nothing after.
        let mut old = vec![0u8];
        ProcessId::new(2).encode(&mut old);
        5usize.encode(&mut old);
        77u64.encode(&mut old);
        let WalRecord::Boot(header) = WalRecord::from_bytes(&old).unwrap() else {
            panic!("tag 0 is the boot header");
        };
        assert_eq!(header.version, 0);
        assert_ne!(WalRecord::Boot(header), boot(), "and is not this format's");
    }

    #[test]
    fn a_torn_group_keeps_its_intact_prefix() {
        let dir = std::env::temp_dir().join(format!("wal-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("group.wal");
        let _ = std::fs::remove_file(&path);

        let (mut wal, _) = Wal::open(&path).unwrap();
        wal.append(&boot()).unwrap();
        let group = [
            WalRecord::Seal,
            delivery(1, Some(0), b"first"),
            delivery(3, Some(0), b"second"),
        ];
        let mut framed = Vec::new();
        group.iter().for_each(|r| frame_into(&mut framed, r));
        wal.append_group(&framed).unwrap();
        drop(wal);
        let (_, recovered) = Wal::open(&path).unwrap();
        assert_eq!(recovered.records[1..], group);

        // A kill mid-write leaves a prefix of the group: whole records,
        // then at most one torn one — a torn tail, not mid-log damage.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        let (_, recovered) = Wal::open(&path).unwrap();
        assert_eq!(recovered.records[1..], group[..2]);
        assert!(matches!(recovered.damage, WalDamage::TornTail { .. }));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn append_then_reopen_replays_everything() {
        let dir = std::env::temp_dir().join(format!("wal-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("clean.wal");
        let _ = std::fs::remove_file(&path);

        let (mut wal, recovered) = Wal::open(&path).unwrap();
        assert!(recovered.records.is_empty());
        let records = vec![
            boot(),
            delivery(1, Some(0), b"x"),
            delivery(2, Some(0), b"yy"),
        ];
        for r in &records {
            wal.append(r).unwrap();
        }
        drop(wal);

        let (_, recovered) = Wal::open(&path).unwrap();
        assert_eq!(recovered.records, records);
        assert_eq!(recovered.tail_lost, 0);
        assert_eq!(
            recovered.boot().unwrap().node,
            ProcessId::new(2),
            "boot header survives"
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn truncated_tail_recovers_to_last_good_record() {
        let dir = std::env::temp_dir().join(format!("wal-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("torn.wal");
        let _ = std::fs::remove_file(&path);

        let (mut wal, _) = Wal::open(&path).unwrap();
        wal.append(&boot()).unwrap();
        wal.append(&delivery(1, Some(0), b"keep me")).unwrap();
        wal.append(&delivery(3, Some(1), b"torn away")).unwrap();
        drop(wal);

        // Tear the last record mid-body, as a crash mid-write would.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();

        let (mut wal, recovered) = Wal::open(&path).unwrap();
        assert_eq!(
            recovered.records,
            vec![boot(), delivery(1, Some(0), b"keep me")],
            "replay stops at the last intact record"
        );
        assert!(recovered.tail_lost > 0);
        assert_eq!(
            recovered.damage,
            WalDamage::TornTail {
                lost: recovered.tail_lost
            }
        );
        assert!(!recovered.damage.is_unsafe(), "a torn tail is repairable");

        // The torn tail was truncated: new appends extend a clean log.
        wal.append(&delivery(4, Some(0), b"after repair")).unwrap();
        drop(wal);
        let (_, recovered) = Wal::open(&path).unwrap();
        assert_eq!(recovered.records.len(), 3);
        assert_eq!(recovered.tail_lost, 0);
        assert_eq!(recovered.damage, WalDamage::None);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn bit_flip_is_classified_midlog_and_preserved() {
        let dir = std::env::temp_dir().join(format!("wal-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("flipped.wal");
        let _ = std::fs::remove_file(&path);

        let (mut wal, _) = Wal::open(&path).unwrap();
        wal.append(&boot()).unwrap();
        wal.append(&delivery(1, Some(0), b"good")).unwrap();
        let good_len = std::fs::metadata(&path).unwrap().len();
        wal.append(&delivery(2, Some(0), b"about to rot")).unwrap();
        wal.append(&delivery(3, Some(0), b"unreachable")).unwrap();
        drop(wal);

        // Flip one bit inside the third record's body.
        let mut bytes = std::fs::read(&path).unwrap();
        let full_len = bytes.len() as u64;
        let target = good_len as usize + 10;
        bytes[target] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();

        let (_, recovered) = Wal::open(&path).unwrap();
        assert_eq!(
            recovered.records,
            vec![boot(), delivery(1, Some(0), b"good")],
            "nothing at or past the corruption is replayed"
        );
        assert_eq!(recovered.damage, WalDamage::MidLog { offset: good_len });
        assert!(
            recovered.damage.is_unsafe(),
            "a flipped record is not a torn tail"
        );
        assert_eq!(recovered.tail_lost, 0, "nothing was discarded");
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            full_len,
            "the damaged log is preserved as evidence, not truncated"
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupt_final_record_is_midlog_not_torn() {
        // A fully framed record with a bad checksum at the very tail:
        // a crash mid-append cannot produce this (partial writes leave
        // an incomplete record), so it must classify as mid-log damage
        // even with nothing after it.
        let mut record = frame_record(&delivery(1, Some(0), b"rotted"));
        let last = record.len() - 1;
        record[last] ^= 0x01;
        let mut bytes = frame_record(&boot());
        let offset = bytes.len() as u64;
        bytes.extend_from_slice(&record);

        let dir = std::env::temp_dir().join(format!("wal-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tail-rot.wal");
        std::fs::write(&path, &bytes).unwrap();

        let (_, recovered) = Wal::open(&path).unwrap();
        assert_eq!(recovered.records, vec![boot()]);
        assert_eq!(recovered.damage, WalDamage::MidLog { offset });
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            bytes.len() as u64,
            "preserved, not repaired"
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn hostile_length_prefix_is_midlog() {
        let dir = std::env::temp_dir().join(format!("wal-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("hostile.wal");
        let mut bytes = frame_record(&boot());
        let offset = bytes.len() as u64;
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(&[0; 64]);
        std::fs::write(&path, &bytes).unwrap();

        let (_, recovered) = Wal::open(&path).unwrap();
        assert_eq!(recovered.records, vec![boot()]);
        // A length field can only be hostile if it was fully written —
        // a torn append persists a strict prefix — so this is corruption.
        assert_eq!(recovered.damage, WalDamage::MidLog { offset });
        assert_eq!(recovered.tail_lost, 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn flipping_storage_surfaces_midlog_without_touching_disk() {
        use crate::storage::{DiskFault, FaultyStorage};

        let dir = std::env::temp_dir().join(format!("wal-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("inject.wal");
        let _ = std::fs::remove_file(&path);

        // Offset 8 is the first body byte of the Boot record, so the
        // flip lands inside Boot on any non-empty log — including a
        // freshly compacted Boot+Snapshot one.
        let faulty = || Box::new(FaultyStorage::new(vec![DiskFault::Flip { offset: 8 }]));
        let (mut wal, recovered) = Wal::open_with(&path, faulty()).unwrap();
        assert_eq!(recovered.damage, WalDamage::None, "fresh log: no-op");
        wal.append(&boot()).unwrap();
        wal.append(&delivery(1, Some(0), b"x")).unwrap();
        drop(wal);

        let (_, recovered) = Wal::open_with(&path, faulty()).unwrap();
        assert_eq!(recovered.damage, WalDamage::MidLog { offset: 0 });
        assert!(recovered.records.is_empty(), "boot itself is untrusted");

        // The same log through honest storage is perfectly clean.
        let (_, recovered) = Wal::open(&path).unwrap();
        assert_eq!(recovered.damage, WalDamage::None);
        assert_eq!(recovered.records.len(), 2);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn replay_plan_prefers_latest_snapshot() {
        let records = vec![
            boot(),
            delivery(0, Some(0), b"superseded"),
            snapshot(),
            delivery(1, Some(4), b"replay me"),
            WalRecord::Seal,
            delivery(0, None, b"self"),
        ];
        let recovered = Recovered {
            records: records.clone(),
            tail_lost: 0,
            damage: WalDamage::None,
        };
        let (snap, tail) = recovered.replay_plan();
        assert_eq!(snap.unwrap().step, 42);
        assert_eq!(tail, &records[3..], "deliveries and the seal between them");

        // Without a snapshot, everything replays from genesis.
        let recovered = Recovered {
            records: vec![boot(), delivery(1, Some(0), b"a")],
            tail_lost: 0,
            damage: WalDamage::None,
        };
        let (snap, tail) = recovered.replay_plan();
        assert!(snap.is_none());
        assert_eq!(tail.len(), 2, "the whole log, header included");
    }

    #[test]
    fn compact_rewrites_to_boot_plus_snapshot() {
        let dir = std::env::temp_dir().join(format!("wal-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("compact.wal");
        let _ = std::fs::remove_file(&path);

        let (mut wal, _) = Wal::open(&path).unwrap();
        wal.append(&boot()).unwrap();
        for i in 0..50 {
            wal.append(&delivery(1, Some(i), b"bulk")).unwrap();
        }
        let bloated = std::fs::metadata(&path).unwrap().len();

        let WalRecord::Boot(b) = boot() else {
            unreachable!()
        };
        let WalRecord::Snapshot(s) = snapshot() else {
            unreachable!()
        };
        wal.compact(&b, &s).unwrap();
        assert!(std::fs::metadata(&path).unwrap().len() < bloated);

        // Appends after compaction land after the snapshot.
        wal.append(&delivery(2, Some(50), b"tail")).unwrap();
        drop(wal);
        let (_, recovered) = Wal::open(&path).unwrap();
        assert_eq!(recovered.records.len(), 3);
        let (snap, tail) = recovered.replay_plan();
        assert_eq!(snap.unwrap(), &s);
        assert_eq!(tail.len(), 1);
        std::fs::remove_file(&path).unwrap();
    }

    /// Records every [`Storage`] call, delegating to the real thing.
    #[derive(Debug)]
    struct SpyStorage {
        inner: RealStorage,
        ops: std::sync::Arc<std::sync::Mutex<Vec<&'static str>>>,
    }

    impl Storage for SpyStorage {
        fn open(&mut self, path: &Path) -> io::Result<Vec<u8>> {
            self.ops.lock().unwrap().push("open");
            self.inner.open(path)
        }
        fn truncate(&mut self, len: u64) -> io::Result<()> {
            self.ops.lock().unwrap().push("truncate");
            self.inner.truncate(len)
        }
        fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
            self.ops.lock().unwrap().push("append");
            self.inner.append(bytes)
        }
        fn stage_replacement(&mut self, bytes: &[u8]) -> io::Result<()> {
            self.ops.lock().unwrap().push("stage_replacement");
            self.inner.stage_replacement(bytes)
        }
        fn commit_replacement(&mut self) -> io::Result<()> {
            self.ops.lock().unwrap().push("commit_replacement");
            self.inner.commit_replacement()
        }
        fn sync_dir(&mut self) -> io::Result<()> {
            self.ops.lock().unwrap().push("sync_dir");
            self.inner.sync_dir()
        }
    }

    #[test]
    fn compact_syncs_the_parent_directory_after_the_rename() {
        let dir = std::env::temp_dir().join(format!("wal-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("dirsync.wal");
        let _ = std::fs::remove_file(&path);

        let ops = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let spy = SpyStorage {
            inner: RealStorage::new(),
            ops: ops.clone(),
        };
        let (mut wal, _) = Wal::open_with(&path, Box::new(spy)).unwrap();
        wal.append(&boot()).unwrap();
        let WalRecord::Boot(b) = boot() else {
            unreachable!()
        };
        let WalRecord::Snapshot(s) = snapshot() else {
            unreachable!()
        };
        wal.compact(&b, &s).unwrap();
        assert_eq!(
            *ops.lock().unwrap(),
            vec![
                "open",
                "append",
                "stage_replacement",
                "commit_replacement",
                "sync_dir"
            ],
            "the directory sync must follow the rename — a rename that \
             survives sync_data can still vanish with an unsynced dir entry"
        );
        std::fs::remove_file(&path).unwrap();
    }
}
