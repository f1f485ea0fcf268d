//! The storage abstraction under the write-ahead log, and its fault
//! injector.
//!
//! [`Wal`](crate::wal::Wal) never touches the filesystem directly: every
//! operation it performs — the open-time scan, tail truncation, record
//! appends, and the staged-write/rename/dir-fsync triple behind
//! compaction — goes through a [`Storage`] implementation. Production
//! nodes use [`RealStorage`]; test harnesses wrap it in
//! [`FaultyStorage`], which executes a list of seedable [`DiskFault`]s at
//! exact operation counts, so `btfuzz` and the recovery tests can produce
//! the storage failures that matter deterministically:
//!
//! * **bit flips** ([`DiskFault::Flip`]) — media rot surfaced at read
//!   time: the byte at a fixed offset comes back flipped on every open
//!   (a no-op while the log is shorter than the offset, so fresh boots
//!   are unaffected and only restarts observe the damage);
//! * **short writes** ([`DiskFault::ShortWrite`]) — the nth append
//!   persists only half its bytes yet reports success, the torn-record
//!   shape a crash mid-`write(2)` leaves behind;
//! * **write errors** ([`DiskFault::Enospc`]) — the nth append fails
//!   with `ENOSPC`, which a node must treat as fatal (it can no longer
//!   guarantee log-before-send);
//! * **fsync errors** ([`DiskFault::FsyncErr`]) — the nth sync
//!   (compaction data sync or directory sync) fails with `EIO`;
//! * **lost rename** ([`DiskFault::LostRename`]) — the compaction
//!   rename reports success but the directory entry never becomes
//!   durable: the next open finds no log at all. This is exactly the
//!   power-loss window that skipping the parent-directory fsync leaves
//!   open, kept injectable so the missing-log recovery path stays
//!   exercised even now that [`RealStorage`] closes the window.
//!
//! [`DiskFault`]'s `Display` renders the per-node half of the
//! `disk={node}:{fault}` clause in
//! [`FaultPlan`](crate::fault::FaultPlan) specs.

use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// One injectable storage fault. Operation counts (`nth`) are 1-based
/// and scoped to one [`FaultyStorage`] instance — i.e. one node
/// incarnation — so a fault plan names an exact operation in an exact
/// lifetime.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DiskFault {
    /// Every open reads the byte at `offset` with its low bit flipped
    /// (no-op when the log is shorter than `offset + 1`).
    Flip {
        /// Byte offset into the log file.
        offset: u64,
    },
    /// The `nth` append persists only the first half of its bytes but
    /// reports success.
    ShortWrite {
        /// Which append (1-based) is torn.
        nth: u64,
    },
    /// The `nth` sync — compaction data sync or directory sync — fails
    /// with `EIO`.
    FsyncErr {
        /// Which sync (1-based) fails.
        nth: u64,
    },
    /// The `nth` append fails with `ENOSPC`, persisting nothing.
    Enospc {
        /// Which append (1-based) fails.
        nth: u64,
    },
    /// The compaction rename reports success but the directory entry is
    /// lost: the log file vanishes (writes keep landing in the orphaned
    /// inode, invisible to any later open).
    LostRename,
}

/// Renders the fault as the per-node half of a `disk=` clause:
/// `flip@8`, `short@3`, `fsyncerr@1`, `enospc@5`, `lostrename`.
impl fmt::Display for DiskFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DiskFault::Flip { offset } => write!(f, "flip@{offset}"),
            DiskFault::ShortWrite { nth } => write!(f, "short@{nth}"),
            DiskFault::FsyncErr { nth } => write!(f, "fsyncerr@{nth}"),
            DiskFault::Enospc { nth } => write!(f, "enospc@{nth}"),
            DiskFault::LostRename => write!(f, "lostrename"),
        }
    }
}

/// The filesystem operations a write-ahead log performs, in the order a
/// log performs them. Implementations own the open file handle; `open`
/// must be called before any other method.
pub trait Storage: Send + fmt::Debug {
    /// Opens (creating if absent) the log at `path` and returns its
    /// entire current contents, leaving the handle positioned at the end.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    fn open(&mut self, path: &Path) -> io::Result<Vec<u8>>;

    /// Truncates the log to `len` bytes and repositions for appending.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    fn truncate(&mut self, len: u64) -> io::Result<()>;

    /// Appends `bytes` to the log — the log-before-send durability point.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    fn append(&mut self, bytes: &[u8]) -> io::Result<()>;

    /// Writes `bytes` to a sibling temp file and syncs its data — the
    /// first half of an atomic log replacement.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    fn stage_replacement(&mut self, bytes: &[u8]) -> io::Result<()>;

    /// Renames the staged temp file over the log and reopens the handle
    /// at the new end.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    fn commit_replacement(&mut self) -> io::Result<()>;

    /// Syncs the log's parent directory, making a committed replacement
    /// durable against power loss. Without this, a rename can survive
    /// `sync_data` on the file yet vanish with the directory entry.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    fn sync_dir(&mut self) -> io::Result<()>;
}

/// [`Storage`] over the real filesystem via `std::fs`.
#[derive(Debug, Default)]
pub struct RealStorage {
    path: PathBuf,
    file: Option<File>,
}

impl RealStorage {
    /// A storage layer with no file open yet.
    #[must_use]
    pub fn new() -> Self {
        RealStorage::default()
    }

    fn file(&mut self) -> io::Result<&mut File> {
        self.file
            .as_mut()
            .ok_or_else(|| io::Error::other("storage used before open"))
    }

    fn tmp_path(&self) -> PathBuf {
        self.path.with_extension("tmp")
    }
}

impl Storage for RealStorage {
    fn open(&mut self, path: &Path) -> io::Result<Vec<u8>> {
        self.path = path.to_path_buf();
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        self.file = Some(file);
        Ok(bytes)
    }

    fn truncate(&mut self, len: u64) -> io::Result<()> {
        let file = self.file()?;
        file.set_len(len)?;
        file.seek(SeekFrom::Start(len))?;
        Ok(())
    }

    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.file()?.write_all(bytes)
    }

    fn stage_replacement(&mut self, bytes: &[u8]) -> io::Result<()> {
        let mut f = File::create(self.tmp_path())?;
        f.write_all(bytes)?;
        f.sync_data()
    }

    fn commit_replacement(&mut self) -> io::Result<()> {
        std::fs::rename(self.tmp_path(), &self.path)?;
        let mut file = OpenOptions::new().read(true).write(true).open(&self.path)?;
        file.seek(SeekFrom::End(0))?;
        self.file = Some(file);
        Ok(())
    }

    fn sync_dir(&mut self) -> io::Result<()> {
        let parent = self
            .path
            .parent()
            .filter(|p| !p.as_os_str().is_empty())
            .unwrap_or_else(|| Path::new("."));
        File::open(parent)?.sync_all()
    }
}

/// [`Storage`] that executes a [`DiskFault`] list over [`RealStorage`].
/// Operation counters start at the fault layer's construction, i.e. one
/// node incarnation.
#[derive(Debug)]
pub struct FaultyStorage {
    inner: RealStorage,
    faults: Vec<DiskFault>,
    appends: u64,
    syncs: u64,
}

impl FaultyStorage {
    /// Wraps a fresh [`RealStorage`] with `faults`.
    #[must_use]
    pub fn new(faults: Vec<DiskFault>) -> Self {
        FaultyStorage {
            inner: RealStorage::new(),
            faults,
            appends: 0,
            syncs: 0,
        }
    }

    /// The injected sync failure for the current sync count, if any.
    fn sync_fault(&mut self) -> io::Result<()> {
        self.syncs += 1;
        for f in &self.faults {
            if let DiskFault::FsyncErr { nth } = f {
                if *nth == self.syncs {
                    return Err(io::Error::other(format!(
                        "injected fsync error (sync #{})",
                        self.syncs
                    )));
                }
            }
        }
        Ok(())
    }
}

impl Storage for FaultyStorage {
    fn open(&mut self, path: &Path) -> io::Result<Vec<u8>> {
        let mut bytes = self.inner.open(path)?;
        for f in &self.faults {
            if let DiskFault::Flip { offset } = f {
                if let Some(b) = bytes.get_mut(*offset as usize) {
                    *b ^= 0x01;
                }
            }
        }
        Ok(bytes)
    }

    fn truncate(&mut self, len: u64) -> io::Result<()> {
        self.inner.truncate(len)
    }

    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.appends += 1;
        for f in &self.faults {
            match f {
                DiskFault::ShortWrite { nth } if *nth == self.appends => {
                    // Half the bytes land; the caller is told all did.
                    return self.inner.append(&bytes[..bytes.len() / 2]);
                }
                DiskFault::Enospc { nth } if *nth == self.appends => {
                    return Err(io::Error::new(
                        io::ErrorKind::StorageFull,
                        format!("injected ENOSPC (append #{})", self.appends),
                    ));
                }
                _ => {}
            }
        }
        self.inner.append(bytes)
    }

    fn stage_replacement(&mut self, bytes: &[u8]) -> io::Result<()> {
        // Staging ends in a data sync; an injected sync failure aborts
        // the replacement before anything is renamed.
        self.sync_fault()?;
        self.inner.stage_replacement(bytes)
    }

    fn commit_replacement(&mut self) -> io::Result<()> {
        self.inner.commit_replacement()?;
        if self.faults.contains(&DiskFault::LostRename) {
            // The rename "succeeded" but its directory entry is never
            // durable: the path vanishes while the open handle keeps
            // accepting writes into the orphaned inode.
            std::fs::remove_file(&self.inner.path)?;
        }
        Ok(())
    }

    fn sync_dir(&mut self) -> io::Result<()> {
        self.sync_fault()?;
        self.inner.sync_dir()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("storage-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn disk_fault_renders_its_clause() {
        let rendered: Vec<String> = [
            DiskFault::Flip { offset: 8 },
            DiskFault::ShortWrite { nth: 3 },
            DiskFault::FsyncErr { nth: 1 },
            DiskFault::Enospc { nth: 5 },
            DiskFault::LostRename,
        ]
        .iter()
        .map(ToString::to_string)
        .collect();
        assert_eq!(
            rendered,
            ["flip@8", "short@3", "fsyncerr@1", "enospc@5", "lostrename"]
        );
    }

    #[test]
    fn real_storage_appends_truncates_and_replaces() {
        let path = temp_path("real.log");
        let _ = std::fs::remove_file(&path);
        let mut s = RealStorage::new();
        assert!(s.open(&path).unwrap().is_empty());
        s.append(b"hello ").unwrap();
        s.append(b"world").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"hello world");
        s.truncate(5).unwrap();
        s.append(b"!").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"hello!");
        s.stage_replacement(b"replaced").unwrap();
        s.commit_replacement().unwrap();
        s.sync_dir().unwrap();
        s.append(b" tail").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"replaced tail");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn flip_applies_only_within_the_file() {
        let path = temp_path("flip.log");
        let _ = std::fs::remove_file(&path);
        let mut s = FaultyStorage::new(vec![DiskFault::Flip { offset: 2 }]);
        assert!(
            s.open(&path).unwrap().is_empty(),
            "flip beyond EOF is a no-op"
        );
        s.append(b"abcd").unwrap();
        drop(s);
        let mut s = FaultyStorage::new(vec![DiskFault::Flip { offset: 2 }]);
        assert_eq!(s.open(&path).unwrap(), b"ab\x62d", "low bit of 'c' flipped");
        assert_eq!(std::fs::read(&path).unwrap(), b"abcd", "disk unchanged");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn short_write_halves_the_nth_append() {
        let path = temp_path("short.log");
        let _ = std::fs::remove_file(&path);
        let mut s = FaultyStorage::new(vec![DiskFault::ShortWrite { nth: 2 }]);
        s.open(&path).unwrap();
        s.append(b"full").unwrap();
        s.append(b"torn").unwrap(); // only "to" lands
        s.append(b"more").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"fulltomore");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn enospc_fails_the_nth_append_without_writing() {
        let path = temp_path("enospc.log");
        let _ = std::fs::remove_file(&path);
        let mut s = FaultyStorage::new(vec![DiskFault::Enospc { nth: 2 }]);
        s.open(&path).unwrap();
        s.append(b"ok").unwrap();
        let err = s.append(b"doomed").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
        assert_eq!(std::fs::read(&path).unwrap(), b"ok");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn fsync_error_aborts_staging_before_the_rename() {
        let path = temp_path("fsyncerr.log");
        let _ = std::fs::remove_file(&path);
        let mut s = FaultyStorage::new(vec![DiskFault::FsyncErr { nth: 1 }]);
        s.open(&path).unwrap();
        s.append(b"original").unwrap();
        assert!(s.stage_replacement(b"new").is_err());
        assert_eq!(
            std::fs::read(&path).unwrap(),
            b"original",
            "a failed stage leaves the log untouched"
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn lost_rename_vanishes_the_log_but_not_the_handle() {
        let path = temp_path("lostrename.log");
        let _ = std::fs::remove_file(&path);
        let mut s = FaultyStorage::new(vec![DiskFault::LostRename]);
        s.open(&path).unwrap();
        s.append(b"history").unwrap();
        s.stage_replacement(b"compacted").unwrap();
        s.commit_replacement().unwrap();
        assert!(!path.exists(), "the directory entry was lost");
        // The orphaned inode still accepts writes without erroring.
        s.append(b" tail").unwrap();
        // A later open finds an empty, freshly created log: amnesia.
        let mut fresh = RealStorage::new();
        assert!(fresh.open(&path).unwrap().is_empty());
        std::fs::remove_file(&path).unwrap();
    }
}
