//! # storage — durability for the xsql session
//!
//! The engine crates (`oodb`, `xsql`) are purely in-memory; this crate
//! adds crash-safe persistence on top without touching their evaluation
//! paths. A [`Store`] owns one directory containing:
//!
//! * `meta` — store identity: magic line plus the base-fixture tag;
//! * `manifest` — the authoritative list of live WAL segments (see
//!   [`manifest`]);
//! * `wal.NNNNNN` — checksummed, size-bounded WAL segments of committed
//!   *commit units* (see [`wal`]); the last listed segment is active;
//! * `snapshot.bin` — the latest checkpoint, the whole image, written
//!   atomically via `snapshot.tmp` + rename (see [`snapshot`]);
//! * `*.quarantined` — corrupt segments preserved (renamed, never
//!   deleted) by recovery for forensics.
//!
//! A commit unit is the redo image of one auto-committed statement or of
//! one whole explicit transaction ([`codec::CommitUnit`]); it is appended
//! and fsync'd *before* the statement is acknowledged, so recovery after
//! a crash always lands on a statement boundary: the scan stops cleanly
//! at the first torn or corrupt record and everything before it replays
//! deterministically. Mid-log corruption (a bad record with more log
//! after it) is salvaged: the longest valid prefix is kept, the corrupt
//! segment is quarantined, and the salvage point is reported
//! ([`store::SalvageReport`]).
//!
//! Transient I/O errors are retried with bounded exponential backoff;
//! `ENOSPC` flips the store into read-only degraded mode
//! ([`store::StoreHealth`]) from which it probes its way back once space
//! frees. Both classifications come from [`fs::classify_io`].
//!
//! All I/O goes through the [`fs::StorageFs`] trait. Production code uses
//! [`fs::RealFs`]; the `fault-injection` feature compiles
//! [`fault::FaultFs`], a deterministic in-memory filesystem that models
//! torn tails, flipped bits, lost fsyncs, lost renames, transient errors
//! and full disks for the crash test-suite.

#![warn(missing_docs)]

pub mod codec;
#[cfg(feature = "fault-injection")]
pub mod fault;
pub mod fs;
pub mod manifest;
pub mod snapshot;
pub mod store;
pub mod wal;

#[cfg(feature = "fault-injection")]
pub use fault::{CrashMode, FaultFs};
pub use fs::{classify_io, IoClass, RealFs, StorageFs};
pub use snapshot::SnapshotFile;
pub use store::{
    CheckpointStats, Recovered, RetryPolicy, SalvageReport, Store, StoreConfig, StoreHealth,
};

use std::fmt;
use std::io;

/// Errors raised by the storage layer.
#[derive(Debug)]
pub enum StorageError {
    /// An I/O operation failed (possibly an injected fault).
    Io(io::Error),
    /// On-disk data failed validation (bad magic, checksum mismatch,
    /// truncated structure). Recovery treats WAL-tail corruption as a
    /// clean end-of-log; everywhere else it is surfaced.
    Corrupt(String),
    /// A WAL segment is structurally unrecoverable (e.g. a manifest
    /// lists a non-final segment that does not exist). `offset` is the
    /// byte offset of the first bad record within the segment.
    CorruptSegment {
        /// File name of the offending segment.
        segment: String,
        /// Byte offset of the first bad record.
        offset: u64,
        /// Human-readable detail.
        detail: String,
    },
    /// The disk is out of space; the store is read-only (degraded)
    /// until a probe observes freed space.
    DiskFull(String),
    /// Another writer holds a newer primary generation: this instance
    /// has been deposed and must not extend the log. Terminal for the
    /// instance — rejoin the topology as a replica.
    Fenced {
        /// The newer generation observed in the shared manifest.
        observed: u64,
        /// This store's own (stale) generation.
        own: u64,
    },
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Io(e) => write!(f, "storage I/O error: {e}"),
            StorageError::Corrupt(m) => write!(f, "corrupt store: {m}"),
            StorageError::CorruptSegment {
                segment,
                offset,
                detail,
            } => write!(
                f,
                "corrupt WAL segment {segment} (first bad record at byte {offset}): {detail}"
            ),
            StorageError::DiskFull(m) => write!(f, "disk full: {m}"),
            StorageError::Fenced { observed, own } => write!(
                f,
                "fenced: generation {observed} has superseded this writer's \
                 generation {own}; refusing to extend the log"
            ),
        }
    }
}

impl std::error::Error for StorageError {}

impl From<io::Error> for StorageError {
    fn from(e: io::Error) -> Self {
        if classify_io(&e) == IoClass::DiskFull {
            StorageError::DiskFull(e.to_string())
        } else {
            StorageError::Io(e)
        }
    }
}

/// Convenient result alias for the storage layer.
pub type StorageResult<T> = Result<T, StorageError>;
