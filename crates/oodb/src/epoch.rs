//! Snapshot-epoch publication for concurrent readers.
//!
//! The concurrency model of the `service` crate is *single writer,
//! many readers over immutable snapshots*: one thread owns the mutable
//! [`Database`] and, after each durable commit, publishes a frozen copy
//! behind an [`Arc`]. Readers grab the current [`EpochDb`] with one
//! cheap lock acquisition and then evaluate against it without any
//! further coordination — the writer never mutates a published copy,
//! so readers observe a consistent, committed state for as long as
//! they hold the `Arc`.
//!
//! Publishing does not copy the database: `Database::clone` shares
//! every shard of state, index and schema with the writer's database
//! (see the `cow` module), so it costs one `Arc` bump per shard. The
//! writer's next mutation unshares only the shards it touches, leaving
//! the published copy as it was.
//!
//! The epoch sequence number increases by one per publication and lets
//! clients reason about recency ("was this read before or after that
//! commit?") and lets the chaos harness assert plan invariance: two
//! reads of the same query at the same epoch must produce identical
//! answers regardless of thread interleaving.

use crate::database::Database;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// An immutable database snapshot tagged with its publication epoch.
///
/// Cloning is cheap (an `Arc` bump plus a `u64`); the underlying
/// [`Database`] is shared and must never be mutated after publication.
#[derive(Debug, Clone)]
pub struct EpochDb {
    /// Monotone publication counter: 0 for the initial state, +1 per
    /// [`EpochCell::publish`].
    pub seq: u64,
    /// The frozen committed state of this epoch.
    pub db: Arc<Database>,
}

/// Shared cell holding the most recently published epoch.
///
/// The single writer calls [`publish`](EpochCell::publish) after each
/// durable commit; any number of readers call
/// [`load`](EpochCell::load). The lock is held only for the duration
/// of an `Arc` clone, so readers never block the writer for a
/// meaningful time (and vice versa).
#[derive(Debug)]
pub struct EpochCell {
    cur: RwLock<EpochDb>,
    /// Mirror of the current sequence number, readable without taking
    /// the `RwLock`. Readers that cache a snapshot per epoch check this
    /// first and only pay the lock + two `Arc` refcount bumps when the
    /// epoch actually moved — under a read-heavy steady state that
    /// turns the per-read cost into one relaxed atomic load instead of
    /// cross-core refcount traffic on the shared `Arc<Database>`.
    seq: AtomicU64,
}

impl EpochCell {
    /// Wraps `db` as epoch 0 — the initial committed state.
    pub fn new(db: Database) -> Self {
        EpochCell {
            cur: RwLock::new(EpochDb {
                seq: 0,
                db: Arc::new(db),
            }),
            seq: AtomicU64::new(0),
        }
    }

    /// Returns the current epoch (an `Arc` clone of the snapshot).
    pub fn load(&self) -> EpochDb {
        self.cur.read().unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// The current sequence number without touching the snapshot lock
    /// or any `Arc`. May race one step behind [`EpochCell::load`]
    /// during a publication, never ahead of it — a reader that sees an
    /// equal sequence for its cached snapshot holds a snapshot at least
    /// that fresh.
    pub fn seq(&self) -> u64 {
        self.seq.load(Ordering::Acquire)
    }

    /// Publishes `db` as the next epoch and returns its sequence
    /// number. Called by the writer after its commit became durable;
    /// `db` must be a copy the writer will not touch again.
    pub fn publish(&self, db: Database) -> u64 {
        let mut cur = self.cur.write().unwrap_or_else(|e| e.into_inner());
        cur.seq += 1;
        cur.db = Arc::new(db);
        let seq = cur.seq;
        // Publish the mirror while still holding the write lock so
        // `seq()` can never run ahead of what `load()` returns.
        self.seq.store(seq, Ordering::Release);
        seq
    }
}
