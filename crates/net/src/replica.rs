//! WAL-shipped read replicas.
//!
//! A replica is a second process holding its own in-memory database,
//! built *only* from what the primary's store directory says: the
//! checkpoint image (`snapshot.bin`) for bootstrap, then the
//! checksummed WAL segments for the tail. It re-reads those files
//! through a [`ShipSource`] on a poll loop and replays new commit
//! units through [`Session::apply_commit_payload`] — the exact code
//! path crash recovery uses, so a state the replica can diverge on is
//! a state recovery would diverge on too.
//!
//! The shipping medium is allowed to misbehave (see
//! [`crate::ship::ChaosSource`]); the replica's obligations under
//! misbehaviour are:
//!
//! * **Torn segment reads** salvage the valid record prefix
//!   ([`storage::wal::scan`] stops at the first bad record) and catch
//!   up on a later round — shipping corruption never reaches the
//!   database.
//! * **Duplicated / stale shipments** are filtered by sequence number:
//!   a unit applies exactly once, when it is the successor of the last
//!   applied unit.
//! * **A sequence gap** — the primary checkpointed and retired the
//!   segments the replica still needed — triggers a full *resync*:
//!   throw the state away and bootstrap again from the newer image.
//!
//! Progress is observable: each applied batch publishes a new epoch on
//! an [`EpochCell`] (the same snapshot-isolation device the service
//! uses), and the `net_replication_lag` gauge exports
//! `shipped_seq − applied_seq`, reaching 0 when the replica has
//! everything the shipped log contains.

use crate::ship::ShipSource;
use oodb::{Database, EpochCell, EpochDb};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use storage::manifest::{lists_delta, parse_manifest};
use storage::snapshot::decode_snapshot;
use storage::{wal, SnapshotFile};
use xsql::{EvalOptions, Session};

/// Replica state shared between the tailer thread and the serving
/// front end.
pub struct ReplicaShared {
    epoch: EpochCell,
    applied_seq: AtomicU64,
    shipped_seq: AtomicU64,
    generation: AtomicU64,
    stop: AtomicBool,
    /// Base evaluation options for serving sessions over published
    /// epochs.
    base_opts: EvalOptions,
    registry: Arc<telemetry::Registry>,
    lag_gauge: Arc<telemetry::Gauge>,
    applied_units: Arc<telemetry::Counter>,
    resyncs: Arc<telemetry::Counter>,
    sync_errors: Arc<telemetry::Counter>,
    /// Last sync round's failure, for diagnostics; cleared on success.
    last_error: Mutex<Option<String>>,
}

impl ReplicaShared {
    /// The latest locally published epoch (snapshot + local sequence).
    pub fn epoch(&self) -> EpochDb {
        self.epoch.load()
    }

    /// The cell the replica publishes its epochs into.
    pub(crate) fn epoch_cell(&self) -> &EpochCell {
        &self.epoch
    }

    /// Highest primary WAL sequence number applied here.
    pub fn applied_seq(&self) -> u64 {
        self.applied_seq.load(Ordering::Acquire)
    }

    /// Highest primary WAL sequence number observed in shipped files.
    pub fn shipped_seq(&self) -> u64 {
        self.shipped_seq.load(Ordering::Acquire)
    }

    /// Replication lag in commit units: `shipped_seq − applied_seq`.
    pub fn lag(&self) -> u64 {
        self.shipped_seq().saturating_sub(self.applied_seq())
    }

    /// The primary generation (fencing term) of the manifest this
    /// replica is tailing. 0 until the first manifest ships.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// The replica's telemetry registry (`net_replication_lag` etc.).
    pub fn registry(&self) -> &Arc<telemetry::Registry> {
        &self.registry
    }

    /// Evaluation options serving sessions should inherit.
    pub fn base_opts(&self) -> &EvalOptions {
        &self.base_opts
    }

    /// The last failed sync round's message, if the most recent round
    /// failed.
    pub fn last_error(&self) -> Option<String> {
        self.last_error
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    fn record_round(&self, outcome: Result<(), &str>) {
        let mut slot = self.last_error.lock().unwrap_or_else(|e| e.into_inner());
        match outcome {
            Ok(()) => *slot = None,
            Err(m) => {
                self.sync_errors.inc();
                *slot = Some(m.to_string());
            }
        }
    }
}

/// Configuration for a replica.
#[derive(Debug, Clone)]
pub struct ReplicaConfig {
    /// Base-fixture tag the primary's store was created over; replay
    /// onto any other base would corrupt, so it is verified against
    /// the shipped `meta` file.
    pub base_tag: String,
    /// Evaluation options for the replay session and serving readers.
    pub opts: EvalOptions,
}

/// The replica's replay state machine. Owns the ship source and the
/// replay session; drive it with [`ReplicaCore::step`] (tests) or hand
/// it to [`ReplicaCore::spawn`] for a background poll loop.
pub struct ReplicaCore {
    src: Box<dyn ShipSource>,
    base: Database,
    cfg: ReplicaConfig,
    shared: Arc<ReplicaShared>,
    /// `None` until bootstrap succeeds, and again after a gap forces a
    /// resync.
    session: Option<Session>,
    /// Highest generation any applied record (or the bootstrap image)
    /// was written under; a higher-generation segment that *rewrites*
    /// already-applied sequence numbers means the timeline forked under
    /// us and forces a resync.
    applied_gen: u64,
    /// The manifest bytes of the last completed round. A manifest that
    /// changed while yielding nothing to replay is the signature of a
    /// checkpoint retiring records we still needed — the one gap shape
    /// sequence numbers alone cannot reveal.
    seen_manifest: Option<Vec<u8>>,
}

/// One sync round's outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SyncProgress {
    /// Commit units applied this round.
    pub applied: u64,
    /// True when the round bootstrapped (or re-bootstrapped) from the
    /// checkpoint image.
    pub resynced: bool,
}

impl ReplicaCore {
    /// Creates a replica replaying `src` on top of the `base` fixture.
    /// Nothing is fetched yet; the first [`ReplicaCore::step`] (or the
    /// spawned loop) bootstraps.
    pub fn new(src: Box<dyn ShipSource>, base: Database, cfg: ReplicaConfig) -> ReplicaCore {
        let registry = Arc::new(telemetry::Registry::from_env());
        let shared = Arc::new(ReplicaShared {
            epoch: EpochCell::new(base.clone()),
            applied_seq: AtomicU64::new(0),
            shipped_seq: AtomicU64::new(0),
            generation: AtomicU64::new(0),
            stop: AtomicBool::new(false),
            base_opts: cfg.opts.clone(),
            lag_gauge: registry.gauge("net_replication_lag", &[]),
            applied_units: registry.counter("net_replica_applied_units_total", &[]),
            resyncs: registry.counter("net_replica_resyncs_total", &[]),
            sync_errors: registry.counter("net_replica_sync_errors_total", &[]),
            last_error: Mutex::new(None),
            registry,
        });
        ReplicaCore {
            src,
            base,
            cfg,
            shared,
            session: None,
            applied_gen: 0,
            seen_manifest: None,
        }
    }

    /// The shared view served to clients.
    pub fn shared(&self) -> Arc<ReplicaShared> {
        Arc::clone(&self.shared)
    }

    /// Verifies the shipped `meta` file names the expected base
    /// fixture. `Ok(false)` when the file has not shipped yet.
    fn check_meta(&mut self) -> Result<bool, String> {
        let Some(bytes) = self
            .src
            .fetch("meta")
            .map_err(|e| format!("ship meta: {e}"))?
        else {
            return Ok(false);
        };
        let text = String::from_utf8_lossy(&bytes);
        let mut lines = text.lines();
        match (lines.next(), lines.next()) {
            (Some("XSQLSTOREv1"), Some(tag)) if tag == self.cfg.base_tag => Ok(true),
            (Some("XSQLSTOREv1"), Some(tag)) => Err(format!(
                "primary store is over base `{tag}`, replica expects `{}`",
                self.cfg.base_tag
            )),
            // A torn ship of a tiny file; retry.
            _ => Ok(false),
        }
    }

    /// Bootstraps the replay session from the shipped checkpoint image
    /// (or the bare fixture when the primary has never checkpointed).
    fn bootstrap(&mut self) -> Result<(Session, u64), String> {
        // A torn image restores the bare fixture: the replica is then
        // behind the log, and the sequence-gap check resyncs it.
        let image = self.fetch_image()?.and_then(Result::ok);
        let start_seq = image.as_ref().map_or(0, |s| s.last_seq);
        let session = Session::restore_image(
            self.base.clone(),
            &self.cfg.base_tag,
            image,
            self.cfg.opts.clone(),
        )
        .map_err(|e| format!("restore image: {e}"))?;
        Ok((session, start_seq))
    }

    /// Fetches and decodes the shipped `snapshot.bin`; `None` when the
    /// primary never checkpointed, `Some(Err(()))` for a torn ship.
    fn fetch_image(&mut self) -> Result<Option<Result<SnapshotFile, ()>>, String> {
        let bytes = self
            .src
            .fetch("snapshot.bin")
            .map_err(|e| format!("ship snapshot: {e}"))?;
        Ok(bytes.map(|b| decode_snapshot(&b).map_err(|_| ())))
    }

    /// Runs one sync round: fetch the manifest, bootstrap if needed,
    /// replay new commit units, publish an epoch if anything advanced.
    pub fn step(&mut self) -> Result<SyncProgress, String> {
        let r = self.step_inner(false);
        self.shared
            .record_round(r.as_ref().map(|_| ()).map_err(|m| m.as_str()));
        r
    }

    fn step_inner(&mut self, resyncing: bool) -> Result<SyncProgress, String> {
        if !self.check_meta()? {
            return Ok(SyncProgress {
                applied: 0,
                resynced: false,
            });
        }
        let Some(mbytes) = self
            .src
            .fetch("manifest")
            .map_err(|e| format!("ship manifest: {e}"))?
        else {
            return Ok(SyncProgress {
                applied: 0,
                resynced: false,
            });
        };
        let manifest = match parse_manifest(&mbytes) {
            Ok(m) => m,
            // An incremental checkpoint this version cannot read:
            // retrying would never succeed, and skipping it would drop
            // the units it covers.
            Err(e) if lists_delta(&mbytes) => return Err(format!("ship manifest: {e}")),
            // Torn ship of the manifest; retry next round.
            Err(_) => {
                return Ok(SyncProgress {
                    applied: 0,
                    resynced: false,
                })
            }
        };
        self.shared
            .generation
            .fetch_max(manifest.generation, Ordering::AcqRel);
        let manifest_changed = self.seen_manifest.as_deref() != Some(&mbytes[..]);
        let mut resynced = false;
        if self.session.is_none() {
            let (session, start_seq) = self.bootstrap()?;
            self.shared.applied_seq.store(start_seq, Ordering::Release);
            self.session = Some(session);
            // The checkpoint image was written by the manifest's
            // generation; everything it contains is that term's history.
            self.applied_gen = manifest.generation;
            resynced = true;
        }
        // Fetch and scan every listed segment up front: generation-aware
        // replay needs one segment of lookahead to cut a stale-term
        // tail. Salvage semantics on the shipped copies: a torn or
        // corrupted fetch still yields the valid record prefix.
        let mut scans: Vec<Option<wal::WalScan>> = Vec::with_capacity(manifest.segments.len());
        for name in &manifest.segments {
            let bytes = self
                .src
                .fetch(name)
                .map_err(|e| format!("ship {name}: {e}"))?;
            scans.push(bytes.map(|b| wal::scan(&b)));
        }
        // A segment whose successor carries a higher generation may end
        // in a zombie tail: appends the deposed primary raced past the
        // promotion. Apply the same cut recovery applies — drop records
        // at or beyond the successor's first sequence number.
        let mut caps: Vec<Option<u64>> = vec![None; scans.len()];
        for i in 0..scans.len().saturating_sub(1) {
            let (Some(cur), Some(next)) = (&scans[i], &scans[i + 1]) else {
                continue;
            };
            let (Some(cg), Some(ng)) = (cur.generation, next.generation) else {
                continue;
            };
            if ng > cg {
                if let Some(&(first, _)) = next.records.first() {
                    caps[i] = Some(first);
                }
            }
        }
        let mut applied_seq = self.shared.applied_seq.load(Ordering::Acquire);
        let mut shipped_seq = self.shared.shipped_seq.load(Ordering::Acquire);
        let mut applied = 0u64;
        let mut gap = false;
        let mut torn_image = false;
        'segments: for (i, scan) in scans.iter().enumerate() {
            let Some(scan) = scan else {
                // Retired (or not yet shipped); later segments decide
                // whether that leaves a gap.
                continue;
            };
            if let (Some(g), Some(&(first, _))) = (scan.generation, scan.records.first()) {
                if g > self.applied_gen && first <= applied_seq {
                    // A higher generation rewrote sequence numbers we
                    // already applied under an older term: we replayed a
                    // zombie tail the promotion discarded. Our state is
                    // off the surviving timeline — resync.
                    gap = true;
                    break 'segments;
                }
            }
            for (seq, payload) in &scan.records {
                if caps[i].is_some_and(|cap| *seq >= cap) {
                    break; // stale-term zombie tail; the successor owns these seqs
                }
                shipped_seq = shipped_seq.max(*seq);
                if *seq <= applied_seq {
                    continue; // duplicate / stale shipment
                }
                if *seq > applied_seq + 1 {
                    // The unit between was retired unseen: resync from
                    // the (necessarily newer) checkpoint image.
                    gap = true;
                    break 'segments;
                }
                let sess = self.session.as_mut().expect("bootstrapped above");
                sess.apply_commit_payload(payload)
                    .map_err(|e| format!("apply unit {seq}: {e}"))?;
                applied_seq = *seq;
                applied += 1;
                if let Some(g) = scan.generation {
                    self.applied_gen = self.applied_gen.max(g);
                }
            }
        }
        if !gap && applied == 0 && manifest_changed && !resynced {
            // The manifest moved but nothing replayed. If the image
            // frontier is past us, a checkpoint retired the records we
            // still needed — with no later records left to expose the
            // sequence gap (e.g. the primary's last act before going
            // quiet was the checkpoint itself). Every checkpoint starts
            // a fresh segment, so every checkpoint changes the manifest.
            // Resync; a replica that trusts silence here serves stale
            // reads at "lag 0".
            match self.fetch_image()? {
                Some(Ok(snap)) => gap = snap.last_seq > applied_seq,
                // A torn image says nothing: leave the manifest unseen
                // so the next round looks again.
                Some(Err(())) => torn_image = true,
                None => {}
            }
        }
        if gap && !resyncing {
            self.session = None;
            self.shared.resyncs.inc();
            let again = self.step_inner(true)?;
            return Ok(SyncProgress {
                applied: again.applied,
                resynced: true,
            });
        }
        self.seen_manifest = (!torn_image).then_some(mbytes);
        self.shared
            .shipped_seq
            .fetch_max(shipped_seq, Ordering::AcqRel);
        if applied > 0 || resynced {
            let sess = self.session.as_mut().expect("bootstrapped above");
            sess.db_mut().commit();
            self.shared
                .applied_seq
                .store(applied_seq, Ordering::Release);
            self.shared.applied_units.add(applied);
            self.shared.epoch.publish(sess.db().clone());
        }
        self.shared.lag_gauge.set(self.shared.lag() as i64);
        Ok(SyncProgress { applied, resynced })
    }

    /// Spawns the background poll loop, returning the running replica.
    pub fn spawn(self, poll: Duration) -> Replica {
        let shared = self.shared();
        let mut core = self;
        let thread = std::thread::Builder::new()
            .name("xsql-replica-tailer".into())
            .spawn(move || {
                while !core.shared.stop.load(Ordering::Acquire) {
                    // Round errors are recorded on the shared state and
                    // retried; a replica outlives transient ship faults.
                    let _ = core.step();
                    std::thread::sleep(poll);
                }
                core
            })
            .expect("spawn replica tailer");
        Replica {
            shared,
            thread: Some(thread),
        }
    }
}

/// A running replica: the tailer thread plus the shared serving view.
pub struct Replica {
    shared: Arc<ReplicaShared>,
    thread: Option<JoinHandle<ReplicaCore>>,
}

impl Replica {
    /// The shared view served to clients.
    pub fn shared(&self) -> Arc<ReplicaShared> {
        Arc::clone(&self.shared)
    }

    /// Blocks until the replica has applied at least `seq`, or the
    /// timeout expires. Returns whether the target was reached.
    pub fn wait_for_seq(&self, seq: u64, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        while self.shared.applied_seq() < seq {
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        true
    }

    /// Stops the poll loop and returns the core (for inspection or
    /// manual stepping).
    pub fn stop(mut self) -> ReplicaCore {
        self.shared.stop.store(true, Ordering::Release);
        self.thread
            .take()
            .expect("stopped once")
            .join()
            .expect("replica tailer panicked")
    }
}

impl Drop for Replica {
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::Release);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}
