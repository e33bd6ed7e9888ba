//! The durable store: one directory, segmented WAL, full-image
//! checkpoints, a health state machine for hostile disks.
//!
//! Protocols:
//!
//! * **Commit.** [`Store::append_commit`] frames the payload with the
//!   next sequence number, appends it to the active WAL segment, and
//!   (unless disabled for group commit) fsyncs before returning. The
//!   caller acknowledges the statement only after this returns `Ok`, so
//!   a crash can lose at most the unacknowledged suffix. When the
//!   active segment would exceed [`StoreConfig::segment_max_bytes`] the
//!   store *rotates*: fsync the old segment, start a new one, rewrite
//!   the manifest.
//! * **Checkpoint.** [`Store::checkpoint`] writes the whole image to
//!   `snapshot.tmp`, fsyncs and renames it to `snapshot.bin`, then
//!   rotates onto a fresh active segment and rewrites the manifest to
//!   list only that segment. Every older segment is covered by the new
//!   image and is deleted (retirement, not quarantine). Every crash
//!   point leaves a recoverable image: until the final manifest lands,
//!   the old segments are still listed and their records are skipped
//!   by sequence. Because each checkpoint changes the manifest, a
//!   replica always notices one.
//! * **Recovery.** [`Store::open`] loads `snapshot.bin`, scans the
//!   segments in manifest order, and salvages the longest valid record
//!   prefix. A torn tail in the *final*
//!   segment is truncated in place (expected crash state); a bad record
//!   *mid-log* (more log follows it) is hostile corruption: the valid
//!   prefix of the offending segment is copied to a fresh segment, the
//!   corrupt segment and everything after it are renamed to
//!   `*.quarantined` (never deleted), and the salvage point — segment,
//!   byte offset of the first bad record, records dropped — is reported
//!   in [`SalvageReport`].
//! * **Hostile disks.** Transient I/O errors (classified by
//!   [`classify_io`]) are retried with bounded exponential backoff.
//!   `ENOSPC` flips the store to [`StoreHealth::DegradedReadOnly`]:
//!   appends fail fast with [`StorageError::DiskFull`] while reads keep
//!   working; [`Store::probe_space`] (rate-limited) tests for freed
//!   space and moves the store through `Recovering` back to `Healthy`
//!   on the next successful durable write — no restart required.

use crate::fs::{classify_io, IoClass, StorageFs};
use crate::manifest::{parse_manifest, render_manifest, Manifest};
use crate::snapshot::{decode_snapshot, encode_snapshot, SnapshotFile};
use crate::{wal, StorageError, StorageResult};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

const META: &str = "meta";
const LEGACY_WAL: &str = "wal";
const MANIFEST: &str = "manifest";
const MANIFEST_TMP: &str = "manifest.tmp";
const SNAPSHOT: &str = "snapshot.bin";
const SNAPSHOT_TMP: &str = "snapshot.tmp";
const PROBE: &str = "probe.tmp";
const META_MAGIC: &str = "XSQLSTOREv1";

/// Suffix appended to quarantined segment file names.
pub const QUARANTINE_SUFFIX: &str = ".quarantined";

/// Retry policy for transient I/O errors: up to `attempts` tries with
/// exponential backoff starting at `base_delay` (a zero base delay
/// retries immediately — what the deterministic tests use).
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Total attempts, including the first (minimum 1).
    pub attempts: u32,
    /// Delay before the first retry; doubles each retry.
    pub base_delay: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            attempts: 4,
            base_delay: Duration::from_millis(1),
        }
    }
}

/// Tuning knobs for segment rotation, automatic checkpoints, ENOSPC
/// probing and transient-error retries. The defaults keep rotation and
/// auto-checkpointing inert for small workloads (and therefore for the
/// deterministic fault tests, which count I/O operations).
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Rotate the active WAL segment before it would exceed this size.
    pub segment_max_bytes: u64,
    /// [`Store::checkpoint_due`] fires once this many *sealed*
    /// (non-active) segments have accumulated…
    pub checkpoint_segments: usize,
    /// …or once the total WAL bytes exceed this.
    pub checkpoint_max_wal_bytes: u64,
    /// Rate limit between automatic checkpoints.
    pub checkpoint_min_interval: Duration,
    /// Rate limit between ENOSPC probes while degraded.
    pub probe_min_interval: Duration,
    /// Transient-error retry policy.
    pub retry: RetryPolicy,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            segment_max_bytes: 4 << 20,
            checkpoint_segments: 4,
            checkpoint_max_wal_bytes: 16 << 20,
            checkpoint_min_interval: Duration::from_secs(2),
            probe_min_interval: Duration::from_millis(250),
            retry: RetryPolicy::default(),
        }
    }
}

/// The store's disk-health state machine (exported as the
/// `store_health` gauge: 0 healthy, 1 degraded, 2 recovering).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreHealth {
    /// Normal operation.
    Healthy,
    /// The disk filled up; writes are refused with
    /// [`StorageError::DiskFull`], reads keep working.
    DegradedReadOnly,
    /// A probe saw free space; the next successful durable write
    /// returns the store to `Healthy`.
    Recovering,
}

impl StoreHealth {
    /// Stable label for telemetry and reports.
    pub fn name(self) -> &'static str {
        match self {
            StoreHealth::Healthy => "healthy",
            StoreHealth::DegradedReadOnly => "degraded_read_only",
            StoreHealth::Recovering => "recovering",
        }
    }

    /// Gauge encoding (0/1/2).
    pub fn as_gauge(self) -> i64 {
        match self {
            StoreHealth::Healthy => 0,
            StoreHealth::DegradedReadOnly => 1,
            StoreHealth::Recovering => 2,
        }
    }
}

/// Outcome of one checkpoint: what was written and how much.
#[derive(Debug, Clone, Copy)]
pub struct CheckpointStats {
    /// Payload bytes written (the snapshot file, excluding manifest
    /// bookkeeping).
    pub bytes: u64,
    /// WAL segments retired (deleted after being fully covered).
    pub segments_retired: usize,
}

/// Where recovery found the first bad WAL record and what it did about
/// it. `Store::open` always keeps the longest valid record prefix; the
/// report says what was *lost*.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SalvageReport {
    /// Segment containing the first bad record.
    pub segment: String,
    /// Byte offset of the first bad record within that segment.
    pub offset: u64,
    /// Parseable records discarded past the salvage point (records in
    /// the unparseable tail itself cannot be counted).
    pub records_dropped: u64,
    /// Total bytes discarded past the salvage point.
    pub bytes_dropped: u64,
    /// Files renamed to `*.quarantined` (empty for a plain torn tail,
    /// which is truncated in place).
    pub quarantined: Vec<String>,
}

/// One live WAL segment as tracked in memory.
#[derive(Debug, Clone)]
struct Segment {
    name: String,
    /// Record bytes in the segment, *excluding* the segment header, so
    /// rotation thresholds measure payload, not framing.
    bytes: u64,
}

impl Segment {
    fn fresh(name: String) -> Segment {
        Segment { name, bytes: 0 }
    }
}

/// Handle to one store directory. All I/O goes through the injected
/// [`StorageFs`].
pub struct Store {
    fs: Box<dyn StorageFs>,
    dir: PathBuf,
    cfg: StoreConfig,
    next_seq: u64,
    sync_on_commit: bool,
    segments: Vec<Segment>,
    /// Next index for segment file names.
    next_file_idx: u64,
    /// Primary generation (fencing term) this writer holds. Appends,
    /// syncs and checkpoints re-validate it against the shared manifest
    /// and refuse with [`StorageError::Fenced`] once a newer writer has
    /// bumped it.
    generation: u64,
    /// `Some(observed)` once a newer generation was observed: the store
    /// is permanently fenced (terminal for this instance).
    fenced: Option<u64>,
    health: StoreHealth,
    last_probe: Option<Instant>,
    last_checkpoint: Option<Instant>,
    /// Cached metric handles, present once a registry is attached
    /// ([`Store::attach_registry`]). Instrumentation is pure timing and
    /// atomic counting around the existing I/O calls — it never adds a
    /// filesystem operation, so fault-injection tests that count ops
    /// see the same sequence with or without telemetry.
    metrics: Option<StoreMetrics>,
}

/// Cached handles into the attached telemetry registry.
struct StoreMetrics {
    wal_append_latency: std::sync::Arc<telemetry::Histogram>,
    wal_fsync_latency: std::sync::Arc<telemetry::Histogram>,
    checkpoint_latency_ok: std::sync::Arc<telemetry::Histogram>,
    checkpoint_latency_err: std::sync::Arc<telemetry::Histogram>,
    wal_appends: std::sync::Arc<telemetry::Counter>,
    wal_bytes: std::sync::Arc<telemetry::Counter>,
    io_retries: std::sync::Arc<telemetry::Counter>,
    disk_full: std::sync::Arc<telemetry::Counter>,
    checkpoints: std::sync::Arc<telemetry::Counter>,
    checkpoint_bytes: std::sync::Arc<telemetry::Counter>,
    health: std::sync::Arc<telemetry::Gauge>,
    generation: std::sync::Arc<telemetry::Gauge>,
}

impl std::fmt::Debug for Store {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Store")
            .field("dir", &self.dir)
            .field("next_seq", &self.next_seq)
            .field("sync_on_commit", &self.sync_on_commit)
            .field("segments", &self.segments.len())
            .field("generation", &self.generation)
            .field("fenced", &self.fenced.is_some())
            .field("health", &self.health)
            .finish()
    }
}

/// What [`Store::open`] found on disk.
#[derive(Debug)]
pub struct Recovered {
    /// Base-fixture tag from the `meta` file.
    pub base_tag: String,
    /// The latest checkpoint image, if a checkpoint was ever taken.
    pub snapshot: Option<SnapshotFile>,
    /// Valid WAL records past the snapshot (`seq > snapshot.last_seq`),
    /// as raw payloads in log order; the session decodes them against
    /// its own OID table as it replays.
    pub tail: Vec<(u64, Vec<u8>)>,
    /// Present when recovery had to discard WAL bytes (torn tail or
    /// quarantined corruption).
    pub salvage: Option<SalvageReport>,
}

fn seg_name(idx: u64) -> String {
    format!("wal.{idx:06}")
}

/// Extracts the numeric index from `wal.NNNNNN` file names (0 for the
/// legacy bare `wal`).
fn file_idx(name: &str) -> u64 {
    name.split('.')
        .nth(1)
        .and_then(|s| s.parse::<u64>().ok())
        .unwrap_or(0)
}

impl Store {
    fn path(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }

    /// True if `dir` already contains a store (its `meta` file exists).
    pub fn exists(fs: &dyn StorageFs, dir: &Path) -> bool {
        fs.exists(&dir.join(META))
    }

    /// Reads just the base-fixture tag of an existing store, without
    /// opening it (the CLI uses this to pick the right fixture before
    /// constructing a session).
    pub fn read_base_tag(fs: &dyn StorageFs, dir: &Path) -> StorageResult<String> {
        parse_meta(&fs.read(&dir.join(META))?)
    }

    fn blank(fs: Box<dyn StorageFs>, dir: PathBuf, cfg: StoreConfig) -> Store {
        Store {
            fs,
            dir,
            cfg,
            next_seq: 1,
            sync_on_commit: true,
            segments: Vec::new(),
            next_file_idx: 1,
            generation: 1,
            fenced: None,
            health: StoreHealth::Healthy,
            last_probe: None,
            last_checkpoint: None,
            metrics: None,
        }
    }

    /// Creates a fresh store in `dir` (which must not already hold one).
    pub fn create(
        fs: Box<dyn StorageFs>,
        dir: impl Into<PathBuf>,
        base_tag: &str,
    ) -> StorageResult<Store> {
        Store::create_with(fs, dir, base_tag, StoreConfig::default())
    }

    /// [`Store::create`] with explicit tuning.
    pub fn create_with(
        fs: Box<dyn StorageFs>,
        dir: impl Into<PathBuf>,
        base_tag: &str,
        cfg: StoreConfig,
    ) -> StorageResult<Store> {
        let dir = dir.into();
        if Store::exists(fs.as_ref(), &dir) {
            return Err(StorageError::Corrupt(format!(
                "store already exists in {}",
                dir.display()
            )));
        }
        fs.create_dir_all(&dir)?;
        let mut store = Store::blank(fs, dir, cfg);
        let meta = format!("{META_MAGIC}\n{base_tag}\n");
        store.fs.write(&store.path(META), meta.as_bytes())?;
        store.fs.sync(&store.path(META))?;
        let first = seg_name(store.next_file_idx);
        store.next_file_idx += 1;
        store
            .fs
            .write(&store.path(&first), &wal::segment_header(store.generation))?;
        store.fs.sync(&store.path(&first))?;
        let man = Manifest {
            generation: store.generation,
            segments: vec![first.clone()],
        };
        store
            .fs
            .write(&store.path(MANIFEST), &render_manifest(&man))?;
        store.fs.sync(&store.path(MANIFEST))?;
        store.segments.push(Segment::fresh(first));
        store.fs.sync_dir(&store.dir)?;
        // The store directory's own entry must also be durable, or a
        // crash right after create could lose the whole store even
        // though its files were fsynced.
        if let Some(parent) = store.dir.parent() {
            if !parent.as_os_str().is_empty() {
                store.fs.sync_dir(parent)?;
            }
        }
        Ok(store)
    }

    /// Opens an existing store, running recovery; see the module docs
    /// for the salvage and quarantine rules.
    pub fn open(
        fs: Box<dyn StorageFs>,
        dir: impl Into<PathBuf>,
    ) -> StorageResult<(Store, Recovered)> {
        Store::open_with(fs, dir, StoreConfig::default())
    }

    /// [`Store::open`] with explicit tuning.
    pub fn open_with(
        fs: Box<dyn StorageFs>,
        dir: impl Into<PathBuf>,
        cfg: StoreConfig,
    ) -> StorageResult<(Store, Recovered)> {
        let dir = dir.into();
        let mut store = Store::blank(fs, dir, cfg);
        let base_tag = parse_meta(&store.fs.read(&store.path(META))?)?;
        // Leftover temp/probe files are dead weight from a crash mid-
        // protocol. Make the removal durable so they cannot reappear
        // after another crash and be mistaken for in-progress work.
        let mut removed_tmp = false;
        for tmp in [SNAPSHOT_TMP, MANIFEST_TMP, PROBE] {
            if store.fs.exists(&store.path(tmp)) {
                store.fs.remove(&store.path(tmp))?;
                removed_tmp = true;
            }
        }
        if removed_tmp {
            store.fs.sync_dir(&store.dir)?;
        }

        let man = if store.fs.exists(&store.path(MANIFEST)) {
            parse_manifest(&store.fs.read(&store.path(MANIFEST))?)?
        } else if store.fs.exists(&store.path(LEGACY_WAL)) {
            // Pre-manifest store: one bare `wal` file is the only
            // segment. The first rotation or checkpoint writes the real
            // manifest.
            Manifest {
                generation: 1,
                segments: vec![LEGACY_WAL.to_string()],
            }
        } else {
            Manifest::default()
        };
        // A plain open *adopts* the manifest generation: only an
        // explicit promotion bumps it, so a deposed primary that
        // restarts after the new one took over comes back as a writer
        // of the *current* term, not a stale one.
        store.generation = man.generation;
        store.next_file_idx = man.segments.iter().map(|n| file_idx(n)).max().unwrap_or(0) + 1;

        let snapshot = if store.fs.exists(&store.path(SNAPSHOT)) {
            Some(decode_snapshot(&store.fs.read(&store.path(SNAPSHOT))?)?)
        } else {
            None
        };
        let covered = snapshot.as_ref().map_or(0, |s| s.last_seq);

        // Scan segments in manifest order, enforcing cross-segment
        // sequence continuity, and find the first bad point.
        let n_segs = man.segments.len();
        let mut scans: Vec<(String, Vec<u8>, wal::WalScan)> = Vec::with_capacity(n_segs);
        for (i, name) in man.segments.iter().enumerate() {
            let bytes = if store.fs.exists(&store.path(name)) {
                store.fs.read(&store.path(name))?
            } else if i + 1 == n_segs {
                // The active segment is created lazily on first append;
                // a listed-but-missing *final* segment is simply empty.
                Vec::new()
            } else {
                return Err(StorageError::CorruptSegment {
                    segment: name.clone(),
                    offset: 0,
                    detail: "manifest lists a missing non-final segment".into(),
                });
            };
            let scan = wal::scan(&bytes);
            scans.push((name.clone(), bytes, scan));
        }

        // Fencing pre-pass, before the continuity check. A deposed
        // primary can race the promotion and append a few records to
        // its old segment *after* the promoted writer rotated to a new,
        // higher-generation segment — zombie records that were never
        // acknowledged (the ack-path fsync re-validates the generation)
        // and that the new timeline re-issued under the same sequence
        // numbers. When a segment overlaps a higher-generation
        // successor, cut it at the first re-issued sequence: salvage
        // the prefix under a fresh name, quarantine the original.
        let mut stale_salvage: Option<SalvageReport> = None;
        for i in 0..scans.len().saturating_sub(1) {
            let (cur_gen, next_gen) = match (scans[i].2.generation, scans[i + 1].2.generation) {
                (Some(c), Some(n)) => (c, n),
                _ => continue,
            };
            if next_gen <= cur_gen {
                continue;
            }
            let next_first = match scans[i + 1].2.records.first() {
                Some(&(seq, _)) => seq,
                None => continue,
            };
            let cut = match scans[i]
                .2
                .records
                .iter()
                .position(|&(seq, _)| seq >= next_first)
            {
                Some(k) => k,
                None => continue,
            };
            let name = scans[i].0.clone();
            let cut_offset = scans[i].2.header_len
                + scans[i].2.records[..cut]
                    .iter()
                    .map(|(_, p)| (wal::HEADER + p.len()) as u64)
                    .sum::<u64>();
            let prefix = scans[i].1[..cut_offset as usize].to_vec();
            let total = scans[i].1.len() as u64;
            let dropped = (scans[i].2.records.len() - cut) as u64;
            let salvaged = seg_name(store.next_file_idx);
            store.next_file_idx += 1;
            store.fs.write(&store.path(&salvaged), &prefix)?;
            store.fs.sync(&store.path(&salvaged))?;
            let q = format!("{name}{QUARANTINE_SUFFIX}");
            store.fs.rename(&store.path(&name), &store.path(&q))?;
            store.fs.sync_dir(&store.dir)?;
            let report = stale_salvage.get_or_insert_with(|| SalvageReport {
                segment: name.clone(),
                offset: cut_offset,
                records_dropped: 0,
                bytes_dropped: 0,
                quarantined: Vec::new(),
            });
            report.records_dropped += dropped;
            report.bytes_dropped += total - cut_offset;
            report.quarantined.push(q);
            let new_scan = wal::scan(&prefix);
            scans[i] = (salvaged, prefix, new_scan);
        }

        // First bad point: (segment index, byte offset). A continuity
        // break invalidates the whole segment (offset 0).
        let mut bad: Option<(usize, u64)> = None;
        let mut prev_last: Option<u64> = None;
        for (i, (_, bytes, scan)) in scans.iter().enumerate() {
            if let Some(&(first, _)) = scan.records.first() {
                if prev_last.is_some_and(|p| first <= p) {
                    bad = Some((i, 0));
                    break;
                }
            }
            if scan.valid_len < bytes.len() as u64 {
                bad = Some((i, scan.valid_len));
                break;
            }
            if let Some(&(last, _)) = scan.records.last() {
                prev_last = Some(last);
            }
        }

        let mut salvage: Option<SalvageReport> = None;
        let mut records: Vec<(u64, Vec<u8>)> = Vec::new();
        let mut segments: Vec<Segment> = Vec::new();
        let mut quarantined_from_salvage: Vec<String> = Vec::new();
        let keep_upto = bad.map_or(scans.len(), |(i, _)| i + 1);
        match bad {
            None => {
                for (name, bytes, scan) in scans {
                    segments.push(seg_from_scan(name, bytes.len() as u64, &scan));
                    records.extend(scan.records);
                }
            }
            Some((i, offset)) if i + 1 == n_segs => {
                // Bad point in the final segment: the classic torn tail
                // (or a continuity break at its first record). Truncate
                // in place, durably, exactly as before — but report it.
                // An intact generation header survives the truncation.
                for (name, bytes, scan) in scans.into_iter().take(keep_upto) {
                    let is_bad = segments.len() == i;
                    let keep = if is_bad {
                        offset.max(scan.header_len)
                    } else {
                        bytes.len() as u64
                    };
                    if is_bad && keep < bytes.len() as u64 {
                        store.fs.truncate(&store.path(&name), keep)?;
                        store.fs.sync(&store.path(&name))?;
                        let dropped_records = if offset == 0 {
                            scan.records.len() as u64
                        } else {
                            0
                        };
                        salvage = Some(SalvageReport {
                            segment: name.clone(),
                            offset,
                            records_dropped: dropped_records,
                            bytes_dropped: bytes.len() as u64 - keep,
                            quarantined: Vec::new(),
                        });
                    }
                    if is_bad && offset == 0 {
                        segments.push(Segment::fresh(name));
                    } else {
                        segments.push(seg_from_scan(name, keep, &scan));
                        records.extend(scan.records);
                    }
                }
            }
            Some((i, offset)) => {
                // Hostile mid-log corruption: log continues past the bad
                // record. Salvage the valid prefix of the offending
                // segment into a fresh file, quarantine the corrupt
                // segment and everything after it (rename, never
                // delete), and count what was lost.
                let mut report = SalvageReport {
                    segment: scans[i].0.clone(),
                    offset,
                    records_dropped: 0,
                    bytes_dropped: 0,
                    quarantined: Vec::new(),
                };
                for (j, (name, bytes, scan)) in scans.into_iter().enumerate() {
                    if j < i {
                        segments.push(seg_from_scan(name, bytes.len() as u64, &scan));
                        records.extend(scan.records);
                    } else if j == i {
                        if offset > 0 {
                            let salvaged = seg_name(store.next_file_idx);
                            store.next_file_idx += 1;
                            store
                                .fs
                                .write(&store.path(&salvaged), &bytes[..offset as usize])?;
                            store.fs.sync(&store.path(&salvaged))?;
                            segments.push(seg_from_scan(salvaged, offset, &scan));
                            records.extend(scan.records);
                            report.bytes_dropped += bytes.len() as u64 - offset;
                        } else {
                            report.records_dropped += scan.records.len() as u64;
                            report.bytes_dropped += bytes.len() as u64;
                        }
                        let q = format!("{name}{QUARANTINE_SUFFIX}");
                        store.fs.rename(&store.path(&name), &store.path(&q))?;
                        report.quarantined.push(q);
                    } else {
                        // Unreachable past the break: preserve for
                        // forensics, count the parseable records lost.
                        report.records_dropped += scan.records.len() as u64;
                        report.bytes_dropped += bytes.len() as u64;
                        if store.fs.exists(&store.path(&name)) {
                            let q = format!("{name}{QUARANTINE_SUFFIX}");
                            store.fs.rename(&store.path(&name), &store.path(&q))?;
                            report.quarantined.push(q);
                        }
                    }
                }
                quarantined_from_salvage = report.quarantined.clone();
                salvage = Some(report);
            }
        }

        // Rewrite the manifest if recovery changed the live set
        // (segments salvaged/quarantined).
        let final_names: Vec<String> = segments.iter().map(|s| s.name.clone()).collect();
        if final_names != man.segments {
            let new_man = Manifest {
                generation: store.generation,
                segments: final_names,
            };
            store.write_manifest_raw(&new_man)?;
        }
        let _ = quarantined_from_salvage; // names live on in the report

        // A stale-term cut and a torn tail / corruption can both occur
        // in one recovery; report them as one salvage (earliest cut
        // point wins the headline fields, losses are summed).
        let salvage = match (stale_salvage, salvage) {
            (None, s) | (s, None) => s,
            (Some(mut a), Some(b)) => {
                a.records_dropped += b.records_dropped;
                a.bytes_dropped += b.bytes_dropped;
                a.quarantined.extend(b.quarantined);
                Some(a)
            }
        };

        let mut next_seq = covered + 1;
        if let Some(&(seq, _)) = records.last() {
            next_seq = next_seq.max(seq + 1);
        }
        store.next_seq = next_seq;
        store.segments = segments;
        let tail = records
            .into_iter()
            .filter(|&(seq, _)| seq > covered)
            .collect();
        Ok((
            store,
            Recovered {
                base_tag,
                snapshot,
                tail,
                salvage,
            },
        ))
    }

    /// Attaches a telemetry registry: WAL append/fsync and checkpoint
    /// latencies, appended-commit/byte/retry counters and the
    /// `store_health` gauge are recorded into it from now on. Metric
    /// handles are cached here, so the hot path never takes the
    /// registry lock.
    pub fn attach_registry(&mut self, registry: &telemetry::Registry) {
        let m = StoreMetrics {
            wal_append_latency: registry.latency("storage_wal_append_latency_us", &[]),
            wal_fsync_latency: registry.latency("storage_wal_fsync_latency_us", &[]),
            checkpoint_latency_ok: registry
                .latency("storage_checkpoint_latency_us", &[("result", "ok")]),
            checkpoint_latency_err: registry
                .latency("storage_checkpoint_latency_us", &[("result", "err")]),
            wal_appends: registry.counter("storage_wal_appends_total", &[]),
            wal_bytes: registry.counter("storage_wal_bytes_written_total", &[]),
            io_retries: registry.counter("storage_io_retries_total", &[]),
            disk_full: registry.counter("storage_disk_full_total", &[]),
            checkpoints: registry.counter("storage_checkpoints_total", &[("kind", "full")]),
            checkpoint_bytes: registry
                .counter("storage_checkpoint_bytes_total", &[("kind", "full")]),
            health: registry.gauge("store_health", &[]),
            generation: registry.gauge("store_generation", &[]),
        };
        m.health.set(self.health.as_gauge());
        m.generation.set(self.generation as i64);
        self.metrics = Some(m);
    }

    /// Sequence number of the most recently appended commit (0 if none).
    pub fn last_committed_seq(&self) -> u64 {
        self.next_seq - 1
    }

    /// Current disk-health state.
    pub fn health(&self) -> StoreHealth {
        self.health
    }

    /// The primary generation (fencing term) this writer holds.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// True once a newer generation was observed in the shared
    /// manifest: this instance is permanently fenced and will never
    /// extend the log again.
    pub fn is_fenced(&self) -> bool {
        self.fenced.is_some()
    }

    /// Re-validates this writer's generation against the shared
    /// manifest. A newer generation on disk means another writer was
    /// promoted: fence permanently and refuse. Called before every
    /// append, durability sync and checkpoint — the manifest read is
    /// cheap, never mutates, and is what makes a deposed primary's
    /// write *fail before the ack* instead of forking history.
    fn check_generation(&mut self) -> StorageResult<()> {
        if let Some(observed) = self.fenced {
            return Err(StorageError::Fenced {
                observed,
                own: self.generation,
            });
        }
        let path = self.path(MANIFEST);
        if !self.fs.exists(&path) {
            return Ok(());
        }
        let bytes = self.retrying(|fs| fs.read(&path))?;
        let man = parse_manifest(&bytes)?;
        if man.generation > self.generation {
            self.fenced = Some(man.generation);
            return Err(StorageError::Fenced {
                observed: man.generation,
                own: self.generation,
            });
        }
        Ok(())
    }

    /// Bumps the generation and rotates onto a fresh segment stamped
    /// with the new term, making the promotion durable in the manifest.
    /// From that rename on, the deposed writer's next append/sync
    /// observes the higher generation and fences itself. Returns the
    /// new generation.
    pub fn promote(&mut self) -> StorageResult<u64> {
        self.check_generation()?;
        self.generation += 1;
        self.rotate()?;
        if let Some(m) = &self.metrics {
            m.generation.set(self.generation as i64);
        }
        Ok(self.generation)
    }

    /// Replaces the tuning config (used by tests and the session).
    pub fn set_config(&mut self, cfg: StoreConfig) {
        self.cfg = cfg;
    }

    fn set_health(&mut self, h: StoreHealth) {
        if self.health == h {
            return;
        }
        if h == StoreHealth::DegradedReadOnly {
            if let Some(m) = &self.metrics {
                m.disk_full.inc();
            }
        }
        self.health = h;
        if let Some(m) = &self.metrics {
            m.health.set(h.as_gauge());
        }
    }

    /// Runs `op` with bounded-exponential-backoff retries for transient
    /// I/O errors. Hard errors and `ENOSPC` surface immediately (the
    /// latter as [`StorageError::DiskFull`]).
    fn retrying<T>(
        &self,
        mut op: impl FnMut(&dyn StorageFs) -> std::io::Result<T>,
    ) -> StorageResult<T> {
        let mut attempt = 0u32;
        loop {
            match op(self.fs.as_ref()) {
                Ok(v) => return Ok(v),
                Err(e) => {
                    if classify_io(&e) != IoClass::Transient
                        || attempt + 1 >= self.cfg.retry.attempts.max(1)
                    {
                        return Err(e.into());
                    }
                    if let Some(m) = &self.metrics {
                        m.io_retries.inc();
                    }
                    let delay = self.cfg.retry.base_delay * 2u32.saturating_pow(attempt);
                    if !delay.is_zero() {
                        std::thread::sleep(delay);
                    }
                    attempt += 1;
                }
            }
        }
    }

    /// Notes a possibly-DiskFull error: `ENOSPC` flips the store into
    /// read-only degraded mode.
    fn absorb<T>(&mut self, r: StorageResult<T>) -> StorageResult<T> {
        if matches!(r, Err(StorageError::DiskFull(_))) {
            self.set_health(StoreHealth::DegradedReadOnly);
        }
        r
    }

    /// Disables (or re-enables) the fsync after each commit append.
    /// Group commit uses this: the service's writer folds a batch into
    /// the log and makes it durable with one [`Store::sync_wal`].
    pub fn set_sync_on_commit(&mut self, on: bool) {
        self.sync_on_commit = on;
    }

    /// Fsyncs the active WAL segment. Group commit uses this: a batch
    /// of appends made with `sync_on_commit` disabled becomes durable
    /// all at once with this single sync, amortizing the fsync cost
    /// over the batch. (Rotation fsyncs a segment before sealing it, so
    /// the active segment is always the only unsynced one.)
    pub fn sync_wal(&mut self) -> StorageResult<()> {
        self.check_generation()?;
        let Some(active) = self.segments.last() else {
            return Ok(());
        };
        let path = self.path(&active.name);
        let started = self.metrics.as_ref().map(|_| Instant::now());
        let r = self.retrying(|fs| fs.sync(&path));
        self.absorb(r)?;
        if let (Some(m), Some(t0)) = (&self.metrics, started) {
            m.wal_fsync_latency.observe_since(t0);
        }
        Ok(())
    }

    /// Makes sure there is an active segment with room for `need` more
    /// bytes, rotating (or bootstrapping) if not.
    fn ensure_active_segment(&mut self, need: u64) -> StorageResult<()> {
        let rotate = match self.segments.last() {
            None => true,
            Some(a) => a.bytes > 0 && a.bytes + need > self.cfg.segment_max_bytes,
        };
        if rotate {
            self.rotate()?;
        }
        Ok(())
    }

    /// Seals the active segment (fsync) and starts a fresh one, making
    /// it live by rewriting the manifest.
    fn rotate(&mut self) -> StorageResult<()> {
        if let Some(active) = self.segments.last() {
            let path = self.path(&active.name);
            let r = self.retrying(|fs| fs.sync(&path));
            self.absorb(r)?;
        }
        let name = seg_name(self.next_file_idx);
        let path = self.path(&name);
        let header = wal::segment_header(self.generation);
        let r = self.retrying(|fs| fs.write(&path, &header));
        self.absorb(r)?;
        let mut man = self.manifest_image();
        man.segments.push(name.clone());
        self.write_manifest(&man)?;
        self.next_file_idx += 1;
        self.segments.push(Segment::fresh(name));
        Ok(())
    }

    /// The manifest reflecting the current in-memory live set.
    fn manifest_image(&self) -> Manifest {
        Manifest {
            generation: self.generation,
            segments: self.segments.iter().map(|s| s.name.clone()).collect(),
        }
    }

    /// Atomically replaces the manifest (write tmp, fsync, rename,
    /// fsync dir), with retries and ENOSPC accounting.
    fn write_manifest(&mut self, man: &Manifest) -> StorageResult<()> {
        let r = self.write_manifest_inner(man);
        self.absorb(r)
    }

    /// Manifest replacement without health accounting (recovery runs
    /// before the state machine is live).
    fn write_manifest_raw(&mut self, man: &Manifest) -> StorageResult<()> {
        self.write_manifest_inner(man)
    }

    fn write_manifest_inner(&self, man: &Manifest) -> StorageResult<()> {
        let bytes = render_manifest(man);
        let tmp = self.path(MANIFEST_TMP);
        let fin = self.path(MANIFEST);
        self.retrying(|fs| fs.write(&tmp, &bytes))?;
        self.retrying(|fs| fs.sync(&tmp))?;
        self.retrying(|fs| fs.rename(&tmp, &fin))?;
        self.retrying(|fs| fs.sync_dir(&self.dir))?;
        Ok(())
    }

    /// Appends one commit-unit payload to the WAL and makes it durable.
    /// Returns the record's sequence number. While degraded, fails fast
    /// with [`StorageError::DiskFull`] (after a rate-limited probe for
    /// freed space).
    pub fn append_commit(&mut self, payload: &[u8]) -> StorageResult<u64> {
        self.check_generation()?;
        if self.health == StoreHealth::DegradedReadOnly && !self.probe_space() {
            return Err(StorageError::DiskFull(
                "store is read-only (degraded) until disk space frees".into(),
            ));
        }
        let started = self.metrics.as_ref().map(|_| Instant::now());
        let seq = self.next_seq;
        let rec = wal::frame(seq, payload);
        self.ensure_active_segment(rec.len() as u64)?;
        let path = self.path(&self.segments.last().expect("active segment").name);
        let r = self.retrying(|fs| fs.append(&path, &rec));
        self.absorb(r)?;
        if self.sync_on_commit {
            let sync_started = started.map(|_| Instant::now());
            let r = self.retrying(|fs| fs.sync(&path));
            self.absorb(r)?;
            if let (Some(m), Some(t0)) = (&self.metrics, sync_started) {
                m.wal_fsync_latency.observe_since(t0);
            }
        }
        self.segments.last_mut().expect("active segment").bytes += rec.len() as u64;
        self.next_seq += 1;
        if self.health == StoreHealth::Recovering {
            self.set_health(StoreHealth::Healthy);
        }
        // Counted only on success: an errored append is rolled back and
        // never acknowledged, so acked commits == this counter.
        if let Some(m) = &self.metrics {
            m.wal_append_latency
                .observe_since(started.expect("paired with metrics"));
            m.wal_appends.inc();
            m.wal_bytes.add(rec.len() as u64);
        }
        Ok(seq)
    }

    /// While degraded, writes-syncs-removes a small probe file to test
    /// whether disk space has freed (rate-limited by
    /// [`StoreConfig::probe_min_interval`]). On success the store moves
    /// to [`StoreHealth::Recovering`]; the next successful durable
    /// write completes the round trip back to `Healthy`. Returns true
    /// when the store accepts writes again.
    pub fn probe_space(&mut self) -> bool {
        if self.fenced.is_some() {
            return false;
        }
        match self.health {
            StoreHealth::Healthy | StoreHealth::Recovering => return true,
            StoreHealth::DegradedReadOnly => {}
        }
        if let Some(t) = self.last_probe {
            if t.elapsed() < self.cfg.probe_min_interval {
                return false;
            }
        }
        self.last_probe = Some(Instant::now());
        let p = self.path(PROBE);
        let ok = self
            .fs
            .write(&p, &[0u8; 64])
            .and_then(|()| self.fs.sync(&p))
            .and_then(|()| self.fs.remove(&p))
            .is_ok();
        if ok {
            self.set_health(StoreHealth::Recovering);
        }
        ok
    }

    /// True when enough WAL has accumulated (segment count or bytes)
    /// that the session should fold it into a checkpoint, respecting
    /// the rate limit. Never true while degraded.
    pub fn checkpoint_due(&self) -> bool {
        if self.health != StoreHealth::Healthy {
            return false;
        }
        if let Some(t) = self.last_checkpoint {
            if t.elapsed() < self.cfg.checkpoint_min_interval {
                return false;
            }
        }
        let sealed = self.segments.len().saturating_sub(1);
        let bytes: u64 = self.segments.iter().map(|s| s.bytes).sum();
        sealed >= self.cfg.checkpoint_segments || bytes >= self.cfg.checkpoint_max_wal_bytes
    }

    /// Writes a full checkpoint covering everything committed so far,
    /// starts a fresh active segment and retires every older one (see
    /// the module docs). `snap.last_seq` is filled in by the store.
    pub fn checkpoint(&mut self, mut snap: SnapshotFile) -> StorageResult<CheckpointStats> {
        let started = self.metrics.as_ref().map(|_| Instant::now());
        snap.last_seq = self.last_committed_seq();
        let r = self.checkpoint_inner(snap);
        match (&r, &self.metrics, started) {
            (Ok(stats), Some(m), Some(t0)) => {
                m.checkpoint_latency_ok.observe_since(t0);
                m.checkpoints.inc();
                m.checkpoint_bytes.add(stats.bytes);
            }
            // A failed checkpoint must be visible in STATS too: a
            // degraded disk would otherwise look like "no checkpoints",
            // not "checkpoints failing".
            (Err(_), Some(m), Some(t0)) => m.checkpoint_latency_err.observe_since(t0),
            _ => {}
        }
        r
    }

    fn checkpoint_inner(&mut self, snap: SnapshotFile) -> StorageResult<CheckpointStats> {
        self.check_generation()?;
        let bytes = encode_snapshot(&snap);

        // 1. The new image becomes durable under its final name before
        //    anything references it.
        let tmp = self.path(SNAPSHOT_TMP);
        let fin = self.path(SNAPSHOT);
        let r = self.retrying(|fs| fs.write(&tmp, &bytes));
        self.absorb(r)?;
        let r = self.retrying(|fs| fs.sync(&tmp));
        self.absorb(r)?;
        let r = self.retrying(|fs| fs.rename(&tmp, &fin));
        self.absorb(r)?;
        let r = self.retrying(|fs| fs.sync_dir(&self.dir));
        self.absorb(r)?;

        // 2. A fresh active segment, listed after the old ones. From
        //    here on new commits go to it, so if the final manifest
        //    write fails, the manifest left on disk lists it either way.
        self.rotate()?;

        // 3. The image covers every older segment: list only the fresh
        //    one.
        let fresh = self.segments.len() - 1;
        self.write_manifest(&Manifest {
            generation: self.generation,
            segments: vec![self.segments[fresh].name.clone()],
        })?;
        let retired: Vec<Segment> = self.segments.drain(..fresh).collect();
        self.last_checkpoint = Some(Instant::now());
        if self.health == StoreHealth::Recovering {
            self.set_health(StoreHealth::Healthy);
        }

        // 4. Retired segments are unreferenced; deleting them is pure
        //    space reclamation (failures are harmless orphans).
        //    Quarantined files are never touched.
        for s in &retired {
            let _ = self.fs.remove(&self.path(&s.name));
        }

        Ok(CheckpointStats {
            bytes: bytes.len() as u64,
            segments_retired: retired.len(),
        })
    }
}

/// Builds the in-memory segment record from a scan; `file_len` is the
/// (kept) on-disk length *including* any segment header, which is
/// subtracted so `Segment::bytes` counts record bytes only.
fn seg_from_scan(name: String, file_len: u64, scan: &wal::WalScan) -> Segment {
    Segment {
        name,
        bytes: file_len.saturating_sub(scan.header_len),
    }
}

fn parse_meta(bytes: &[u8]) -> StorageResult<String> {
    let text =
        std::str::from_utf8(bytes).map_err(|_| StorageError::Corrupt("meta: not UTF-8".into()))?;
    let mut lines = text.lines();
    if lines.next() != Some(META_MAGIC) {
        return Err(StorageError::Corrupt("meta: bad magic".into()));
    }
    match lines.next() {
        Some(tag) if !tag.is_empty() => Ok(tag.to_string()),
        _ => Err(StorageError::Corrupt("meta: missing base tag".into())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fs::RealFs;
    use std::sync::atomic::{AtomicU32, Ordering};

    fn tmp_dir(name: &str) -> PathBuf {
        static N: AtomicU32 = AtomicU32::new(0);
        let d = std::env::temp_dir().join(format!(
            "xsql-store-{}-{}-{}",
            std::process::id(),
            name,
            N.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    /// One record per segment: with a 1-byte cap, any non-empty active
    /// segment rotates before the next append.
    fn tiny_segments() -> StoreConfig {
        StoreConfig {
            segment_max_bytes: 1,
            ..StoreConfig::default()
        }
    }

    #[test]
    fn create_append_reopen_roundtrip_on_real_fs() {
        let dir = tmp_dir("roundtrip");
        let mut store = Store::create(Box::new(RealFs), &dir, "figure1").unwrap();
        assert_eq!(store.append_commit(b"one").unwrap(), 1);
        assert_eq!(store.append_commit(b"two").unwrap(), 2);
        drop(store);
        assert!(Store::exists(&RealFs, &dir));
        assert_eq!(Store::read_base_tag(&RealFs, &dir).unwrap(), "figure1");
        let (store, rec) = Store::open(Box::new(RealFs), &dir).unwrap();
        assert_eq!(rec.base_tag, "figure1");
        assert!(rec.snapshot.is_none());
        assert!(rec.salvage.is_none());
        assert_eq!(rec.tail, vec![(1, b"one".to_vec()), (2, b"two".to_vec())]);
        assert_eq!(store.last_committed_seq(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_starts_a_fresh_segment_and_survives_reopen() {
        let dir = tmp_dir("checkpoint");
        let mut store = Store::create(Box::new(RealFs), &dir, "empty").unwrap();
        store.append_commit(b"one").unwrap();
        let stats = store
            .checkpoint(SnapshotFile {
                base_tag: "empty".into(),
                anon_counter: 5,
                ..SnapshotFile::default()
            })
            .unwrap();
        assert_eq!(stats.segments_retired, 1);
        assert!(!dir.join("wal.000001").exists());
        assert_eq!(
            parse_manifest(&std::fs::read(dir.join(MANIFEST)).unwrap())
                .unwrap()
                .segments,
            vec!["wal.000002".to_string()]
        );
        store.append_commit(b"after").unwrap();
        drop(store);
        let (store, rec) = Store::open(Box::new(RealFs), &dir).unwrap();
        let snap = rec.snapshot.unwrap();
        assert_eq!(snap.last_seq, 1);
        assert_eq!(snap.anon_counter, 5);
        // Only the post-checkpoint record replays.
        assert_eq!(rec.tail, vec![(2, b"after".to_vec())]);
        assert_eq!(store.last_committed_seq(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn every_checkpoint_rewrites_the_manifest() {
        // A checkpoint that retires nothing but the active segment must
        // still change the manifest bytes: that change is how a replica
        // learns that records it needed were folded into the image.
        let dir = tmp_dir("ckpt-manifest");
        let mut store = Store::create(Box::new(RealFs), &dir, "empty").unwrap();
        let mut seen = vec![std::fs::read(dir.join(MANIFEST)).unwrap()];
        for i in 0..3u64 {
            store.append_commit(b"x").unwrap();
            store
                .checkpoint(SnapshotFile {
                    base_tag: "empty".into(),
                    anon_counter: i,
                    ..SnapshotFile::default()
                })
                .unwrap();
            let now = std::fs::read(dir.join(MANIFEST)).unwrap();
            assert!(
                !seen.contains(&now),
                "checkpoint {i} left the manifest as it was"
            );
            seen.push(now);
        }
        let (_, rec) = Store::open(Box::new(RealFs), &dir).unwrap();
        let snap = rec.snapshot.unwrap();
        assert_eq!((snap.last_seq, snap.anon_counter), (3, 2));
        assert!(rec.tail.is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rotation_spreads_records_over_segments_and_reopens() {
        let dir = tmp_dir("rotate");
        let mut store =
            Store::create_with(Box::new(RealFs), &dir, "empty", tiny_segments()).unwrap();
        for i in 1..=5u64 {
            assert_eq!(store.append_commit(format!("r{i}").as_bytes()).unwrap(), i);
        }
        assert_eq!(store.segments.len(), 5);
        drop(store);
        // Reopen must stitch the segments back together in order.
        let (store, rec) = Store::open(Box::new(RealFs), &dir).unwrap();
        assert_eq!(
            rec.tail.iter().map(|r| r.0).collect::<Vec<_>>(),
            vec![1, 2, 3, 4, 5]
        );
        assert!(rec.salvage.is_none());
        assert_eq!(store.last_committed_seq(), 5);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_retires_covered_segments() {
        let dir = tmp_dir("retire");
        let mut store =
            Store::create_with(Box::new(RealFs), &dir, "empty", tiny_segments()).unwrap();
        for _ in 0..4 {
            store.append_commit(b"x").unwrap();
        }
        assert!(store.checkpoint_due() || store.segments.len() == 4);
        let stats = store
            .checkpoint(SnapshotFile {
                base_tag: "empty".into(),
                ..SnapshotFile::default()
            })
            .unwrap();
        // All four segments, the active one included, are covered.
        assert_eq!(stats.segments_retired, 4);
        assert_eq!(store.segments.len(), 1);
        // Retired segment files are gone; a fresh, empty one is active.
        for i in 1..=4 {
            assert!(!dir.join(seg_name(i)).exists());
        }
        assert!(dir.join("wal.000005").exists());
        store.append_commit(b"next").unwrap();
        drop(store);
        let (_, rec) = Store::open(Box::new(RealFs), &dir).unwrap();
        assert_eq!(rec.snapshot.unwrap().last_seq, 4);
        assert_eq!(rec.tail, vec![(5, b"next".to_vec())]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_wal_tail_is_truncated_on_open() {
        let dir = tmp_dir("torn");
        let mut store = Store::create(Box::new(RealFs), &dir, "empty").unwrap();
        store.append_commit(b"good").unwrap();
        drop(store);
        // Simulate a torn append directly on the real file.
        let wal_path = dir.join("wal.000001");
        let mut bytes = std::fs::read(&wal_path).unwrap();
        let keep = bytes.len();
        let rec = wal::frame(2, b"torn-away");
        bytes.extend_from_slice(&rec[..rec.len() - 3]);
        std::fs::write(&wal_path, &bytes).unwrap();
        let (mut store, rec) = Store::open(Box::new(RealFs), &dir).unwrap();
        assert_eq!(rec.tail, vec![(1, b"good".to_vec())]);
        assert_eq!(std::fs::read(&wal_path).unwrap().len(), keep);
        // A torn tail is salvaged in place, nothing quarantined.
        let salvage = rec.salvage.unwrap();
        assert_eq!(salvage.segment, "wal.000001");
        assert_eq!(salvage.offset, keep as u64);
        assert_eq!(salvage.records_dropped, 0);
        assert!(salvage.quarantined.is_empty());
        // Appending after repair continues a clean log.
        assert_eq!(store.append_commit(b"next").unwrap(), 2);
        drop(store);
        let (_, rec) = Store::open(Box::new(RealFs), &dir).unwrap();
        assert_eq!(rec.tail, vec![(1, b"good".to_vec()), (2, b"next".to_vec())]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mid_log_corruption_quarantines_and_salvages_the_prefix() {
        let dir = tmp_dir("quarantine");
        let mut store =
            Store::create_with(Box::new(RealFs), &dir, "empty", tiny_segments()).unwrap();
        for i in 1..=4u64 {
            store.append_commit(format!("r{i}").as_bytes()).unwrap();
        }
        drop(store);
        // Flip a payload bit in segment 2 — corruption *mid-log*, with
        // two healthy segments after it.
        let seg2 = dir.join("wal.000002");
        let mut bytes = std::fs::read(&seg2).unwrap();
        let n = bytes.len();
        bytes[n - 1] ^= 0x01;
        std::fs::write(&seg2, &bytes).unwrap();
        let (mut store, rec) = Store::open(Box::new(RealFs), &dir).unwrap();
        // Only the prefix before the bad record survives.
        assert_eq!(rec.tail, vec![(1, b"r1".to_vec())]);
        let salvage = rec.salvage.unwrap();
        assert_eq!(salvage.segment, "wal.000002");
        // Nothing salvageable past the generation header.
        assert_eq!(salvage.offset, wal::SEG_HEADER as u64);
        // r2 is unparseable (bad CRC ⇒ not a record); r3 and r4 parsed
        // fine but are unreachable past the corruption.
        assert_eq!(salvage.records_dropped, 2);
        assert_eq!(
            salvage.quarantined,
            vec![
                "wal.000002.quarantined".to_string(),
                "wal.000003.quarantined".to_string(),
                "wal.000004.quarantined".to_string(),
            ]
        );
        // Quarantined, never deleted: the corrupt bytes are still there.
        assert_eq!(
            std::fs::read(dir.join("wal.000002.quarantined")).unwrap(),
            bytes
        );
        // The store keeps working from the salvage point.
        assert_eq!(store.append_commit(b"r2-again").unwrap(), 2);
        drop(store);
        let (_, rec) = Store::open(Box::new(RealFs), &dir).unwrap();
        assert!(rec.salvage.is_none());
        assert_eq!(
            rec.tail,
            vec![(1, b"r1".to_vec()), (2, b"r2-again".to_vec())]
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corruption_inside_a_sealed_segment_salvages_its_valid_prefix() {
        let dir = tmp_dir("salvage-prefix");
        let cfg = StoreConfig {
            // Two records per segment (16-byte record header + 2-byte
            // payload each; the segment header doesn't count).
            segment_max_bytes: 36,
            ..StoreConfig::default()
        };
        let mut store = Store::create_with(Box::new(RealFs), &dir, "empty", cfg).unwrap();
        for i in 1..=4u64 {
            store.append_commit(format!("r{i}").as_bytes()).unwrap();
        }
        assert_eq!(store.segments.len(), 2);
        drop(store);
        // Corrupt the SECOND record of segment 1: its first record must
        // be salvaged into a fresh segment file. Records start after
        // the segment header; each is 18 bytes.
        let seg1 = dir.join("wal.000001");
        let mut bytes = std::fs::read(&seg1).unwrap();
        let cut = wal::SEG_HEADER + 18;
        bytes[cut + wal::HEADER] ^= 0x01;
        std::fs::write(&seg1, &bytes).unwrap();
        let (_, rec) = Store::open(Box::new(RealFs), &dir).unwrap();
        assert_eq!(rec.tail, vec![(1, b"r1".to_vec())]);
        let salvage = rec.salvage.unwrap();
        assert_eq!(salvage.segment, "wal.000001");
        assert_eq!(salvage.offset, cut as u64);
        // r3 and r4 parsed but lie beyond the break; r2 itself is
        // unparseable and so cannot be counted.
        assert_eq!(salvage.records_dropped, 2);
        assert!(dir.join("wal.000001.quarantined").exists());
        assert!(dir.join("wal.000002.quarantined").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn promote_bumps_the_generation_and_reopen_adopts_it() {
        let dir = tmp_dir("promote");
        let mut store = Store::create(Box::new(RealFs), &dir, "empty").unwrap();
        assert_eq!(store.generation(), 1);
        store.append_commit(b"one").unwrap();
        assert_eq!(store.promote().unwrap(), 2);
        // The new active segment is stamped with the new term.
        let active = std::fs::read(dir.join("wal.000002")).unwrap();
        assert_eq!(wal::scan(&active).generation, Some(2));
        // The promoted writer keeps writing.
        assert_eq!(store.append_commit(b"two").unwrap(), 2);
        drop(store);
        // A plain reopen adopts the promoted generation — it does not
        // bump it, so restarts alone never fence anyone.
        let (store, rec) = Store::open(Box::new(RealFs), &dir).unwrap();
        assert_eq!(store.generation(), 2);
        assert!(!store.is_fenced());
        assert_eq!(rec.tail, vec![(1, b"one".to_vec()), (2, b"two".to_vec())]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn deposed_writer_is_fenced_and_stays_fenced() {
        let dir = tmp_dir("fenced");
        let mut old = Store::create(Box::new(RealFs), &dir, "empty").unwrap();
        old.append_commit(b"one").unwrap();
        // Another handle on the same directory takes over.
        let (mut new, _) = Store::open(Box::new(RealFs), &dir).unwrap();
        assert_eq!(new.promote().unwrap(), 2);
        // The deposed writer's next append observes the higher term,
        // fails *before* touching the log, and fences permanently.
        let before = std::fs::read(dir.join("wal.000001")).unwrap();
        assert!(matches!(
            old.append_commit(b"zombie"),
            Err(StorageError::Fenced {
                observed: 2,
                own: 1
            })
        ));
        assert!(old.is_fenced());
        assert_eq!(std::fs::read(dir.join("wal.000001")).unwrap(), before);
        // Fenced is terminal: syncs, checkpoints and probes all refuse
        // without re-reading the manifest.
        assert!(matches!(old.sync_wal(), Err(StorageError::Fenced { .. })));
        assert!(matches!(
            old.checkpoint(SnapshotFile {
                base_tag: "empty".into(),
                ..SnapshotFile::default()
            }),
            Err(StorageError::Fenced { .. })
        ));
        assert!(!old.probe_space());
        // The new writer is unaffected.
        assert_eq!(new.append_commit(b"two").unwrap(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn zombie_stale_term_tail_is_quarantined_on_reopen() {
        let dir = tmp_dir("zombie");
        let mut old = Store::create(Box::new(RealFs), &dir, "empty").unwrap();
        old.append_commit(b"one").unwrap();
        let (mut new, _) = Store::open(Box::new(RealFs), &dir).unwrap();
        assert_eq!(new.promote().unwrap(), 2);
        // A zombie append that lost the race with the promotion: bytes
        // land in the old generation's segment after the new writer
        // rotated away from it. The record was never acknowledged (the
        // ack-path generation check fails), but it is on disk.
        use std::io::Write as _;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(dir.join("wal.000001"))
            .unwrap();
        f.write_all(&wal::frame(2, b"zombie")).unwrap();
        drop(f);
        // The new timeline re-issues sequence 2 with different content.
        assert_eq!(new.append_commit(b"two").unwrap(), 2);
        drop(new);
        drop(old);
        // Recovery cuts the stale-term tail at the first re-issued
        // sequence and quarantines the original segment: the zombie
        // record never replays, the new timeline's record does.
        let (_, rec) = Store::open(Box::new(RealFs), &dir).unwrap();
        assert_eq!(rec.tail, vec![(1, b"one".to_vec()), (2, b"two".to_vec())]);
        let salvage = rec.salvage.unwrap();
        assert_eq!(salvage.segment, "wal.000001");
        assert_eq!(salvage.offset, (wal::SEG_HEADER + wal::HEADER + 3) as u64);
        assert_eq!(salvage.records_dropped, 1);
        assert_eq!(
            salvage.quarantined,
            vec!["wal.000001.quarantined".to_string()]
        );
        assert!(dir.join("wal.000001.quarantined").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn create_refuses_existing_store() {
        let dir = tmp_dir("dup");
        Store::create(Box::new(RealFs), &dir, "empty").unwrap();
        assert!(Store::create(Box::new(RealFs), &dir, "empty").is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[cfg(all(test, feature = "fault-injection"))]
mod fault_tests {
    use super::*;
    use crate::fault::{CrashMode, FaultFs};
    use std::path::Path;

    const DIR: &str = "store";

    /// Instant retries so transient-fault tests don't sleep.
    fn instant_retries() -> StoreConfig {
        StoreConfig {
            retry: RetryPolicy {
                attempts: 4,
                base_delay: Duration::ZERO,
            },
            probe_min_interval: Duration::ZERO,
            ..StoreConfig::default()
        }
    }

    #[test]
    fn lost_fsync_loses_only_unsynced_commits() {
        let fs = FaultFs::new();
        let mut store = Store::create(Box::new(fs.clone()), DIR, "empty").unwrap();
        store.append_commit(b"one").unwrap();
        store.set_sync_on_commit(false);
        store.append_commit(b"two").unwrap();
        fs.crash(CrashMode::LostFsync);
        let (_, rec) = Store::open(Box::new(fs), DIR).unwrap();
        assert_eq!(rec.tail, vec![(1, b"one".to_vec())]);
    }

    #[test]
    fn torn_tail_crash_recovers_the_synced_prefix() {
        let fs = FaultFs::new();
        let mut store = Store::create(Box::new(fs.clone()), DIR, "empty").unwrap();
        store.append_commit(b"one").unwrap();
        store.set_sync_on_commit(false);
        store.append_commit(b"two-unsynced").unwrap();
        fs.crash(CrashMode::TornTail);
        let (_, rec) = Store::open(Box::new(fs.clone()), DIR).unwrap();
        assert_eq!(rec.tail, vec![(1, b"one".to_vec())]);
        // The torn bytes were durably truncated by recovery.
        let on_disk = fs.peek(Path::new("store/wal.000001")).unwrap();
        assert_eq!(wal::scan(&on_disk).valid_len, on_disk.len() as u64);
    }

    #[test]
    fn bit_flip_in_unsynced_region_is_rejected_by_crc() {
        let fs = FaultFs::new();
        let mut store = Store::create(Box::new(fs.clone()), DIR, "empty").unwrap();
        store.append_commit(b"one").unwrap();
        store.set_sync_on_commit(false);
        store.append_commit(b"two-flipped").unwrap();
        fs.crash(CrashMode::BitFlip);
        let (_, rec) = Store::open(Box::new(fs), DIR).unwrap();
        assert_eq!(rec.tail, vec![(1, b"one".to_vec())]);
    }

    #[test]
    fn lost_rename_keeps_the_previous_snapshot() {
        let fs = FaultFs::new();
        let mut store = Store::create(Box::new(fs.clone()), DIR, "empty").unwrap();
        store.append_commit(b"one").unwrap();
        store
            .checkpoint(SnapshotFile {
                base_tag: "empty".into(),
                anon_counter: 1,
                ..SnapshotFile::default()
            })
            .unwrap();
        store.append_commit(b"two").unwrap();
        // Second checkpoint: crash with the rename not yet durable.
        // Ops: write tmp, sync tmp, rename = 3; fail the sync_dir and
        // everything after.
        fs.fail_after_ops(3);
        let err = store.checkpoint(SnapshotFile {
            base_tag: "empty".into(),
            anon_counter: 2,
            ..SnapshotFile::default()
        });
        assert!(err.is_err());
        fs.crash(CrashMode::LostRename);
        let (_, rec) = Store::open(Box::new(fs), DIR).unwrap();
        // Old snapshot (covering seq 1) survived; record 2 replays.
        let snap = rec.snapshot.unwrap();
        assert_eq!(snap.last_seq, 1);
        assert_eq!(snap.anon_counter, 1);
        assert_eq!(rec.tail, vec![(2, b"two".to_vec())]);
    }

    #[test]
    fn crash_between_rename_and_manifest_update_skips_covered_records() {
        let fs = FaultFs::new();
        let mut store = Store::create(Box::new(fs.clone()), DIR, "empty").unwrap();
        store.append_commit(b"one").unwrap();
        store.append_commit(b"two").unwrap();
        // Checkpoint ops: write tmp, sync tmp, rename, sync_dir = 4;
        // fail the rotation and manifest update that follow.
        fs.fail_after_ops(4);
        assert!(store
            .checkpoint(SnapshotFile {
                base_tag: "empty".into(),
                ..SnapshotFile::default()
            })
            .is_err());
        fs.crash(CrashMode::LostFsync);
        let (_, rec) = Store::open(Box::new(fs), DIR).unwrap();
        // New snapshot is durable and covers both records, so nothing
        // replays even though the WAL still physically holds them.
        assert_eq!(rec.snapshot.unwrap().last_seq, 2);
        assert!(rec.tail.is_empty());
    }

    #[test]
    fn crash_after_the_fresh_segment_before_the_manifest_lists_it() {
        let fs = FaultFs::new();
        let mut store = Store::create(Box::new(fs.clone()), DIR, "empty").unwrap();
        store.append_commit(b"one").unwrap();
        store.append_commit(b"two").unwrap();
        // Snapshot (4 ops), then the rotation's old-segment sync and
        // fresh header write = 6; fail its manifest update and the rest.
        fs.fail_after_ops(6);
        assert!(store
            .checkpoint(SnapshotFile {
                base_tag: "empty".into(),
                ..SnapshotFile::default()
            })
            .is_err());
        assert!(fs.exists(Path::new("store/wal.000002")));
        fs.crash(CrashMode::LostFsync);
        let (mut store, rec) = Store::open(Box::new(fs.clone()), DIR).unwrap();
        // The manifest still lists only the old segment; the new image
        // covers its records, and the fresh file is an unlisted orphan.
        assert_eq!(rec.snapshot.unwrap().last_seq, 2);
        assert!(rec.tail.is_empty());
        // The orphan's name is reused by the next rotation.
        assert_eq!(store.append_commit(b"three").unwrap(), 3);
        store
            .checkpoint(SnapshotFile {
                base_tag: "empty".into(),
                ..SnapshotFile::default()
            })
            .unwrap();
        assert_eq!(store.append_commit(b"four").unwrap(), 4);
        fs.crash(CrashMode::LostFsync);
        let (_, rec) = Store::open(Box::new(fs), DIR).unwrap();
        assert_eq!(rec.snapshot.unwrap().last_seq, 3);
        assert_eq!(rec.tail, vec![(4, b"four".to_vec())]);
    }

    #[test]
    fn failed_final_manifest_write_keeps_later_commits() {
        let fs = FaultFs::new();
        let mut store = Store::create(Box::new(fs.clone()), DIR, "empty").unwrap();
        store.append_commit(b"one").unwrap();
        // Snapshot (4), rotation (sync, header, manifest 4) = 10 ops;
        // the manifest that retires the old segment fails.
        fs.fail_after_ops(10);
        assert!(store
            .checkpoint(SnapshotFile {
                base_tag: "empty".into(),
                ..SnapshotFile::default()
            })
            .is_err());
        fs.disarm();
        // The store keeps committing to the fresh segment, which the
        // manifest on disk already lists.
        assert_eq!(store.append_commit(b"two").unwrap(), 2);
        fs.crash(CrashMode::LostFsync);
        let (_, rec) = Store::open(Box::new(fs), DIR).unwrap();
        assert_eq!(rec.snapshot.unwrap().last_seq, 1);
        assert_eq!(rec.tail, vec![(2, b"two".to_vec())]);
    }

    #[test]
    fn crash_before_old_segments_are_deleted_leaves_harmless_orphans() {
        let fs = FaultFs::new();
        let mut store = Store::create(Box::new(fs.clone()), DIR, "empty").unwrap();
        store.append_commit(b"one").unwrap();
        // Snapshot (4), rotation (6), final manifest (4) = 14 ops; the
        // deletion that follows fails, which the checkpoint tolerates.
        fs.fail_after_ops(14);
        store
            .checkpoint(SnapshotFile {
                base_tag: "empty".into(),
                ..SnapshotFile::default()
            })
            .unwrap();
        assert!(fs.exists(Path::new("store/wal.000001")));
        fs.crash(CrashMode::LostFsync);
        let (mut store, rec) = Store::open(Box::new(fs.clone()), DIR).unwrap();
        assert_eq!(rec.snapshot.unwrap().last_seq, 1);
        assert!(rec.tail.is_empty());
        assert_eq!(store.append_commit(b"two").unwrap(), 2);
        let (_, rec) = Store::open(Box::new(fs), DIR).unwrap();
        assert_eq!(rec.tail, vec![(2, b"two".to_vec())]);
    }

    #[test]
    fn manifest_listing_a_delta_is_refused_on_open() {
        let fs = FaultFs::new();
        let mut store = Store::create(Box::new(fs.clone()), DIR, "empty").unwrap();
        store.append_commit(b"one").unwrap();
        let man = Path::new("store/manifest");
        let mut bytes = fs.peek(man).unwrap();
        bytes.extend_from_slice(b"delta delta.000002.bin\n");
        fs.write(man, &bytes).unwrap();
        let err = Store::open(Box::new(fs), DIR).unwrap_err().to_string();
        assert!(
            err.contains("delta.000002.bin") && err.contains("incremental checkpoint"),
            "{err}"
        );
    }

    #[test]
    fn enospc_degrades_to_read_only_and_probes_back() {
        let fs = FaultFs::new();
        let mut store =
            Store::create_with(Box::new(fs.clone()), DIR, "empty", instant_retries()).unwrap();
        store.append_commit(b"one").unwrap();
        assert_eq!(store.health(), StoreHealth::Healthy);

        fs.set_disk_full(true);
        let err = store.append_commit(b"two").unwrap_err();
        assert!(matches!(err, StorageError::DiskFull(_)));
        assert_eq!(store.health(), StoreHealth::DegradedReadOnly);
        // Still degraded: fails fast without touching the disk.
        assert!(matches!(
            store.append_commit(b"two"),
            Err(StorageError::DiskFull(_))
        ));
        // Checkpoints are refused too (they consume space).
        assert!(!store.checkpoint_due());

        fs.set_disk_full(false);
        // Probe sees freed space; the next append completes recovery.
        assert!(store.probe_space());
        assert_eq!(store.health(), StoreHealth::Recovering);
        assert_eq!(store.append_commit(b"two").unwrap(), 2);
        assert_eq!(store.health(), StoreHealth::Healthy);

        // Nothing acked was lost across the episode.
        fs.crash(CrashMode::LostFsync);
        let (_, rec) = Store::open(Box::new(fs), DIR).unwrap();
        assert_eq!(rec.tail, vec![(1, b"one".to_vec()), (2, b"two".to_vec())]);
    }

    #[test]
    fn degraded_append_recovers_inline_when_space_frees() {
        let fs = FaultFs::new();
        let mut store =
            Store::create_with(Box::new(fs.clone()), DIR, "empty", instant_retries()).unwrap();
        fs.set_disk_full(true);
        assert!(store.append_commit(b"x").is_err());
        fs.set_disk_full(false);
        // append_commit probes internally: no explicit probe call needed.
        assert_eq!(store.append_commit(b"x").unwrap(), 1);
        assert_eq!(store.health(), StoreHealth::Healthy);
    }

    #[test]
    fn transient_faults_are_retried_with_backoff() {
        let fs = FaultFs::new();
        let mut store =
            Store::create_with(Box::new(fs.clone()), DIR, "empty", instant_retries()).unwrap();
        // Three transient failures: within the 4-attempt budget, so the
        // commit succeeds without surfacing an error.
        fs.fail_transient_ops(3);
        assert_eq!(store.append_commit(b"one").unwrap(), 1);
        // Five in a row exhaust the budget for one operation.
        fs.fail_transient_ops(5);
        assert!(store.append_commit(b"two").is_err());
        fs.fail_transient_ops(0);
        assert_eq!(store.append_commit(b"two").unwrap(), 2);
        let (_, rec) = Store::open(Box::new(fs), DIR).unwrap();
        assert_eq!(rec.tail, vec![(1, b"one".to_vec()), (2, b"two".to_vec())]);
    }

    #[test]
    fn failed_checkpoints_are_recorded_under_the_err_label() {
        let registry = telemetry::Registry::default();
        let fs = FaultFs::new();
        let mut store = Store::create(Box::new(fs.clone()), DIR, "empty").unwrap();
        store.attach_registry(&registry);
        store.append_commit(b"one").unwrap();
        fs.fail_after_ops(1);
        assert!(store
            .checkpoint(SnapshotFile {
                base_tag: "empty".into(),
                ..SnapshotFile::default()
            })
            .is_err());
        fs.disarm();
        assert_eq!(
            registry
                .latency("storage_checkpoint_latency_us", &[("result", "err")])
                .count(),
            1
        );
        assert_eq!(
            registry
                .latency("storage_checkpoint_latency_us", &[("result", "ok")])
                .count(),
            0
        );
        store
            .checkpoint(SnapshotFile {
                base_tag: "empty".into(),
                ..SnapshotFile::default()
            })
            .unwrap();
        assert_eq!(
            registry
                .latency("storage_checkpoint_latency_us", &[("result", "ok")])
                .count(),
            1
        );
        assert_eq!(registry.counter_total("storage_checkpoints_total"), 1);
    }
}
