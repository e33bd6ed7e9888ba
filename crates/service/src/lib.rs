//! # service — a concurrent query service over one xsql session
//!
//! The engine underneath ([`xsql::Session`]) is strictly
//! single-threaded: one mutable [`oodb::Database`], one WAL. This crate
//! turns it into a multi-session service without touching the engine's
//! internals, using the classic *single writer, snapshot readers*
//! architecture:
//!
//! * **Writes serialize through one writer thread** that owns the
//!   `Session`. Submitted write units queue on a bounded channel; the
//!   writer drains them in batches and *group-commits*: every unit in a
//!   batch appends its WAL records without an fsync, then a single
//!   fsync makes the whole batch durable at once, and only then is any
//!   unit acknowledged. One fsync per batch instead of one per
//!   statement is where multi-client write throughput comes from.
//! * **Reads never enter the writer queue.** After each durable batch
//!   the writer publishes an immutable copy of the database as a new
//!   *epoch* ([`oodb::EpochCell`]); readers evaluate against the epoch
//!   they grabbed, in parallel, with no locks held during evaluation.
//!   This is snapshot isolation: a reader sees a committed prefix of
//!   the write history, never a torn intermediate state.
//! * **Every statement carries a [`QueryContext`]** — wall-clock
//!   deadline plus a cooperative [`CancelFlag`] — threaded into the
//!   evaluator's tick loop, so a runaway query degrades into
//!   [`XsqlError::Cancelled`] instead of wedging a worker thread.
//! * **Admission control**: a bounded handle count, a bounded write
//!   queue and a bounded reader gate. When a limit is hit the service
//!   *sheds load* with [`ServiceError::Overloaded`] and a suggested
//!   retry-after, rather than queueing unboundedly.
//!
//! See `docs/CONCURRENCY.md` for the protocol in full, and
//! `crates/service/tests/chaos.rs` for the seeded chaos harness that
//! hammers all of it at once.

#![warn(missing_docs)]

use oodb::{Database, EpochCell, EpochDb};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use xsql::ast::Stmt;
use xsql::eval::CancelFlag;
use xsql::{EvalOptions, Outcome, Session, XsqlError};

/// Admission-control and group-commit knobs. The defaults suit an
/// interactive workload; the chaos harness shrinks them to force
/// contention.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Maximum concurrently connected [`SessionHandle`]s; further
    /// [`Service::connect`] calls shed with [`ServiceError::Overloaded`].
    pub max_sessions: usize,
    /// Depth of the bounded write queue; a full queue sheds submitters.
    pub max_queue: usize,
    /// Maximum concurrently *evaluating* readers.
    pub max_readers: usize,
    /// Maximum readers parked waiting for an evaluation slot; beyond
    /// this the reader is shed instead of queued.
    pub max_read_waiters: usize,
    /// Maximum write units the writer folds into one group commit
    /// (one fsync).
    pub max_group_commit: usize,
    /// Deadline applied to statements whose [`QueryContext`] does not
    /// carry one. `None` means such statements run without a deadline.
    pub default_deadline: Option<Duration>,
    /// Base back-off the service suggests to shed clients. The hint
    /// actually returned is jittered: `retry_after` plus a uniformly
    /// drawn fraction of `retry_after × retry_jitter`, so a herd of
    /// clients shed together does not retry in lockstep.
    pub retry_after: Duration,
    /// Width of the jitter band on shed hints, as a fraction of
    /// `retry_after`. `0.0` restores the old fixed hint.
    pub retry_jitter: f64,
    /// Seed of the deterministic jitter stream. Two services started
    /// with the same seed hand out the same hint sequence — the chaos
    /// harness and the distribution unit test depend on that.
    pub jitter_seed: u64,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            max_sessions: 64,
            max_queue: 64,
            max_readers: 8,
            max_read_waiters: 32,
            max_group_commit: 16,
            default_deadline: None,
            retry_after: Duration::from_millis(50),
            retry_jitter: 0.5,
            jitter_seed: 0x5eed_cafe,
        }
    }
}

/// Per-statement execution context: how long the statement may run and
/// how to interrupt it from outside.
#[derive(Debug, Clone, Default)]
pub struct QueryContext {
    /// Wall-clock point past which the statement cancels itself. Also
    /// bounds time spent queued or waiting for a reader slot.
    pub deadline: Option<Instant>,
    /// Cooperative cancellation token; trip it from any thread to stop
    /// the statement at its next evaluation tick.
    pub cancel: CancelFlag,
    /// Deterministic cancellation injection for tests: cancel at the
    /// first evaluation tick whose work count reaches this value.
    pub cancel_at_tick: Option<u64>,
}

impl QueryContext {
    /// A context whose deadline is `timeout` from now.
    pub fn with_timeout(timeout: Duration) -> Self {
        QueryContext {
            deadline: Some(Instant::now() + timeout),
            ..QueryContext::default()
        }
    }
}

/// Deterministic jitter stream for retry-after hints.
///
/// Shedding every client with the *same* fixed hint synchronises their
/// retries: the whole herd comes back in one burst and is shed again.
/// Each draw from this stream spreads one client's hint uniformly over
/// `[base, base × (1 + frac)]`. The stream is a seeded splitmix64
/// sequence behind one atomic, so it is lock-free to sample from any
/// thread and byte-for-byte reproducible under a fixed seed — the
/// property the distribution unit test and the chaos harness pin.
#[derive(Debug)]
pub struct RetryJitter {
    state: std::sync::atomic::AtomicU64,
    frac: f64,
}

impl RetryJitter {
    /// A stream seeded with `seed`, jittering over `frac × base`.
    pub fn new(seed: u64, frac: f64) -> RetryJitter {
        RetryJitter {
            state: std::sync::atomic::AtomicU64::new(seed),
            frac: frac.clamp(0.0, 16.0),
        }
    }

    /// Draws the next unit sample in `[0, 1)` from the stream.
    pub fn next_unit(&self) -> f64 {
        // splitmix64: a fetch_add reserves this draw's slot in the
        // stream, so concurrent samplers interleave without repeats.
        let mut z = self
            .state
            .fetch_add(0x9e37_79b9_7f4a_7c15, Ordering::Relaxed)
            .wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        (z >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Jitters `base` into `[base, base × (1 + frac)]`.
    pub fn next_after(&self, base: Duration) -> Duration {
        base + base.mul_f64(self.frac * self.next_unit())
    }
}

/// Errors produced by the service layer itself, wrapping engine errors
/// where a statement reached the engine and failed there.
#[derive(Debug, Clone)]
pub enum ServiceError {
    /// Admission control shed this request; retry after the hint.
    Overloaded {
        /// Suggested back-off before retrying.
        retry_after: Duration,
    },
    /// The service is shutting down and no longer accepts work.
    ShuttingDown,
    /// The store's disk is full: the service is in read-only degraded
    /// mode. The write was cleanly rolled back (nothing half-applied);
    /// snapshot-isolated reads keep serving. The store probes for freed
    /// space automatically, so retrying after the hint eventually
    /// succeeds without a restart.
    ReadOnly {
        /// Suggested back-off before retrying the write.
        retry_after: Duration,
    },
    /// The service hit an unrecoverable storage fault (e.g. a failed
    /// group-commit fsync, after which memory runs ahead of the log)
    /// and refuses all further writes. Reads of already-published
    /// epochs — which are all durable — keep working.
    Poisoned(String),
    /// A newer primary generation owns the store: this node was
    /// deposed by a promotion and permanently refuses writes (they
    /// belong on the new primary). Reads of already-published epochs
    /// keep working; the node should rejoin as a replica.
    Fenced {
        /// The newer generation observed in the shared manifest.
        observed: u64,
    },
    /// The statement executed and failed in the engine; the service is
    /// healthy.
    Xsql(XsqlError),
    /// The statement sequence violated the session protocol (e.g.
    /// `COMMIT WORK` with no open transaction on this handle).
    Protocol(String),
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Overloaded { retry_after } => {
                write!(f, "service overloaded; retry after {retry_after:?}")
            }
            ServiceError::ShuttingDown => write!(f, "service is shutting down"),
            ServiceError::ReadOnly { retry_after } => {
                write!(
                    f,
                    "service is read-only (disk full); retry after {retry_after:?}"
                )
            }
            ServiceError::Poisoned(m) => {
                write!(f, "service is poisoned by a storage fault: {m}")
            }
            ServiceError::Fenced { observed } => write!(
                f,
                "fenced: primary generation {observed} owns the store; \
                 this node no longer accepts writes"
            ),
            ServiceError::Xsql(e) => write!(f, "{e}"),
            ServiceError::Protocol(m) => write!(f, "protocol error: {m}"),
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<XsqlError> for ServiceError {
    fn from(e: XsqlError) -> Self {
        ServiceError::Xsql(e)
    }
}

/// The answer to a read statement, pinned to the epoch it ran against.
#[derive(Debug, Clone)]
pub struct ReadResult {
    /// The statement's outcome ([`Outcome::Relation`] or
    /// [`Outcome::Explained`]).
    pub outcome: Outcome,
    /// Epoch sequence number the read saw.
    pub epoch: u64,
    /// The immutable snapshot the read evaluated against. Holding it
    /// keeps that state alive for follow-up inspection.
    pub snapshot: Arc<Database>,
}

/// One client's reader: a [`Session`] kept for the life of a
/// [`SessionHandle`] or a replica connection, rebased onto each newer
/// published epoch it reads.
///
/// Resolving a statement interns symbols (a mutation), so reads run on
/// the session's private copy of the published database, never on the
/// shared one. The copy is cheap (an epoch's storage is structurally
/// shared), and the rebase ([`Session::rebase`]) drops everything
/// resolved against the previous epoch: prepared statements re-resolve
/// from their stored bodies at their next EXECUTE. The session records
/// into the serving registry, so reads show up in `STATS`.
pub struct EpochReader {
    /// Epoch the session reads.
    seq: u64,
    /// The snapshot returned with each read: the published one of
    /// `seq`, or a copy of the session's database once evaluation
    /// interned OIDs (a computed numeral, a literal new to the
    /// database) that the published one lacks. Reads never change
    /// stored state, so the two differ only in those OIDs, and the
    /// copy shares all other storage with the published one.
    snapshot: Arc<Database>,
    sess: Session,
    /// Options each read's options derive from.
    base_opts: EvalOptions,
}

impl EpochReader {
    /// A reader over `epoch`, recording into `registry`.
    pub fn new(
        epoch: EpochDb,
        base_opts: EvalOptions,
        registry: Arc<telemetry::Registry>,
    ) -> EpochReader {
        let mut sess = Session::with_options((*epoch.db).clone(), base_opts.clone());
        sess.set_registry(registry);
        EpochReader {
            seq: epoch.seq,
            snapshot: epoch.db,
            sess,
            base_opts,
        }
    }

    /// The body of the statement this reader has prepared as `name`.
    pub fn prepared_stmt(&self, name: &str) -> Option<&Stmt> {
        self.sess.prepared_stmt(name)
    }

    /// Runs `stmt` against the latest epoch published in `epochs`,
    /// rebasing first when that epoch is newer than the session's.
    /// `stmt` must not write: a read-only query, a PREPARE (which only
    /// resolves its body), or an EXECUTE of a read-only body.
    /// `ctx.deadline` is taken as final.
    pub fn read(
        &mut self,
        epochs: &EpochCell,
        stmt: &Stmt,
        ctx: &QueryContext,
    ) -> Result<ReadResult, XsqlError> {
        // The warm path (epoch unchanged since the last read) costs one
        // atomic load instead of the epoch lock plus cross-core
        // refcount traffic on the shared snapshot `Arc`. `seq()` can
        // lag `load()` one step during a publication, never lead it.
        if self.seq != epochs.seq() {
            let ep = epochs.load();
            if ep.seq != self.seq {
                self.sess.rebase((*ep.db).clone());
                self.seq = ep.seq;
                self.snapshot = ep.db;
            }
        }
        let mut opts = self.base_opts.clone();
        opts.cancel = ctx.cancel.clone();
        opts.budget.deadline = ctx.deadline;
        opts.budget.cancel_at_tick = ctx.cancel_at_tick;
        self.sess.set_options(opts);
        let outcome = self.sess.execute(stmt)?;
        if self.sess.db().oids().len() > self.snapshot.oids().len() {
            self.snapshot = Arc::new(self.sess.db().clone());
        }
        Ok(ReadResult {
            outcome,
            epoch: self.seq,
            snapshot: Arc::clone(&self.snapshot),
        })
    }
}

/// Acknowledgement of a durably committed write unit.
#[derive(Debug, Clone)]
pub struct WriteAck {
    /// Outcome of each statement in the unit, in order.
    pub outcomes: Vec<Outcome>,
    /// The epoch that first exposes this unit to readers.
    pub epoch: u64,
}

/// What [`SessionHandle::execute`] produced.
#[derive(Debug, Clone)]
pub enum ExecResult {
    /// A read-only statement evaluated against a snapshot.
    Read(ReadResult),
    /// An auto-commit write was durably committed.
    Write(WriteAck),
    /// `BEGIN WORK`: the handle now buffers statements.
    TxnStarted,
    /// The statement was buffered into the handle's open transaction;
    /// it executes at `COMMIT WORK`.
    Buffered,
    /// `COMMIT WORK`: the buffered unit committed atomically.
    TxnCommitted(WriteAck),
    /// `ROLLBACK WORK`: the buffered unit was discarded unexecuted.
    TxnRolledBack,
}

/// Point-in-time service counters, for monitoring and leak checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceStats {
    /// Connected [`SessionHandle`]s.
    pub sessions: usize,
    /// Readers currently evaluating.
    pub active_readers: usize,
    /// Readers parked waiting for an evaluation slot.
    pub waiting_readers: usize,
    /// Sequence number of the latest published epoch.
    pub epoch: u64,
}

/// One write unit submitted to the writer thread.
struct WriteReq {
    /// The unit's statements: one for an auto-commit write, several for
    /// an explicit-transaction unit.
    stmts: Vec<Stmt>,
    /// True when the unit must run inside `BEGIN WORK … COMMIT WORK`.
    txn: bool,
    ctx: QueryContext,
    /// When the unit entered the queue, for the queue-wait histogram.
    enqueued_at: Instant,
    reply: SyncSender<Result<WriteAck, ServiceError>>,
}

/// Reader-gate state under the mutex.
#[derive(Default)]
struct GateState {
    active: usize,
    waiting: usize,
}

/// Cached handles into the service's telemetry registry (the writer
/// session's registry, adopted at [`Service::start`]). One handle per
/// hot-path metric so recording is an atomic op, never a registry lock.
struct ServiceMetrics {
    registry: Arc<telemetry::Registry>,
    admitted_read: Arc<telemetry::Counter>,
    admitted_write: Arc<telemetry::Counter>,
    shed_read: Arc<telemetry::Counter>,
    shed_write: Arc<telemetry::Counter>,
    shed_connect: Arc<telemetry::Counter>,
    completed_read: Arc<telemetry::Counter>,
    completed_write: Arc<telemetry::Counter>,
    failed_read: Arc<telemetry::Counter>,
    failed_write: Arc<telemetry::Counter>,
    poisoned: Arc<telemetry::Counter>,
    /// Time a read spent waiting for a reader slot.
    read_admission_latency: Arc<telemetry::Histogram>,
    /// Time a write unit spent queued before the writer picked it up.
    write_queue_latency: Arc<telemetry::Histogram>,
    exec_latency_read: Arc<telemetry::Histogram>,
    exec_latency_write: Arc<telemetry::Histogram>,
    total_latency_read: Arc<telemetry::Histogram>,
    total_latency_write: Arc<telemetry::Histogram>,
    /// Group-commit fsync completion → epoch publication.
    epoch_publish_lag: Arc<telemetry::Histogram>,
}

impl ServiceMetrics {
    fn new(registry: Arc<telemetry::Registry>) -> ServiceMetrics {
        let r = &registry;
        ServiceMetrics {
            admitted_read: r.counter("svc_admitted_total", &[("kind", "read")]),
            admitted_write: r.counter("svc_admitted_total", &[("kind", "write")]),
            shed_read: r.counter("svc_shed_total", &[("kind", "read")]),
            shed_write: r.counter("svc_shed_total", &[("kind", "write")]),
            shed_connect: r.counter("svc_shed_total", &[("kind", "connect")]),
            completed_read: r.counter("svc_completed_total", &[("kind", "read")]),
            completed_write: r.counter("svc_completed_total", &[("kind", "write")]),
            failed_read: r.counter("svc_failed_total", &[("kind", "read")]),
            failed_write: r.counter("svc_failed_total", &[("kind", "write")]),
            poisoned: r.counter("svc_poisoned_total", &[]),
            read_admission_latency: r.latency("svc_read_admission_latency_us", &[]),
            write_queue_latency: r.latency("svc_write_queue_latency_us", &[]),
            exec_latency_read: r.latency("svc_exec_latency_us", &[("kind", "read")]),
            exec_latency_write: r.latency("svc_exec_latency_us", &[("kind", "write")]),
            total_latency_read: r.latency("svc_total_latency_us", &[("kind", "read")]),
            total_latency_write: r.latency("svc_total_latency_us", &[("kind", "write")]),
            epoch_publish_lag: r.latency("svc_epoch_publish_lag_us", &[]),
            registry,
        }
    }

    /// Settles one request's outcome so `shed + completed + failed ==
    /// admitted` holds per kind by construction.
    fn settle<T>(&self, read: bool, result: &Result<T, ServiceError>) {
        let (shed, completed, failed) = if read {
            (&self.shed_read, &self.completed_read, &self.failed_read)
        } else {
            (&self.shed_write, &self.completed_write, &self.failed_write)
        };
        match result {
            Ok(_) => completed.inc(),
            // Shed covers both flavours of back-pressure: queue overload
            // and the degraded read-only store. Either way the request
            // was refused cleanly and is safe to retry.
            Err(ServiceError::Overloaded { .. } | ServiceError::ReadOnly { .. }) => shed.inc(),
            Err(_) => failed.inc(),
        }
    }
}

struct Inner {
    cfg: ServiceConfig,
    epoch: EpochCell,
    /// Write-queue sender; `None` once shutdown started.
    tx: Mutex<Option<SyncSender<WriteReq>>>,
    gate: Mutex<GateState>,
    gate_cv: Condvar,
    sessions: AtomicUsize,
    poison: Mutex<Option<String>>,
    /// The store generation this writer holds (1 for in-memory
    /// sessions, which can never be deposed).
    generation: AtomicU64,
    /// `0` = not fenced; otherwise the newer generation observed when
    /// this node was deposed. Writes refuse fast once set.
    fenced: AtomicU64,
    /// Options the writer session was started with; readers inherit
    /// them (budget, strategy) with the per-statement context merged in.
    base_opts: EvalOptions,
    metrics: ServiceMetrics,
    jitter: RetryJitter,
}

impl Inner {
    /// The jittered retry-after hint for the next shed client.
    fn retry_hint(&self) -> Duration {
        self.jitter.next_after(self.cfg.retry_after)
    }

    fn poison_check(&self) -> Result<(), ServiceError> {
        match &*self.poison.lock().unwrap_or_else(|e| e.into_inner()) {
            Some(m) => Err(ServiceError::Poisoned(m.clone())),
            None => Ok(()),
        }
    }

    fn set_poison(&self, m: String) {
        let mut p = self.poison.lock().unwrap_or_else(|e| e.into_inner());
        if p.is_none() {
            self.metrics.poisoned.inc();
        }
        p.get_or_insert(m);
    }

    fn fenced_check(&self) -> Result<(), ServiceError> {
        match self.fenced.load(Ordering::Relaxed) {
            0 => Ok(()),
            observed => Err(ServiceError::Fenced { observed }),
        }
    }

    fn set_fenced(&self, observed: u64) {
        self.fenced.store(observed, Ordering::Relaxed);
    }

    /// Mirrors the point-in-time counters into registry gauges.
    fn refresh_gauges(&self) {
        let (active, waiting) = {
            let gate = self.gate.lock().unwrap_or_else(|e| e.into_inner());
            (gate.active, gate.waiting)
        };
        let r = &self.metrics.registry;
        r.gauge("svc_sessions", &[])
            .set(self.sessions.load(Ordering::Relaxed) as i64);
        r.gauge("svc_active_readers", &[]).set(active as i64);
        r.gauge("svc_waiting_readers", &[]).set(waiting as i64);
        r.gauge("svc_epoch", &[]).set(self.epoch.load().seq as i64);
    }
}

/// The running service: a writer thread plus shared state. Connect
/// handles with [`Service::connect`]; stop it with
/// [`Service::shutdown`], which returns the underlying [`Session`].
pub struct Service {
    inner: Arc<Inner>,
    writer: Option<JoinHandle<Session>>,
}

impl std::fmt::Debug for Service {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Service")
            .field("stats", &self.stats())
            .finish()
    }
}

impl Service {
    /// Starts the service over `session`, which becomes the single
    /// writer's engine. The session's current committed state is
    /// published as epoch 0.
    pub fn start(session: Session, cfg: ServiceConfig) -> Service {
        let (tx, rx) = mpsc::sync_channel::<WriteReq>(cfg.max_queue.max(1));
        let inner = Arc::new(Inner {
            epoch: EpochCell::new(session.db().clone()),
            tx: Mutex::new(Some(tx)),
            gate: Mutex::new(GateState::default()),
            gate_cv: Condvar::new(),
            sessions: AtomicUsize::new(0),
            poison: Mutex::new(None),
            generation: AtomicU64::new(session.store_generation()),
            fenced: AtomicU64::new(0),
            base_opts: session.options().clone(),
            // One registry for the whole service: the writer session's.
            // Storage metrics (it owns the store) and service metrics
            // land in the same exposition.
            metrics: ServiceMetrics::new(Arc::clone(session.registry())),
            jitter: RetryJitter::new(cfg.jitter_seed, cfg.retry_jitter),
            cfg,
        });
        let writer_inner = Arc::clone(&inner);
        let writer = std::thread::Builder::new()
            .name("xsql-service-writer".into())
            .spawn(move || writer_loop(session, rx, writer_inner))
            .expect("spawn writer thread");
        Service {
            inner,
            writer: Some(writer),
        }
    }

    /// Connects a new session handle, or sheds with
    /// [`ServiceError::Overloaded`] when `max_sessions` are connected.
    pub fn connect(&self) -> Result<SessionHandle, ServiceError> {
        let cfg = &self.inner.cfg;
        let mut n = self.inner.sessions.load(Ordering::Relaxed);
        loop {
            if n >= cfg.max_sessions {
                self.inner.metrics.shed_connect.inc();
                return Err(ServiceError::Overloaded {
                    retry_after: self.inner.retry_hint(),
                });
            }
            match self.inner.sessions.compare_exchange(
                n,
                n + 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(cur) => n = cur,
            }
        }
        let reader = EpochReader::new(
            self.inner.epoch.load(),
            self.inner.base_opts.clone(),
            Arc::clone(&self.inner.metrics.registry),
        );
        Ok(SessionHandle {
            inner: Arc::clone(&self.inner),
            reader,
            txn: None,
        })
    }

    /// Current counters. Also mirrors them into the telemetry
    /// registry's gauges, so the exposition and this struct agree at
    /// the moment of the call.
    pub fn stats(&self) -> ServiceStats {
        let stats = {
            let gate = self.inner.gate.lock().unwrap_or_else(|e| e.into_inner());
            ServiceStats {
                sessions: self.inner.sessions.load(Ordering::Relaxed),
                active_readers: gate.active,
                waiting_readers: gate.waiting,
                epoch: self.inner.epoch.load().seq,
            }
        };
        self.inner.refresh_gauges();
        stats
    }

    /// The service's telemetry registry (shared with the writer session
    /// and its store).
    pub fn registry(&self) -> &Arc<telemetry::Registry> {
        &self.inner.metrics.registry
    }

    /// Renders the full telemetry exposition with the point-in-time
    /// gauges refreshed (what `STATS` returns through a handle).
    pub fn stats_text(&self) -> String {
        self.stats();
        self.inner.metrics.registry.render()
    }

    /// The latest published epoch (snapshot + sequence number).
    pub fn epoch(&self) -> EpochDb {
        self.inner.epoch.load()
    }

    /// The store generation (fencing term) this service's writer
    /// holds. 1 for in-memory sessions.
    pub fn generation(&self) -> u64 {
        self.inner.generation.load(Ordering::Relaxed)
    }

    /// `Some(observed)` once a newer primary generation deposed this
    /// node: writes refuse with [`ServiceError::Fenced`], reads keep
    /// serving published epochs.
    pub fn fenced(&self) -> Option<u64> {
        match self.inner.fenced.load(Ordering::Relaxed) {
            0 => None,
            g => Some(g),
        }
    }

    /// The poison message, if a storage fault killed the writer.
    pub fn poisoned(&self) -> Option<String> {
        self.inner
            .poison
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// Stops accepting writes, drains the queue, joins the writer and
    /// returns the underlying session. Queued units still commit (or
    /// are answered with an error) before the writer exits.
    pub fn shutdown(mut self) -> Result<Session, ServiceError> {
        self.close_queue();
        let writer = self.writer.take().expect("writer joined once");
        writer
            .join()
            .map_err(|_| ServiceError::Poisoned("writer thread panicked".into()))
    }

    fn close_queue(&self) {
        self.inner
            .tx
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take();
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        self.close_queue();
        if let Some(w) = self.writer.take() {
            let _ = w.join();
        }
    }
}

/// One client's connection to the [`Service`].
///
/// Reads evaluate in parallel on the calling thread against the latest
/// published epoch; writes are submitted to the writer queue and block
/// (respecting the context deadline) until durably committed. `BEGIN
/// WORK` opens a *buffered* transaction: subsequent statements queue on
/// the handle and execute as one atomic, group-committed unit at
/// `COMMIT WORK` — so a handle transaction holds no engine resources
/// while open and cannot block other sessions.
pub struct SessionHandle {
    inner: Arc<Inner>,
    /// The handle's reader. It also holds the handle's prepared
    /// statements (`PREPARE name AS …`), which are per-connection.
    reader: EpochReader,
    /// The open handle transaction, if any.
    txn: Option<HandleTxn>,
}

/// The statements of an open handle transaction, in unit order.
#[derive(Default)]
struct HandleTxn {
    /// Each statement, and whether the client sent it (a bundled
    /// PREPARE was not, and its outcome is dropped from the ack).
    stmts: Vec<(Stmt, bool)>,
    /// Names some statement of the unit PREPAREs so far.
    prepared: std::collections::HashSet<String>,
}

impl std::fmt::Debug for SessionHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionHandle")
            .field("in_transaction", &self.txn.is_some())
            .finish()
    }
}

impl Drop for SessionHandle {
    fn drop(&mut self) {
        self.inner.sessions.fetch_sub(1, Ordering::Relaxed);
    }
}

/// True when `stmt` cannot modify the database and may run on a
/// snapshot: plain SELECTs (no OID FUNCTION clause), their set-algebra
/// combinations, and EXPLAIN. Public so other serving layers (the TCP
/// replica front end) classify statements exactly like the service.
pub fn is_read_only(stmt: &Stmt) -> bool {
    match stmt {
        Stmt::Select(q) => q.oid_fn.is_none(),
        Stmt::RelOp { left, right, .. } => is_read_only(left) && is_read_only(right),
        Stmt::Explain { .. } => true,
        _ => false,
    }
}

/// `PREPARE name AS body`, for a writer unit that must carry a
/// statement the handle's reader prepared.
fn prepare(name: &str, body: &Stmt) -> Stmt {
    Stmt::Prepare {
        name: name.to_string(),
        stmt: Box::new(body.clone()),
    }
}

impl SessionHandle {
    /// Runs one parsed statement under `ctx`. Classification is automatic:
    /// read-only statements evaluate on this thread against the latest
    /// epoch; everything else goes through the writer.
    pub fn execute(&mut self, stmt: &Stmt, ctx: &QueryContext) -> Result<ExecResult, ServiceError> {
        match stmt {
            // Diagnostics, answered before read/write classification:
            // renders the service-wide registry (never a reader's own),
            // pinned to the epoch current at the call.
            Stmt::Stats => {
                self.inner.refresh_gauges();
                let ep = self.inner.epoch.load();
                Ok(ExecResult::Read(ReadResult {
                    outcome: Outcome::Stats {
                        report: self.inner.metrics.registry.render(),
                    },
                    epoch: ep.seq,
                    snapshot: ep.db,
                }))
            }
            Stmt::Begin => {
                if self.txn.is_some() {
                    return Err(ServiceError::Protocol(
                        "BEGIN WORK inside an open transaction".into(),
                    ));
                }
                self.txn = Some(HandleTxn::default());
                Ok(ExecResult::TxnStarted)
            }
            Stmt::Commit => {
                let txn = self.txn.take().ok_or_else(|| {
                    ServiceError::Protocol("COMMIT WORK without BEGIN WORK".into())
                })?;
                if txn.stmts.is_empty() {
                    return Ok(ExecResult::TxnCommitted(WriteAck {
                        outcomes: Vec::new(),
                        epoch: self.inner.epoch.load().seq,
                    }));
                }
                let stmts = txn.stmts.iter().map(|(stmt, _)| stmt.clone()).collect();
                match self.submit_write(stmts, true, ctx) {
                    Ok(mut ack) => {
                        ack.outcomes = std::mem::take(&mut ack.outcomes)
                            .into_iter()
                            .zip(&txn.stmts)
                            .filter_map(|(outcome, &(_, sent))| sent.then_some(outcome))
                            .collect();
                        Ok(ExecResult::TxnCommitted(ack))
                    }
                    // Shedding happens before the unit is enqueued
                    // (`Overloaded`) or after it rolled back cleanly
                    // without touching the log (`ReadOnly`): either way
                    // the transaction did not apply, so restore the
                    // buffer and let the client retry the COMMIT.
                    Err(e @ (ServiceError::Overloaded { .. } | ServiceError::ReadOnly { .. })) => {
                        self.txn = Some(txn);
                        Err(e)
                    }
                    Err(e) => Err(e),
                }
            }
            Stmt::Rollback => {
                self.txn.take().ok_or_else(|| {
                    ServiceError::Protocol("ROLLBACK WORK without BEGIN WORK".into())
                })?;
                Ok(ExecResult::TxnRolledBack)
            }
            _ if self.txn.is_some() => {
                let txn = self.txn.as_mut().expect("checked");
                match stmt {
                    // The writer session never saw a PREPARE made before
                    // BEGIN WORK: bundle the reader's body ahead of the
                    // first EXECUTE of it, unless the unit PREPAREs the
                    // name itself, which then wins.
                    Stmt::Execute { name, .. } if !txn.prepared.contains(name) => {
                        if let Some(body) = self.reader.prepared_stmt(name) {
                            txn.stmts.push((prepare(name, body), false));
                            txn.prepared.insert(name.clone());
                        }
                    }
                    Stmt::Prepare { name, .. } => {
                        txn.prepared.insert(name.clone());
                    }
                    _ => {}
                }
                txn.stmts.push((stmt.clone(), true));
                Ok(ExecResult::Buffered)
            }
            // EXECUTE routes like the body it names. The writer session
            // has its own prepared map, so a write EXECUTE carries the
            // PREPARE with it: the unit is self-contained, and atomic (a
            // failing EXECUTE drops the PREPARE with the rest of it).
            Stmt::Execute { name, .. } => match self.reader.prepared_stmt(name) {
                Some(body) if !is_read_only(body) => {
                    self.submit_write(vec![prepare(name, body), stmt.clone()], true, ctx)
                        .map(|mut ack| {
                            // Drop the bundled PREPARE's outcome: the
                            // client executed one statement.
                            if !ack.outcomes.is_empty() {
                                ack.outcomes.remove(0);
                            }
                            ExecResult::Write(ack)
                        })
                }
                // A read-only body, or a name the reader reports unknown.
                _ => self.read(stmt, ctx).map(ExecResult::Read),
            },
            // PREPARE resolves its body in the reader, whatever the body
            // does: nothing runs until EXECUTE.
            Stmt::Prepare { .. } => self.read(stmt, ctx).map(ExecResult::Read),
            s if is_read_only(s) => self.read(s, ctx).map(ExecResult::Read),
            _ => self
                .submit_write(vec![stmt.clone()], false, ctx)
                .map(ExecResult::Write),
        }
    }

    /// Convenience: run a read-only query and return its relation.
    pub fn query(
        &mut self,
        stmt: &Stmt,
        ctx: &QueryContext,
    ) -> Result<relalg::Relation, ServiceError> {
        match self.execute(stmt, ctx)? {
            ExecResult::Read(r) => match r.outcome {
                Outcome::Relation(rel) => Ok(rel),
                o => Err(ServiceError::Protocol(format!(
                    "statement did not produce a relation: {o:?}"
                ))),
            },
            _ => Err(ServiceError::Protocol(
                "statement was not a read-only query".into(),
            )),
        }
    }

    /// True while a handle transaction is buffering statements.
    pub fn in_transaction(&self) -> bool {
        self.txn.is_some()
    }

    /// Resolves the effective deadline: the context's own, else the
    /// service default.
    fn effective_deadline(&self, ctx: &QueryContext) -> Option<Instant> {
        ctx.deadline
            .or_else(|| self.inner.cfg.default_deadline.map(|d| Instant::now() + d))
    }

    /// Runs a parsed read on the handle's reader, through the reader
    /// gate.
    fn read(&mut self, stmt: &Stmt, ctx: &QueryContext) -> Result<ReadResult, ServiceError> {
        let inner = Arc::clone(&self.inner);
        let m = &inner.metrics;
        m.admitted_read.inc();
        let started = Instant::now();
        let deadline = self.effective_deadline(ctx);
        let wait_started = Instant::now();
        let slot = self.acquire_read_slot(deadline);
        m.read_admission_latency.observe_since(wait_started);
        let r = match slot {
            Ok(()) => {
                let exec_started = Instant::now();
                let ctx = QueryContext {
                    deadline,
                    ..ctx.clone()
                };
                let r = self.reader.read(&inner.epoch, stmt, &ctx);
                m.exec_latency_read.observe_since(exec_started);
                self.release_read_slot();
                r.map_err(ServiceError::from)
            }
            Err(e) => Err(e),
        };
        m.total_latency_read.observe_since(started);
        m.settle(true, &r);
        r
    }

    fn acquire_read_slot(&self, deadline: Option<Instant>) -> Result<(), ServiceError> {
        let cfg = &self.inner.cfg;
        let mut gate = self.inner.gate.lock().unwrap_or_else(|e| e.into_inner());
        if gate.active < cfg.max_readers {
            gate.active += 1;
            return Ok(());
        }
        if gate.waiting >= cfg.max_read_waiters {
            return Err(ServiceError::Overloaded {
                retry_after: self.inner.retry_hint(),
            });
        }
        gate.waiting += 1;
        let r = loop {
            if gate.active < cfg.max_readers {
                gate.active += 1;
                break Ok(());
            }
            match deadline {
                Some(d) => {
                    let now = Instant::now();
                    if now >= d {
                        break Err(ServiceError::Xsql(XsqlError::Cancelled {
                            reason: "deadline exceeded while waiting for a reader slot".into(),
                        }));
                    }
                    let (g, _) = self
                        .inner
                        .gate_cv
                        .wait_timeout(gate, d - now)
                        .unwrap_or_else(|e| e.into_inner());
                    gate = g;
                }
                None => {
                    gate = self
                        .inner
                        .gate_cv
                        .wait(gate)
                        .unwrap_or_else(|e| e.into_inner());
                }
            }
        };
        gate.waiting -= 1;
        r
    }

    fn release_read_slot(&self) {
        let mut gate = self.inner.gate.lock().unwrap_or_else(|e| e.into_inner());
        gate.active -= 1;
        // Only wake the condvar when a reader is actually parked.
        // Below the concurrency cap nobody ever waits, and the
        // unconditional futex wake was a measurable per-read cost at
        // low reader counts.
        let wake = gate.waiting > 0;
        drop(gate);
        if wake {
            self.inner.gate_cv.notify_one();
        }
    }

    fn submit_write(
        &self,
        stmts: Vec<Stmt>,
        txn: bool,
        ctx: &QueryContext,
    ) -> Result<WriteAck, ServiceError> {
        let m = &self.inner.metrics;
        m.admitted_write.inc();
        let started = Instant::now();
        let r = self.submit_write_inner(stmts, txn, ctx);
        m.total_latency_write.observe_since(started);
        m.settle(false, &r);
        r
    }

    fn submit_write_inner(
        &self,
        stmts: Vec<Stmt>,
        txn: bool,
        ctx: &QueryContext,
    ) -> Result<WriteAck, ServiceError> {
        self.inner.fenced_check()?;
        self.inner.poison_check()?;
        let deadline = self.effective_deadline(ctx);
        let tx = self
            .inner
            .tx
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .as_ref()
            .ok_or(ServiceError::ShuttingDown)?
            .clone();
        let (reply, ack) = mpsc::sync_channel(1);
        let req = WriteReq {
            stmts,
            txn,
            ctx: QueryContext {
                deadline,
                cancel: ctx.cancel.clone(),
                cancel_at_tick: ctx.cancel_at_tick,
            },
            enqueued_at: Instant::now(),
            reply,
        };
        match tx.try_send(req) {
            Ok(()) => {}
            Err(TrySendError::Full(_)) => {
                return Err(ServiceError::Overloaded {
                    retry_after: self.inner.retry_hint(),
                })
            }
            Err(TrySendError::Disconnected(_)) => return Err(ServiceError::ShuttingDown),
        }
        drop(tx);
        // Wait for the commit acknowledgement. Past the deadline, trip
        // the cancel token — the writer will abort the unit at its next
        // tick — and keep waiting for the definitive answer, so the
        // client always learns whether the unit committed.
        let got = match deadline {
            None => ack.recv().map_err(|_| ()),
            Some(d) => {
                let now = Instant::now();
                match ack.recv_timeout(d.saturating_duration_since(now)) {
                    Ok(r) => Ok(r),
                    Err(RecvTimeoutError::Timeout) => {
                        ctx.cancel.cancel();
                        ack.recv().map_err(|_| ())
                    }
                    Err(RecvTimeoutError::Disconnected) => Err(()),
                }
            }
        };
        match got {
            Ok(r) => r,
            Err(()) => Err(self
                .inner
                .fenced_check()
                .err()
                .or_else(|| self.inner.poison_check().err())
                .unwrap_or(ServiceError::ShuttingDown)),
        }
    }
}

/// Outcome of one unit inside the writer: a statement-level failure
/// leaves the service healthy; a disk-full failure sheds the unit and
/// degrades the service to read-only (the store recovers by probing);
/// a fatal (storage) failure poisons it.
enum UnitError {
    Stmt(XsqlError),
    ReadOnly,
    /// A newer primary generation owns the store: the node is deposed,
    /// not broken — reads keep serving, writes go to the new primary.
    Fenced {
        observed: u64,
    },
    Fatal(String),
}

fn classify(e: XsqlError) -> UnitError {
    match e {
        // ENOSPC is not fatal: the failed append rolled the statement
        // back, so memory still matches the log — the service degrades
        // to read-only and recovers when space frees, without restart.
        XsqlError::DiskFull(_) => UnitError::ReadOnly,
        // Fencing is not fatal either: the refused append rolled back
        // cleanly, the node is simply no longer the writer.
        XsqlError::Fenced { observed, .. } => UnitError::Fenced { observed },
        XsqlError::Storage(m) => UnitError::Fatal(format!("storage fault: {m}")),
        other => UnitError::Stmt(other),
    }
}

/// Executes one write unit on the writer session. On any statement
/// error inside an explicit unit the whole unit is rolled back, so a
/// unit is always all-or-nothing.
fn exec_unit(session: &mut Session, req: &WriteReq) -> Result<Vec<Outcome>, UnitError> {
    let mut opts = session.options().clone();
    opts.cancel = req.ctx.cancel.clone();
    opts.budget.deadline = req.ctx.deadline;
    opts.budget.cancel_at_tick = req.ctx.cancel_at_tick;
    session.set_options(opts);
    if !req.txn {
        return session
            .execute(&req.stmts[0])
            .map(|o| vec![o])
            .map_err(classify);
    }
    session.execute(&Stmt::Begin).map_err(classify)?;
    let mut outcomes = Vec::with_capacity(req.stmts.len());
    for s in &req.stmts {
        match session.execute(s) {
            Ok(o) => outcomes.push(o),
            Err(e) => return Err(abort_unit(session, e)),
        }
    }
    match session.execute(&Stmt::Commit) {
        Ok(_) => Ok(outcomes),
        Err(e) => Err(abort_unit(session, e)),
    }
}

/// Rolls the open unit back after `e`; a rollback failure is fatal
/// (the writer session is no longer in a known state).
fn abort_unit(session: &mut Session, e: XsqlError) -> UnitError {
    if let Err(r) = session.execute(&Stmt::Rollback) {
        return UnitError::Fatal(format!("unit failed ({e}) and rollback also failed: {r}"));
    }
    classify(e)
}

/// The writer thread: drain the queue in batches, execute each unit,
/// group-commit with one fsync, publish the new epoch, acknowledge.
fn writer_loop(mut session: Session, rx: Receiver<WriteReq>, inner: Arc<Inner>) -> Session {
    loop {
        let first = match rx.recv() {
            Ok(r) => r,
            Err(_) => break, // queue closed and drained: shutdown
        };
        let mut batch = vec![first];
        while batch.len() < inner.cfg.max_group_commit.max(1) {
            match rx.try_recv() {
                Ok(r) => batch.push(r),
                Err(_) => break,
            }
        }
        // While degraded (disk full), probe for freed space before the
        // batch: a successful probe lets this very batch commit instead
        // of being shed. Rate-limited by the store; no-op when healthy.
        session.probe_space();
        // Execute the whole batch with per-statement fsync off; the
        // single group fsync below makes it durable all at once.
        session.set_sync_on_commit(false);
        let mut fatal: Option<String> = None;
        let mut fenced: Option<u64> = None;
        let mut results: Vec<Result<Vec<Outcome>, ServiceError>> = Vec::with_capacity(batch.len());
        for req in &batch {
            inner
                .metrics
                .write_queue_latency
                .observe_since(req.enqueued_at);
            if let Some(m) = &fatal {
                results.push(Err(ServiceError::Poisoned(m.clone())));
                continue;
            }
            if let Some(observed) = fenced {
                results.push(Err(ServiceError::Fenced { observed }));
                continue;
            }
            let exec_started = Instant::now();
            let r = exec_unit(&mut session, req);
            inner.metrics.exec_latency_write.observe_since(exec_started);
            match r {
                Ok(o) => results.push(Ok(o)),
                Err(UnitError::Stmt(e)) => results.push(Err(ServiceError::Xsql(e))),
                Err(UnitError::ReadOnly) => results.push(Err(ServiceError::ReadOnly {
                    retry_after: inner.retry_hint(),
                })),
                Err(UnitError::Fenced { observed }) => {
                    results.push(Err(ServiceError::Fenced { observed }));
                    fenced = Some(observed);
                }
                Err(UnitError::Fatal(m)) => {
                    results.push(Err(ServiceError::Poisoned(m.clone())));
                    fatal = Some(m);
                }
            }
        }
        session.set_sync_on_commit(true);
        if fatal.is_none() && fenced.is_none() {
            // The generation is re-validated by this pre-ack fsync: a
            // promotion that raced the batch surfaces *here*, before
            // anything is acknowledged or published.
            if let Err(e) = session.sync_wal() {
                if let XsqlError::Fenced { observed, .. } = e {
                    fenced = Some(observed);
                } else {
                    fatal = Some(format!("group-commit fsync failed: {e}"));
                }
            }
        }
        let fsync_done = Instant::now();
        if let Some(observed) = fenced {
            // Deposed, not broken: nothing in this batch is acked or
            // published (any appended-but-unsynced records are stale-
            // term bytes the new timeline quarantines on rejoin), the
            // node keeps serving reads from its published epochs, and
            // every queued or future write is redirected by the typed
            // error. The writer parks — only reads remain.
            inner.set_fenced(observed);
            for (req, res) in batch.into_iter().zip(results) {
                let err = match res {
                    Err(e) => e,
                    Ok(_) => ServiceError::Fenced { observed },
                };
                let _ = req.reply.send(Err(err));
            }
            break;
        }
        match fatal {
            None => {
                // Durable: publish the new state and acknowledge. The
                // epoch is published *after* the fsync so readers never
                // observe state that could vanish in a crash.
                let seq = inner.epoch.publish(session.db().clone());
                inner.metrics.epoch_publish_lag.observe_since(fsync_done);
                for (req, res) in batch.into_iter().zip(results) {
                    let _ = req.reply.send(res.map(|outcomes| WriteAck {
                        outcomes,
                        epoch: seq,
                    }));
                }
                // The batch is durable and acknowledged; fold the WAL
                // into a checkpoint when enough segments have
                // accumulated. A checkpoint failure is harmless
                // here (the WAL still holds everything; the attempt is
                // recorded under `result=err` in telemetry).
                let _ = session.checkpoint_if_due();
            }
            Some(m) => {
                // Memory may have run ahead of the log: nothing in this
                // batch is acknowledged as committed, the epoch is not
                // advanced, and the service stops accepting writes.
                inner.set_poison(m.clone());
                for (req, res) in batch.into_iter().zip(results) {
                    let err = match res {
                        Err(e) => e,
                        Ok(_) => ServiceError::Poisoned(m.clone()),
                    };
                    let _ = req.reply.send(Err(err));
                }
                break;
            }
        }
    }
    // Drain epilogue: whichever path ended the loop — queue closed by
    // shutdown/drop or a fatal storage fault — the session leaves the
    // writer with per-statement durability re-armed and the log tail
    // flushed. Shutdown racing a group commit must never hand back a
    // session holding acked-but-unsynced state; the flush is a no-op on
    // the healthy path (the batch already fsynced) and best-effort on
    // the poisoned one.
    session.set_sync_on_commit(true);
    let _ = session.sync_wal();
    session
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stmt(src: &str) -> Stmt {
        xsql::parse(src).unwrap()
    }

    fn mini_session() -> Session {
        let mut s = Session::new(Database::new());
        s.run_script(
            "CREATE CLASS Counter;
             ALTER CLASS Counter ADD SIGNATURE Val => Numeral;
             ALTER CLASS Counter ADD SIGNATURE Tag => String;
             CREATE OBJECT c0 CLASS Counter SET Val = 0, Tag = 'zero';",
        )
        .unwrap();
        s
    }

    fn val(h: &mut SessionHandle) -> i64 {
        let rel = h
            .query(
                &stmt("SELECT W FROM Numeral W WHERE c0.Val[W]"),
                &QueryContext::default(),
            )
            .unwrap();
        let oid = rel.iter().next().unwrap()[0];
        let snap = match h
            .execute(
                &stmt("SELECT W FROM Numeral W WHERE c0.Val[W]"),
                &QueryContext::default(),
            )
            .unwrap()
        {
            ExecResult::Read(r) => r.snapshot,
            _ => unreachable!(),
        };
        snap.oids().as_number(oid).unwrap() as i64
    }

    #[test]
    fn writes_publish_epochs_reads_see_them() {
        let svc = Service::start(mini_session(), ServiceConfig::default());
        let mut h = svc.connect().unwrap();
        assert_eq!(val(&mut h), 0);
        let r = h
            .execute(
                &stmt("UPDATE CLASS Counter SET c0.Val = 41"),
                &QueryContext::default(),
            )
            .unwrap();
        let ExecResult::Write(ack) = r else {
            panic!("{r:?}")
        };
        assert!(ack.epoch >= 1);
        assert_eq!(val(&mut h), 41);
        drop(h);
        let session = svc.shutdown().unwrap();
        assert!(!session.in_transaction());
    }

    #[test]
    fn handle_transaction_is_atomic_and_buffered() {
        let svc = Service::start(mini_session(), ServiceConfig::default());
        let mut h = svc.connect().unwrap();
        let ctx = QueryContext::default();
        assert!(matches!(
            h.execute(&stmt("BEGIN WORK"), &ctx).unwrap(),
            ExecResult::TxnStarted
        ));
        assert!(matches!(
            h.execute(&stmt("UPDATE CLASS Counter SET c0.Val = 7"), &ctx)
                .unwrap(),
            ExecResult::Buffered
        ));
        // Buffered, not executed: other sessions still see 0.
        let mut h2 = svc.connect().unwrap();
        assert_eq!(val(&mut h2), 0);
        let r = h.execute(&stmt("COMMIT WORK"), &ctx).unwrap();
        let ExecResult::TxnCommitted(ack) = r else {
            panic!("{r:?}")
        };
        assert_eq!(ack.outcomes.len(), 1);
        assert_eq!(val(&mut h2), 7);
    }

    #[test]
    fn failing_statement_aborts_the_whole_unit() {
        let svc = Service::start(mini_session(), ServiceConfig::default());
        let mut h = svc.connect().unwrap();
        let ctx = QueryContext::default();
        h.execute(&stmt("BEGIN WORK"), &ctx).unwrap();
        h.execute(&stmt("UPDATE CLASS Counter SET c0.Val = 9"), &ctx)
            .unwrap();
        // Arithmetic on the string-valued Tag fails at eval time.
        h.execute(&stmt("UPDATE CLASS Counter SET c0.Val = c0.Tag + 1"), &ctx)
            .unwrap();
        let err = h.execute(&stmt("COMMIT WORK"), &ctx).unwrap_err();
        assert!(matches!(err, ServiceError::Xsql(_)), "{err}");
        assert_eq!(val(&mut h), 0, "unit must be all-or-nothing");
        // The writer session is healthy: later writes commit.
        h.execute(&stmt("UPDATE CLASS Counter SET c0.Val = 5"), &ctx)
            .unwrap();
        assert_eq!(val(&mut h), 5);
    }

    /// A handle's PREPARE lives in its reader; an EXECUTE of a write
    /// body goes to the writer with the PREPARE bundled, a read body
    /// reads, and an unknown name is the engine's error.
    #[test]
    fn prepared_writes_and_reads_route_by_their_body() {
        let svc = Service::start(mini_session(), ServiceConfig::default());
        let mut h = svc.connect().unwrap();
        let ctx = QueryContext::default();
        h.execute(
            &stmt("PREPARE bump AS UPDATE CLASS Counter SET c0.Val = ?1"),
            &ctx,
        )
        .unwrap();
        h.execute(
            &stmt("PREPARE get AS SELECT W FROM Numeral W WHERE c0.Val[W]"),
            &ctx,
        )
        .unwrap();
        let r = h.execute(&stmt("EXECUTE bump (41)"), &ctx).unwrap();
        let ExecResult::Write(ack) = r else {
            panic!("{r:?}")
        };
        assert!(matches!(
            ack.outcomes[..],
            [Outcome::Updated { entries: 1 }]
        ));
        assert_eq!(val(&mut h), 41);
        assert!(matches!(
            h.execute(&stmt("EXECUTE get"), &ctx).unwrap(),
            ExecResult::Read(_)
        ));
        let err = h.execute(&stmt("EXECUTE nope"), &ctx).unwrap_err();
        assert!(
            err.to_string().contains("unknown prepared statement"),
            "{err}"
        );
    }

    #[test]
    fn connect_limit_sheds() {
        let cfg = ServiceConfig {
            max_sessions: 2,
            ..ServiceConfig::default()
        };
        let svc = Service::start(mini_session(), cfg);
        let _a = svc.connect().unwrap();
        let _b = svc.connect().unwrap();
        assert!(matches!(
            svc.connect(),
            Err(ServiceError::Overloaded { .. })
        ));
        drop(_a);
        assert!(svc.connect().is_ok());
    }

    /// Pins the jitter distribution under a fixed seed: deterministic,
    /// inside the advertised band, and actually dispersed (no lockstep).
    #[test]
    fn retry_jitter_distribution_is_pinned_under_a_seed() {
        let base = Duration::from_millis(100);
        let a = RetryJitter::new(42, 0.5);
        let draws: Vec<Duration> = (0..64).map(|_| a.next_after(base)).collect();
        // Reproducible: a second stream with the same seed replays it.
        let b = RetryJitter::new(42, 0.5);
        let again: Vec<Duration> = (0..64).map(|_| b.next_after(base)).collect();
        assert_eq!(draws, again);
        // A different seed gives a different sequence.
        let c = RetryJitter::new(43, 0.5);
        assert_ne!(
            draws,
            (0..64).map(|_| c.next_after(base)).collect::<Vec<_>>()
        );
        // Every hint sits in [base, base * 1.5].
        for d in &draws {
            assert!(*d >= base && *d <= base.mul_f64(1.5), "{d:?}");
        }
        // Dispersed, not lockstep: many distinct values, spanning most
        // of the band.
        let mut uniq: Vec<Duration> = draws.clone();
        uniq.sort();
        uniq.dedup();
        assert!(uniq.len() >= 48, "only {} distinct hints", uniq.len());
        let lo = *uniq.first().unwrap();
        let hi = *uniq.last().unwrap();
        assert!(
            hi - lo >= base.mul_f64(0.25),
            "band too narrow: {lo:?}..{hi:?}"
        );
        // frac = 0 restores the legacy fixed hint.
        let fixed = RetryJitter::new(42, 0.0);
        assert!((0..8).all(|_| fixed.next_after(base) == base));
    }

    /// Two services configured with the same seed shed identical hint
    /// sequences; clients shed together still get *different* hints.
    #[test]
    fn shed_hints_are_jittered_and_seed_deterministic() {
        let cfg = ServiceConfig {
            max_sessions: 1,
            jitter_seed: 7,
            ..ServiceConfig::default()
        };
        let hints = |cfg: ServiceConfig| -> Vec<Duration> {
            let svc = Service::start(mini_session(), cfg);
            let _keep = svc.connect().unwrap();
            (0..8)
                .map(|_| match svc.connect() {
                    Err(ServiceError::Overloaded { retry_after }) => retry_after,
                    other => panic!("expected shed, got {other:?}"),
                })
                .collect()
        };
        let a = hints(cfg.clone());
        let b = hints(cfg.clone());
        assert_eq!(a, b, "same seed, same hint sequence");
        let mut uniq = a.clone();
        uniq.sort();
        uniq.dedup();
        assert!(uniq.len() >= 6, "hints should not be lockstep: {a:?}");
        for d in &a {
            assert!(*d >= cfg.retry_after && *d <= cfg.retry_after.mul_f64(1.5));
        }
    }

    #[test]
    fn shutdown_rejects_new_writes() {
        let svc = Service::start(mini_session(), ServiceConfig::default());
        let mut h = svc.connect().unwrap();
        let session = {
            let svc2 = svc;
            svc2.close_queue();
            let err = h
                .execute(
                    &stmt("UPDATE CLASS Counter SET c0.Val = 1"),
                    &QueryContext::default(),
                )
                .unwrap_err();
            assert!(matches!(err, ServiceError::ShuttingDown), "{err}");
            svc2.shutdown().unwrap()
        };
        assert!(!session.in_transaction());
    }
}
