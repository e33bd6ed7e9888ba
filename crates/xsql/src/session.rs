//! The user-facing XSQL session: parse → resolve → execute.

use crate::ast::*;
use crate::error::{XsqlError, XsqlResult};
use crate::eval::select::{eval_rows, select_rows};
use crate::eval::view::{create_view, materialize, reattach_view, update_through_view, ViewDef};
use crate::eval::{create, method, update, Ctx, EvalOptions};
use crate::parser::{parse, parse_script};
use crate::resolve::resolve_stmt;
use crate::unparse::unparse_stmt;
use crate::vm;
use oodb::{Database, Oid};
use relalg::Relation;
use std::collections::BTreeMap;
use std::path::PathBuf;
use storage::codec::{decode_commit, encode_commit, CommitUnit, WalEntry};
use storage::{
    CheckpointStats, SalvageReport, SnapshotFile, StorageFs, Store, StoreConfig, StoreHealth,
};

/// The result of executing one XSQL statement.
#[derive(Debug, Clone)]
pub enum Outcome {
    /// A SELECT produced a relation (§3.3).
    Relation(Relation),
    /// An object-creating query produced new objects (§4.1).
    Created {
        /// OIDs of the created objects (id-terms of the id-function).
        oids: Vec<Oid>,
    },
    /// A view was created and materialized (§4.2).
    ViewCreated {
        /// The view's class-object.
        class: Oid,
        /// Number of view objects materialized.
        count: usize,
    },
    /// A method was defined via ALTER CLASS (§5).
    MethodDefined {
        /// The class whose definition was extended.
        class: Oid,
        /// The method-object.
        method: Oid,
    },
    /// An UPDATE wrote this many entries (§5).
    Updated {
        /// Number of state entries written.
        entries: usize,
    },
    /// A class was defined (extension DDL).
    ClassCreated {
        /// The new class-object.
        class: Oid,
    },
    /// An individual was created (extension DDL).
    ObjectCreated {
        /// The new individual.
        oid: Oid,
    },
    /// A signature was declared without a method body.
    SignatureAdded {
        /// The extended class.
        class: Oid,
        /// The declared method-object.
        method: Oid,
    },
    /// EXPLAIN: the typing report and plan (or measured profile, with
    /// ANALYZE) for a query.
    Explained {
        /// Rendered report.
        report: String,
    },
    /// STATS: the session's telemetry exposition.
    Stats {
        /// Rendered metrics (text or JSON per the telemetry config).
        report: String,
    },
    /// `BEGIN WORK` opened an explicit transaction.
    TransactionStarted,
    /// `COMMIT WORK` made the open transaction permanent.
    TransactionCommitted,
    /// `ROLLBACK WORK` restored the `BEGIN WORK` state.
    TransactionRolledBack,
    /// `PREPARE name AS <stmt>` resolved and stored a statement.
    Prepared {
        /// The prepared statement's name.
        name: String,
    },
    /// `WAL ON` enabled write-ahead logging (after a checkpoint).
    WalEnabled,
    /// `WAL OFF` disabled write-ahead logging.
    WalDisabled,
    /// `CHECKPOINT` wrote a snapshot and truncated the WAL.
    Checkpointed,
}

impl Outcome {
    /// The relation, if this outcome is one (convenience for tests).
    pub fn relation(&self) -> Option<&Relation> {
        match self {
            Outcome::Relation(r) => Some(r),
            _ => None,
        }
    }
}

/// An XSQL session: a database plus the view catalogue and evaluation
/// options. The paper's statements are strings; [`Session::run`] is the
/// whole pipeline.
///
/// ```
/// use oodb::DbBuilder;
/// use xsql::Session;
///
/// let mut b = DbBuilder::new();
/// b.class("Person");
/// b.attr("Person", "Name", "String");
/// let mary = b.obj("mary123", "Person");
/// b.set_str(mary, "Name", "Mary");
///
/// let mut s = Session::new(b.build());
/// let r = s.query("SELECT X FROM Person X WHERE X.Name['Mary']").unwrap();
/// assert_eq!(r.len(), 1);
/// ```
#[derive(Debug)]
pub struct Session {
    db: Database,
    opts: EvalOptions,
    views: BTreeMap<String, ViewDef>,
    anon_counter: usize,
    /// Explicit-transaction state: present between `BEGIN WORK` and the
    /// matching `COMMIT WORK`/`ROLLBACK WORK`.
    txn: Option<TxnState>,
    /// Set when a statement fails inside an open explicit transaction:
    /// the transaction is *poisoned* and every further statement except
    /// `ROLLBACK WORK` is rejected with
    /// [`XsqlError::TransactionPoisoned`]. The failed statement itself
    /// was already rolled back; poisoning removes the ambiguity of
    /// continuing a transaction whose script did not go as written.
    poison: Option<String>,
    /// The durable store, when the session was opened over a directory
    /// ([`Session::open_dir`]).
    store: Option<Store>,
    /// Whether committed statements are appended to the WAL. Off by
    /// default for plain in-memory sessions; on after [`Session::open_dir`].
    wal_enabled: bool,
    /// WAL entries of statements committed inside the open explicit
    /// transaction, flushed as one record at `COMMIT WORK`.
    pending: Vec<WalEntry>,
    /// Source text of every definitional statement executed so far
    /// (`ALTER CLASS … SELECT`, `CREATE VIEW`). Their effects are
    /// closures that no snapshot can serialize, so checkpoints persist
    /// this catalog and recovery re-executes it definitions-only.
    catalog: Vec<String>,
    /// Tag of the base fixture the store was created over.
    base_tag: String,
    /// What the last [`Session::open_dir`] recovery found — kept for the
    /// CLI's recovery report.
    recovery: Option<RecoveryInfo>,
    /// Telemetry registry: per-statement latency, recovery counters,
    /// and (once attached) the store's WAL/checkpoint metrics all land
    /// here. Metrics are always recorded — only span capture and the
    /// profile's timing lines follow the registry's
    /// [`telemetry::TelemetryConfig`].
    registry: std::sync::Arc<telemetry::Registry>,
    /// Cached handle so per-statement recording skips the registry lock.
    stmt_latency: std::sync::Arc<telemetry::Histogram>,
    /// Named prepared statements (`PREPARE … AS`). Session-local and
    /// never WAL-logged: a client must re-PREPARE after a crash or
    /// reconnect. Entries resolved under an older schema epoch, or
    /// before a [`Session::rebase`], are transparently re-resolved at
    /// EXECUTE.
    prepared: BTreeMap<String, PreparedEntry>,
    /// The transparent plan cache: resolved programs keyed on the
    /// statement's token stream, fenced by schema epoch
    /// ([`crate::vm::PlanCache`]). Consulted by [`Session::run`] when
    /// [`EvalOptions::use_vm`] is on.
    plan_cache: vm::PlanCache,
    /// Cached plan-cache metric handles (re-derived on
    /// [`Session::set_registry`]).
    cache_metrics: vm::CacheMetrics,
}

/// One `PREPARE`d statement: the unresolved body (kept for
/// re-resolution when the schema epoch moves) and the resolved program.
#[derive(Debug, Clone)]
struct PreparedEntry {
    /// The statement as written (parameters intact, names unresolved).
    src: Stmt,
    /// The program resolved from `src`; `None` once a
    /// [`Session::rebase`] replaced the database it was resolved
    /// against, so the next EXECUTE re-resolves.
    program: Option<std::sync::Arc<vm::Program>>,
}

/// Summary of what crash recovery did when the session opened its
/// store — the basis of the CLI's recovery report.
#[derive(Debug, Clone)]
pub struct RecoveryInfo {
    /// Whether a checkpoint image was loaded (vs. starting from the
    /// base fixture).
    pub snapshot_loaded: bool,
    /// Definitional catalog statements re-executed.
    pub catalog_stmts: usize,
    /// WAL commit units replayed past the checkpoint.
    pub wal_units: usize,
    /// Present when recovery discarded WAL bytes: where the first bad
    /// record was and what was quarantined.
    pub salvage: Option<SalvageReport>,
}

impl RecoveryInfo {
    /// Human-readable recovery report (what the CLI prints on open).
    pub fn report(&self) -> String {
        let mut out = format!(
            "recovery: snapshot={} catalog_stmts={} wal_units_replayed={}",
            if self.snapshot_loaded {
                "loaded"
            } else {
                "none"
            },
            self.catalog_stmts,
            self.wal_units,
        );
        if let Some(s) = &self.salvage {
            out.push_str(&format!(
                "\nsalvage: first bad record in {} at byte {}; {} record(s), {} byte(s) dropped",
                s.segment, s.offset, s.records_dropped, s.bytes_dropped
            ));
            if s.quarantined.is_empty() {
                out.push_str("\nsalvage: torn tail truncated in place (expected crash state)");
            } else {
                out.push_str(&format!(
                    "\nsalvage: quarantined (preserved, never deleted): {}",
                    s.quarantined.join(", ")
                ));
            }
        }
        out
    }
}

/// Snapshot taken at `BEGIN WORK`: the database savepoint plus the
/// session-level catalogue state (views, anonymous-name counter) that
/// the undo log does not cover.
#[derive(Debug)]
struct TxnState {
    sp: oodb::Savepoint,
    views: BTreeMap<String, ViewDef>,
    anon_counter: usize,
    catalog_len: usize,
    /// Prepared statements as of `BEGIN WORK`. `ROLLBACK WORK` restores
    /// this snapshot: a program resolved inside the transaction may
    /// reference OIDs the rollback un-interns, so in-transaction
    /// PREPAREs must not survive it.
    prepared: BTreeMap<String, PreparedEntry>,
}

/// How a committed statement is journaled in the WAL.
enum LogAs {
    /// As the redo ops it recorded (the common case).
    Ops,
    /// As its source text, re-executed on replay (definitional
    /// statements whose effect installs a closure).
    Stmt(String),
}

impl Session {
    /// Opens a session over a database with default (pipelined) options.
    pub fn new(db: Database) -> Session {
        Session::with_options(db, EvalOptions::default())
    }

    /// Opens a session with explicit evaluation options. The telemetry
    /// configuration is read from the environment (`XSQL_TELEMETRY`,
    /// `XSQL_TELEMETRY_FORMAT`, `XSQL_TELEMETRY_DETERMINISTIC`);
    /// [`Session::set_registry`] swaps in a different registry.
    pub fn with_options(db: Database, opts: EvalOptions) -> Session {
        let registry = std::sync::Arc::new(telemetry::Registry::from_env());
        let stmt_latency = registry.latency("xsql_stmt_latency_us", &[]);
        let cache_metrics = vm::CacheMetrics::new(&registry);
        let plan_cache = vm::PlanCache::new(&registry);
        Session {
            db,
            opts,
            views: BTreeMap::new(),
            anon_counter: 0,
            txn: None,
            poison: None,
            store: None,
            wal_enabled: false,
            pending: Vec::new(),
            catalog: Vec::new(),
            base_tag: String::new(),
            recovery: None,
            registry,
            stmt_latency,
            prepared: BTreeMap::new(),
            plan_cache,
            cache_metrics,
        }
    }

    /// Opens a session over a store directory, creating the store on
    /// first use and running crash recovery on every later open.
    ///
    /// `base` is the fixture database the store's history applies to and
    /// `base_tag` names it; the tag is persisted in the store's `meta`
    /// file and must match on reopen (the WAL is a delta over the
    /// fixture, so replaying it onto a different base would corrupt).
    /// Recovery loads the latest valid snapshot (or starts from `base`),
    /// re-executes the definitional catalog, replays the surviving WAL
    /// tail, and leaves the session with WAL logging enabled.
    pub fn open_dir(
        fs: Box<dyn StorageFs>,
        dir: impl Into<PathBuf>,
        base: Database,
        base_tag: &str,
        opts: EvalOptions,
    ) -> XsqlResult<Session> {
        let dir = dir.into();
        if !Store::exists(fs.as_ref(), &dir) {
            let mut store = Store::create(fs, &dir, base_tag)?;
            let mut s = Session::with_options(base, opts);
            store.attach_registry(&s.registry);
            s.base_tag = base_tag.to_string();
            s.store = Some(store);
            s.wal_enabled = true;
            s.db.set_redo_logging(true);
            return Ok(s);
        }
        let (store, recovered) = Store::open(fs, &dir)?;
        if recovered.base_tag != base_tag {
            return Err(XsqlError::Storage(format!(
                "store was created over base `{}`, not `{base_tag}`",
                recovered.base_tag
            )));
        }
        let snapshot_loaded = recovered.snapshot.is_some();
        let catalog_stmts = recovered
            .snapshot
            .as_ref()
            .map_or(0, |snap| snap.catalog.len());
        let mut s = Session::restore_image(base, base_tag, recovered.snapshot, opts)?;
        // What recovery had to do, for `STATS` / post-mortems.
        s.registry
            .gauge("xsql_recovery_snapshot_loaded", &[])
            .set(i64::from(snapshot_loaded));
        s.registry
            .counter("xsql_recovery_catalog_stmts_total", &[])
            .add(catalog_stmts as u64);
        s.registry
            .counter("xsql_recovery_wal_units_total", &[])
            .add(recovered.tail.len() as u64);
        if let Some(salvage) = &recovered.salvage {
            // The salvage point, in metrics: one event, how many
            // parseable records it cost, and whether it escalated from
            // a torn tail to quarantine.
            s.registry.counter("storage_wal_salvage_total", &[]).inc();
            s.registry
                .counter("storage_wal_salvage_records_dropped_total", &[])
                .add(salvage.records_dropped);
            s.registry
                .counter("storage_wal_quarantined_segments_total", &[])
                .add(salvage.quarantined.len() as u64);
        }
        s.recovery = Some(RecoveryInfo {
            snapshot_loaded,
            catalog_stmts,
            wal_units: recovered.tail.len(),
            salvage: recovered.salvage.clone(),
        });
        // Replay the WAL tail past the checkpoint image.
        for (_seq, payload) in &recovered.tail {
            s.apply_commit_payload(payload)?;
        }
        s.db.commit();
        let mut store = store;
        store.attach_registry(&s.registry);
        s.store = Some(store);
        s.wal_enabled = true;
        s.db.set_redo_logging(true);
        Ok(s)
    }

    /// Builds a session from a checkpoint *image* — the decoded
    /// `snapshot.bin`, as [`Store::open`] returns it — or from the bare
    /// fixture when no checkpoint exists yet.
    /// The definitional catalog is replayed definitions-only (the
    /// snapshot already holds the state those statements produced).
    ///
    /// This is the bootstrap half of crash recovery, shared by
    /// [`Session::open_dir`] and by WAL-shipped read replicas, which
    /// rebuild from the primary's shipped image and then stream commit
    /// units through [`Session::apply_commit_payload`]. The returned
    /// session has no store attached and WAL logging off.
    pub fn restore_image(
        base: Database,
        base_tag: &str,
        snapshot: Option<SnapshotFile>,
        opts: EvalOptions,
    ) -> XsqlResult<Session> {
        let (db, snap_anon, snap_catalog) = match snapshot {
            Some(snap) => (
                Database::import_snapshot(snap.db)?,
                snap.anon_counter,
                snap.catalog,
            ),
            None => (base, 0, Vec::new()),
        };
        let mut s = Session::with_options(db, opts);
        s.base_tag = base_tag.to_string();
        s.anon_counter = usize::try_from(snap_anon).expect("counter fits usize");
        for src in snap_catalog {
            s.replay_definition(&src)?;
            s.catalog.push(src);
        }
        Ok(s)
    }

    /// Applies one WAL commit-unit payload (the bytes of a single log
    /// record) to this session's database. Redo ops apply directly;
    /// definitional statements re-execute in full (their effects are
    /// never in a snapshot) and re-enter the catalog. The payload's
    /// anonymous-OID counter overwrites the session's, keeping replayed
    /// name generation aligned with the primary's.
    ///
    /// Both halves of log replay go through here: crash recovery of a
    /// store's own tail, and a replica streaming the primary's shipped
    /// segments. The encoding is position-independent (structural
    /// OIDs), so a unit encoded against the primary's OID table decodes
    /// correctly against this session's.
    pub fn apply_commit_payload(&mut self, payload: &[u8]) -> XsqlResult<()> {
        let unit = decode_commit(payload, self.db.oids_mut())?;
        for entry in unit.entries {
            match entry {
                WalEntry::Ops(ops) => {
                    for op in &ops {
                        self.db.apply_redo(op)?;
                    }
                }
                // `run` also re-appends the statement to the catalog.
                WalEntry::Stmt(src) => {
                    self.run(&src)?;
                }
            }
        }
        self.anon_counter = usize::try_from(unit.anon_counter).expect("counter fits usize");
        Ok(())
    }

    /// Re-installs one definitional statement from the catalog without
    /// re-running its query: method definitions re-resolve and register
    /// their closure (signature insertion is idempotent), views rebuild
    /// their [`ViewDef`] against the already-materialized class.
    fn replay_definition(&mut self, src: &str) -> XsqlResult<()> {
        let stmt = parse(src)?;
        let resolved = resolve_stmt(&mut self.db, &stmt)?;
        match &resolved {
            Stmt::AlterClass(a) => {
                method::install_method(&mut self.db, a, &self.opts)?;
            }
            Stmt::CreateView(v) => {
                let def = reattach_view(&self.db, v)?;
                self.views.insert(v.name.clone(), def);
            }
            other => {
                return Err(XsqlError::Storage(format!(
                    "catalog holds a non-definitional statement: {}",
                    unparse_stmt(other)
                )));
            }
        }
        Ok(())
    }

    /// The underlying database.
    pub fn db(&self) -> &Database {
        &self.db
    }

    /// Mutable access to the underlying database.
    pub fn db_mut(&mut self) -> &mut Database {
        &mut self.db
    }

    /// Consumes the session, returning the database.
    pub fn into_db(self) -> Database {
        self.db
    }

    /// Replaces the database with `db`, a newer committed state of the
    /// one the session was serving — how a kept reader session moves to
    /// the next published epoch. Nothing resolved against the old
    /// database survives: the plan cache is cleared and every prepared
    /// statement is re-resolved from its stored body at its next
    /// EXECUTE. (`schema_epoch` alone cannot fence a rebase: two
    /// databases may reach the same epoch over different OID tables.)
    ///
    /// Meant for sessions that only read: the view catalogue and the
    /// anonymous-name counter are kept, and it must not be called
    /// inside an open transaction.
    pub fn rebase(&mut self, db: Database) {
        debug_assert!(self.txn.is_none(), "rebase inside an open transaction");
        self.db = db;
        self.plan_cache.clear();
        for entry in self.prepared.values_mut() {
            entry.program = None;
        }
    }

    /// The body of prepared statement `name` as written (parameters
    /// intact, names unresolved), if this session knows the name.
    pub fn prepared_stmt(&self, name: &str) -> Option<&Stmt> {
        self.prepared.get(name).map(|e| &e.src)
    }

    /// The evaluation options in force.
    pub fn options(&self) -> &EvalOptions {
        &self.opts
    }

    /// Replaces the evaluation options.
    pub fn set_options(&mut self, opts: EvalOptions) {
        self.opts = opts;
    }

    /// A registered view definition.
    pub fn view(&self, name: &str) -> Option<&ViewDef> {
        self.views.get(name)
    }

    /// The session's telemetry registry.
    pub fn registry(&self) -> &std::sync::Arc<telemetry::Registry> {
        &self.registry
    }

    /// Replaces the telemetry registry — a service attaches one shared
    /// registry to every session this way. Cached metric handles are
    /// re-derived and the store (if any) is re-pointed at the new
    /// registry.
    pub fn set_registry(&mut self, registry: std::sync::Arc<telemetry::Registry>) {
        self.stmt_latency = registry.latency("xsql_stmt_latency_us", &[]);
        self.cache_metrics = vm::CacheMetrics::new(&registry);
        self.plan_cache.set_registry(&registry);
        if let Some(store) = &mut self.store {
            store.attach_registry(&registry);
        }
        self.registry = registry;
    }

    /// Renders the telemetry exposition (what the `STATS` statement
    /// returns): every metric in the registry, in the configured format.
    pub fn stats_report(&self) -> String {
        self.registry.render()
    }

    /// Parses, resolves and executes one statement.
    ///
    /// Statements are **atomic**: the statement runs inside an implicit
    /// savepoint, and any error rolls the database (and the session's
    /// view catalogue) back to the pre-statement state. Outside an
    /// explicit transaction a successful statement commits immediately;
    /// inside one it stays undoable until `COMMIT WORK`.
    pub fn run(&mut self, src: &str) -> XsqlResult<Outcome> {
        self.run_src(src, None)
    }

    /// [`Session::run`] for a statement the caller already parsed from
    /// `src` (a server that parsed it to classify the request). The
    /// source is lexed for the plan-cache key but never parsed again.
    pub fn run_parsed(&mut self, stmt: &Stmt, src: &str) -> XsqlResult<Outcome> {
        self.run_src(src, Some(stmt))
    }

    /// The plan cache, when on, is consulted on the statement's
    /// token-stream key under the current schema epoch; a hit skips
    /// parse and resolve entirely. On a miss, cacheable statements
    /// (plain SELECTs) are resolved, run, and cached; everything else
    /// takes the stock path. `src` is parsed only when `parsed` is
    /// `None` and the cache missed.
    fn run_src(&mut self, src: &str, parsed: Option<&Stmt>) -> XsqlResult<Outcome> {
        let key = self.opts.use_vm.then(|| vm::cache_key(src)).flatten();
        if let Some(key) = &key {
            let epoch = self.db.schema_epoch();
            if let Some(prog) = self.plan_cache.lookup(key, epoch, &self.cache_metrics) {
                return self.execute_program_gated(|s| s.run_program(&prog, &[]));
            }
        }
        let owned;
        let stmt = match parsed {
            Some(stmt) => stmt,
            None => {
                owned = parse(src)?;
                &owned
            }
        };
        let Some(key) = key.filter(|_| vm::cacheable(stmt)) else {
            return self.execute(stmt);
        };
        self.cache_metrics.misses.inc();
        let mut resolved_prog: Option<std::sync::Arc<vm::Program>> = None;
        let out = self.execute_program_gated(|s| {
            let resolved = resolve_stmt(&mut s.db, stmt)?;
            let prog = std::sync::Arc::new(vm::Program::new(&s.db, resolved, 0));
            let outcome = s.run_program(&prog, &[])?;
            resolved_prog = Some(prog);
            Ok(outcome)
        })?;
        if let Some(prog) = resolved_prog {
            self.plan_cache.insert(key, prog, &self.cache_metrics);
        }
        Ok(out)
    }

    /// Runs a program-producing closure with the same telemetry span,
    /// latency recording, poison gate, atomicity and poison-on-failure
    /// rule as [`Session::execute`].
    fn execute_program_gated(
        &mut self,
        f: impl FnOnce(&mut Self) -> XsqlResult<Outcome>,
    ) -> XsqlResult<Outcome> {
        let registry = std::sync::Arc::clone(&self.registry);
        let _span = registry.span("xsql.execute");
        let started = std::time::Instant::now();
        let result = match self.poison_gate() {
            Ok(()) => {
                let r = self.atomically_as(LogAs::Ops, f);
                if let Err(e) = &r {
                    self.note_statement_failure(e);
                }
                r
            }
            Err(e) => Err(e),
        };
        self.stmt_latency.observe_since(started);
        result
    }

    /// Runs a `;`-separated script, returning the outcome of each
    /// statement. Each statement is atomic ([`Session::run`]); a failing
    /// statement is rolled back but the effects of the preceding
    /// successful ones stay in place, unless the script wrapped them in
    /// `BEGIN WORK … COMMIT WORK`. A transaction left open at the end of
    /// the script stays open in the session.
    pub fn run_script(&mut self, src: &str) -> XsqlResult<Vec<Outcome>> {
        let stmts = parse_script(src)?;
        let mut out = Vec::with_capacity(stmts.len());
        for s in &stmts {
            out.push(self.execute(s)?);
        }
        Ok(out)
    }

    /// True between `BEGIN WORK` and the matching `COMMIT`/`ROLLBACK`.
    pub fn in_transaction(&self) -> bool {
        self.txn.is_some()
    }

    /// The error that poisoned the open transaction, if any. While
    /// poisoned, only `ROLLBACK WORK` is accepted.
    pub fn transaction_poisoned(&self) -> Option<&str> {
        self.poison.as_deref()
    }

    /// Rejects any statement other than `ROLLBACK WORK` while the open
    /// transaction is poisoned.
    fn poison_gate(&self) -> XsqlResult<()> {
        match &self.poison {
            Some(cause) => Err(XsqlError::TransactionPoisoned {
                cause: cause.clone(),
            }),
            None => Ok(()),
        }
    }

    /// Records a statement failure: inside an open explicit transaction
    /// it poisons the transaction (the statement itself already rolled
    /// back; what remains of the transaction no longer matches the
    /// script the user intended, so further statements are refused
    /// until `ROLLBACK WORK`).
    fn note_statement_failure(&mut self, e: &XsqlError) {
        if self.txn.is_some() && self.poison.is_none() {
            self.poison = Some(e.to_string());
        }
    }

    /// True when the session is backed by a durable store.
    pub fn has_store(&self) -> bool {
        self.store.is_some()
    }

    /// True while committed statements are being appended to the WAL.
    pub fn wal_enabled(&self) -> bool {
        self.wal_enabled
    }

    /// Disables (or re-enables) the fsync after each WAL append.
    /// **For benchmarking only** — without the sync, acknowledged
    /// commits can be lost on power failure. No-op without a store.
    pub fn set_sync_on_commit(&mut self, on: bool) {
        if let Some(store) = &mut self.store {
            store.set_sync_on_commit(on);
        }
    }

    /// Fsyncs the WAL file. Group commit pairs this with
    /// [`set_sync_on_commit`](Session::set_sync_on_commit)`(false)`: a
    /// batch of statements is appended without per-statement syncs and
    /// made durable all at once before any of them is acknowledged.
    /// No-op without a store.
    pub fn sync_wal(&mut self) -> XsqlResult<()> {
        if let Some(store) = &mut self.store {
            store.sync_wal()?;
        }
        Ok(())
    }

    /// What the last [`Session::open_dir`] recovery found, if this
    /// session was opened over a store.
    pub fn recovery_info(&self) -> Option<&RecoveryInfo> {
        self.recovery.as_ref()
    }

    /// The store's disk-health state ([`StoreHealth::Healthy`] for a
    /// session without a store — an in-memory session cannot run out of
    /// disk).
    pub fn store_health(&self) -> StoreHealth {
        self.store
            .as_ref()
            .map_or(StoreHealth::Healthy, |s| s.health())
    }

    /// While the store is degraded (disk full), probes for freed space;
    /// returns true when the store accepts writes. Rate-limited by the
    /// store config; a no-op true without a store.
    pub fn probe_space(&mut self) -> bool {
        self.store.as_mut().is_none_or(|s| s.probe_space())
    }

    /// The store's primary generation (fencing term); 1 without a
    /// store (a purely in-memory session can never be deposed).
    pub fn store_generation(&self) -> u64 {
        self.store.as_ref().map_or(1, |s| s.generation())
    }

    /// True once the store observed a newer primary generation and
    /// fenced itself: every further write fails with
    /// [`XsqlError::Fenced`] while reads keep serving.
    pub fn store_fenced(&self) -> bool {
        self.store.as_ref().is_some_and(|s| s.is_fenced())
    }

    /// Promotes this session's store to a new primary generation:
    /// bumps the fencing term and rotates onto a segment stamped with
    /// it, deposing any writer still holding the old term. Returns the
    /// new generation. Errors without a store.
    pub fn promote_store(&mut self) -> XsqlResult<u64> {
        match &mut self.store {
            Some(store) => Ok(store.promote()?),
            None => Err(XsqlError::Storage(
                "cannot promote: session has no durable store".into(),
            )),
        }
    }

    /// Replaces the store's tuning config (segment size, checkpoint
    /// triggers, retry policy). No-op without a store.
    pub fn set_store_config(&mut self, cfg: StoreConfig) {
        if let Some(store) = &mut self.store {
            store.set_config(cfg);
        }
    }

    /// Takes an automatic checkpoint if the store says enough WAL has
    /// accumulated ([`Store::checkpoint_due`]); returns the stats when
    /// one ran. Never fires inside a transaction, while the WAL is off,
    /// or while the store is degraded.
    pub fn checkpoint_if_due(&mut self) -> XsqlResult<Option<CheckpointStats>> {
        if self.txn.is_some() || !self.wal_enabled {
            return Ok(None);
        }
        match &self.store {
            Some(store) if store.checkpoint_due() => self.checkpoint_now().map(Some),
            _ => Ok(None),
        }
    }

    /// Runs a statement that must produce a relation.
    pub fn query(&mut self, src: &str) -> XsqlResult<Relation> {
        match self.run(src)? {
            Outcome::Relation(r) => Ok(r),
            o => Err(XsqlError::Resolve(format!(
                "statement did not produce a relation: {o:?}"
            ))),
        }
    }

    /// Executes a parsed statement atomically: name resolution and
    /// evaluation run inside an implicit savepoint, and any error
    /// restores the database and the view catalogue to the
    /// pre-statement state before propagating.
    pub fn execute(&mut self, stmt: &Stmt) -> XsqlResult<Outcome> {
        let registry = std::sync::Arc::clone(&self.registry);
        let _span = registry.span("xsql.execute");
        let started = std::time::Instant::now();
        let result = self.execute_gated(stmt);
        self.stmt_latency.observe_since(started);
        result
    }

    fn execute_gated(&mut self, stmt: &Stmt) -> XsqlResult<Outcome> {
        match stmt {
            // Diagnostics: read the registry without touching the
            // statement pipeline (works even in a poisoned transaction).
            Stmt::Stats => {
                return Ok(Outcome::Stats {
                    report: self.stats_report(),
                })
            }
            Stmt::Begin => return self.poison_gate().and_then(|()| self.txn_begin()),
            Stmt::Commit => return self.poison_gate().and_then(|()| self.txn_commit()),
            Stmt::Rollback => return self.txn_rollback(),
            Stmt::WalOn => return self.poison_gate().and_then(|()| self.wal_on()),
            Stmt::WalOff => return self.poison_gate().and_then(|()| self.wal_off()),
            Stmt::Checkpoint => return self.poison_gate().and_then(|()| self.checkpoint()),
            _ => self.poison_gate()?,
        }
        // Parameters only bind through EXECUTE; a bare `?n` anywhere
        // outside a PREPARE body can never receive a value.
        if !matches!(stmt, Stmt::Prepare { .. }) && vm::max_param(stmt) > 0 {
            let e = XsqlError::Resolve(
                "parameters (`?1`, `?2`, …) are only allowed inside a PREPARE body".into(),
            );
            self.note_statement_failure(&e);
            return Err(e);
        }
        // Definitional statements install closures (computed methods,
        // view definitions) that redo ops cannot capture; they are
        // journaled as source text and re-executed on replay.
        let log_as = match stmt {
            Stmt::AlterClass(_) | Stmt::CreateView(_) => LogAs::Stmt(unparse_stmt(stmt)),
            _ => LogAs::Ops,
        };
        let result = self.atomically_as(log_as, |s| {
            let resolved = resolve_stmt(&mut s.db, stmt)?;
            s.execute_resolved(&resolved)
        });
        if let Err(e) = &result {
            self.note_statement_failure(e);
        }
        result
    }

    /// [`Session::atomically_as`] with op-level journaling — for entry
    /// points that mutate outside the statement pipeline (`invoke`,
    /// `refresh_view`, `update_view`). Applies the same poison gate and
    /// poison-on-failure rule as [`Session::execute`].
    fn atomically<T>(&mut self, f: impl FnOnce(&mut Self) -> XsqlResult<T>) -> XsqlResult<T> {
        self.poison_gate()?;
        let result = self.atomically_as(LogAs::Ops, f);
        if let Err(e) = &result {
            self.note_statement_failure(e);
        }
        result
    }

    /// Runs `f` inside an implicit savepoint: on error the database,
    /// the view catalogue, the anonymous-name counter and the
    /// definitional catalog are restored to their state at entry.
    /// Outside an explicit transaction the savepoint's log is discarded
    /// afterwards (auto-commit); inside one it is kept so `ROLLBACK
    /// WORK` can unwind further. Must not be nested (the inner
    /// auto-commit would discard the outer span).
    ///
    /// When WAL logging is on, success also journals the statement
    /// (immediately outside a transaction, buffered inside one). The
    /// statement is acknowledged only after its WAL record is durable; a
    /// failed append rolls the statement back like any other error, so
    /// memory never runs ahead of the log.
    fn atomically_as<T>(
        &mut self,
        log_as: LogAs,
        f: impl FnOnce(&mut Self) -> XsqlResult<T>,
    ) -> XsqlResult<T> {
        let sp = self.db.savepoint();
        let views = self.views.clone();
        let anon = self.anon_counter;
        let catalog_len = self.catalog.len();
        let mark = self.db.redo_len();
        let result = f(self).and_then(|v| {
            self.flush_statement(log_as, mark)?;
            Ok(v)
        });
        if result.is_err() {
            self.db.truncate_redo(mark);
            if let Err(e) = self.db.rollback_to(sp) {
                // The savepoint was taken in this very span; losing it
                // means something outside the session committed the log.
                return Err(XsqlError::Internal(format!(
                    "statement rollback failed: {e}"
                )));
            }
            self.views = views;
            self.anon_counter = anon;
            self.catalog.truncate(catalog_len);
        }
        if self.txn.is_none() {
            self.db.commit();
        }
        result
    }

    /// Journals one successfully executed statement. Definitional
    /// statements always extend the catalog (checkpoints need them even
    /// when the WAL is off); WAL entries are written only when logging
    /// is on — immediately (one commit unit per auto-committed
    /// statement) or into the transaction's pending buffer.
    fn flush_statement(&mut self, log_as: LogAs, mark: usize) -> XsqlResult<()> {
        let logging = self.store.is_some() && self.wal_enabled;
        let entry = match log_as {
            LogAs::Stmt(src) => {
                // Re-execution covers the ops; drop the duplicate image.
                self.db.truncate_redo(mark);
                self.catalog.push(src.clone());
                if logging {
                    Some(WalEntry::Stmt(src))
                } else {
                    None
                }
            }
            LogAs::Ops => {
                let ops = self.db.take_redo_from(mark);
                if logging && !ops.is_empty() {
                    Some(WalEntry::Ops(ops))
                } else {
                    None
                }
            }
        };
        let Some(entry) = entry else { return Ok(()) };
        if self.txn.is_some() {
            self.pending.push(entry);
            return Ok(());
        }
        let unit = CommitUnit {
            anon_counter: self.anon_counter as u64,
            entries: vec![entry],
        };
        let payload = encode_commit(&unit, self.db.oids());
        let store = self.store.as_mut().expect("logging implies a store");
        store.append_commit(&payload)?;
        Ok(())
    }

    fn txn_begin(&mut self) -> XsqlResult<Outcome> {
        if self.txn.is_some() {
            return Err(XsqlError::Resolve(
                "BEGIN WORK: a transaction is already open".into(),
            ));
        }
        let sp = self.db.begin();
        self.txn = Some(TxnState {
            sp,
            views: self.views.clone(),
            anon_counter: self.anon_counter,
            catalog_len: self.catalog.len(),
            prepared: self.prepared.clone(),
        });
        Ok(Outcome::TransactionStarted)
    }

    fn txn_commit(&mut self) -> XsqlResult<Outcome> {
        if self.txn.is_none() {
            return Err(XsqlError::Resolve(
                "COMMIT WORK: no open transaction".into(),
            ));
        }
        // The whole transaction is one WAL record: replaying a log can
        // never surface half a transaction. If the append fails the
        // transaction stays open — the caller may retry or roll back.
        if let Some(store) = &mut self.store {
            if self.wal_enabled && !self.pending.is_empty() {
                let unit = CommitUnit {
                    anon_counter: self.anon_counter as u64,
                    entries: self.pending.clone(),
                };
                let payload = encode_commit(&unit, self.db.oids());
                store.append_commit(&payload)?;
            }
        }
        self.pending.clear();
        self.txn = None;
        self.db.commit();
        Ok(Outcome::TransactionCommitted)
    }

    fn txn_rollback(&mut self) -> XsqlResult<Outcome> {
        let Some(t) = self.txn.take() else {
            return Err(XsqlError::Resolve(
                "ROLLBACK WORK: no open transaction".into(),
            ));
        };
        // ROLLBACK WORK is the (only) cure for a poisoned transaction.
        self.poison = None;
        self.db.rollback_to(t.sp)?;
        self.db.commit();
        self.views = t.views;
        self.anon_counter = t.anon_counter;
        self.catalog.truncate(t.catalog_len);
        self.prepared = t.prepared;
        self.pending.clear();
        Ok(Outcome::TransactionRolledBack)
    }

    fn require_store(&self, what: &str) -> XsqlResult<()> {
        if self.txn.is_some() {
            return Err(XsqlError::Resolve(format!(
                "{what}: not allowed inside a transaction"
            )));
        }
        if self.store.is_none() {
            return Err(XsqlError::Resolve(format!(
                "{what}: the session has no store (open a directory first)"
            )));
        }
        Ok(())
    }

    fn wal_on(&mut self) -> XsqlResult<Outcome> {
        self.require_store("WAL ON")?;
        if !self.wal_enabled {
            // Changes made while the WAL was off exist only in memory;
            // checkpoint first so the resumed log has no gap.
            self.checkpoint_now()?;
            self.wal_enabled = true;
            self.db.set_redo_logging(true);
        }
        Ok(Outcome::WalEnabled)
    }

    fn wal_off(&mut self) -> XsqlResult<Outcome> {
        self.require_store("WAL OFF")?;
        self.wal_enabled = false;
        self.db.set_redo_logging(false);
        Ok(Outcome::WalDisabled)
    }

    fn checkpoint(&mut self) -> XsqlResult<Outcome> {
        self.require_store("CHECKPOINT")?;
        self.checkpoint_now()?;
        Ok(Outcome::Checkpointed)
    }

    fn checkpoint_now(&mut self) -> XsqlResult<CheckpointStats> {
        let snap = SnapshotFile {
            base_tag: self.base_tag.clone(),
            last_seq: 0, // filled in by the store
            anon_counter: self.anon_counter as u64,
            catalog: self.catalog.clone(),
            db: self.db.export_snapshot(),
        };
        let store = self.store.as_mut().expect("caller ensured a store");
        Ok(store.checkpoint(snap)?)
    }

    /// Executes an already-resolved, non-transaction-control statement.
    fn execute_resolved(&mut self, stmt: &Stmt) -> XsqlResult<Outcome> {
        match stmt {
            Stmt::Select(q) => self.exec_select(q),
            Stmt::RelOp { left, op, right } => {
                let l = self.execute_resolved(left)?;
                let r = self.execute_resolved(right)?;
                let (Outcome::Relation(l), Outcome::Relation(r)) = (l, r) else {
                    return Err(XsqlError::Resolve(
                        "relational operators require SELECT operands".into(),
                    ));
                };
                let out = match op {
                    RelOp::Union => l.union(&r),
                    RelOp::Minus => l.minus(&r),
                    RelOp::Intersect => l.intersect(&r),
                }
                .map_err(|e| XsqlError::Resolve(e.to_string()))?;
                Ok(Outcome::Relation(out))
            }
            Stmt::CreateView(v) => {
                if self.views.contains_key(&v.name) {
                    return Err(XsqlError::Resolve(format!(
                        "view `{}` already exists",
                        v.name
                    )));
                }
                let (def, oids) = create_view(&mut self.db, v, &self.opts)?;
                let class = def.class;
                self.views.insert(v.name.clone(), def);
                Ok(Outcome::ViewCreated {
                    class,
                    count: oids.len(),
                })
            }
            Stmt::AlterClass(a) => {
                let (class, m) = method::install_method(&mut self.db, a, &self.opts)?;
                Ok(Outcome::MethodDefined { class, method: m })
            }
            Stmt::AddSignature { class, signature } => {
                let class_oid = self
                    .db
                    .oids()
                    .find_sym(class)
                    .filter(|&c| self.db.is_class(c))
                    .ok_or_else(|| XsqlError::Resolve(format!("unknown class `{class}`")))?;
                let resolve_class = |db: &Database, n: &str| {
                    db.oids()
                        .find_sym(n)
                        .filter(|&c| db.is_class(c))
                        .ok_or_else(|| XsqlError::Resolve(format!("unknown class `{n}`")))
                };
                let args = signature
                    .args
                    .iter()
                    .map(|n| resolve_class(&self.db, n))
                    .collect::<XsqlResult<Vec<_>>>()?;
                let result = resolve_class(&self.db, &signature.result)?;
                let method = self.db.add_signature(
                    class_oid,
                    &signature.method,
                    &args,
                    result,
                    signature.set_valued,
                )?;
                Ok(Outcome::SignatureAdded {
                    class: class_oid,
                    method,
                })
            }
            Stmt::Update(u) => {
                let entries = update::exec_update(&mut self.db, u, &[], &self.opts)?;
                Ok(Outcome::Updated { entries })
            }
            Stmt::CreateClass(c) => {
                let supers = c
                    .supers
                    .iter()
                    .map(|n| {
                        self.db
                            .oids()
                            .find_sym(n)
                            .filter(|&s| self.db.is_class(s))
                            .ok_or_else(|| XsqlError::Resolve(format!("unknown superclass `{n}`")))
                    })
                    .collect::<XsqlResult<Vec<_>>>()?;
                let class = self.db.define_class(&c.name, &supers)?;
                Ok(Outcome::ClassCreated { class })
            }
            Stmt::CreateObject(o) => {
                let classes = o
                    .classes
                    .iter()
                    .map(|n| {
                        self.db
                            .oids()
                            .find_sym(n)
                            .filter(|&c| self.db.is_class(c))
                            .ok_or_else(|| XsqlError::Resolve(format!("unknown class `{n}`")))
                    })
                    .collect::<XsqlResult<Vec<_>>>()?;
                let oid = self.db.new_individual(&o.name, &classes)?;
                for (attr, op) in &o.sets {
                    // Attribute initializers are evaluated under empty
                    // bindings (they may navigate from constants).
                    let cells: Vec<crate::eval::value::Cell> = {
                        let ctx = Ctx::new(&self.db, &self.opts);
                        let bnd = crate::eval::bindings::Bindings::new();
                        ctx.operand_value(op, &bnd)?
                            .into_iter()
                            .map(crate::eval::value::Cell::from)
                            .collect()
                    };
                    let m = self.db.oids_mut().sym(attr);
                    let set_valued = self
                        .db
                        .signatures_of_method(m, 0)
                        .iter()
                        .any(|(_, s)| s.set_valued);
                    if set_valued || cells.len() > 1 {
                        let oids: Vec<Oid> = cells
                            .into_iter()
                            .map(|c| c.into_oid(self.db.oids_mut()))
                            .collect();
                        self.db.set_set(oid, m, &[], oids)?;
                    } else if let Some(&cell) = cells.first() {
                        let v = cell.into_oid(self.db.oids_mut());
                        self.db.set_scalar(oid, m, &[], v)?;
                    }
                }
                Ok(Outcome::ObjectCreated { oid })
            }
            Stmt::Explain {
                analyze,
                stmt: inner,
            } => {
                // Defense in depth for programmatic ASTs — the parser
                // already rejects non-SELECT operands with a span.
                let Stmt::Select(q) = inner.as_ref() else {
                    return Err(XsqlError::Resolve(
                        "EXPLAIN applies to SELECT queries only".into(),
                    ));
                };
                let report = if *analyze {
                    self.explain_analyze(q)?
                } else {
                    self.explain(q)?
                };
                Ok(Outcome::Explained { report })
            }
            Stmt::Prepare { name, stmt: inner } => {
                // The body is resolved now; EXECUTE pays zero
                // parse/resolve cost. The unresolved body is kept so a
                // schema-epoch change can re-resolve it.
                let n_params = vm::max_param(inner);
                let resolved = resolve_stmt(&mut self.db, inner)?;
                let program = std::sync::Arc::new(vm::Program::new(&self.db, resolved, n_params));
                self.prepared.insert(
                    name.clone(),
                    PreparedEntry {
                        src: (**inner).clone(),
                        program: Some(program),
                    },
                );
                Ok(Outcome::Prepared { name: name.clone() })
            }
            Stmt::Execute { name, args } => {
                let entry = self.prepared.get(name).cloned().ok_or_else(|| {
                    XsqlError::Resolve(format!(
                        "unknown prepared statement `{name}` (prepared statements are \
                         session-local; re-PREPARE after reconnect or crash)"
                    ))
                })?;
                let epoch = self.db.schema_epoch();
                let program = match entry.program {
                    Some(program) if program.epoch == epoch => {
                        self.cache_metrics.hits.inc();
                        program
                    }
                    // The schema moved since PREPARE, or the session was
                    // rebased: the resolved program is fenced out;
                    // re-resolve the stored body against the current
                    // database.
                    _ => {
                        self.cache_metrics.invalidations.inc();
                        let n_params = vm::max_param(&entry.src);
                        let resolved = resolve_stmt(&mut self.db, &entry.src)?;
                        let program =
                            std::sync::Arc::new(vm::Program::new(&self.db, resolved, n_params));
                        self.prepared.insert(
                            name.clone(),
                            PreparedEntry {
                                src: entry.src,
                                program: Some(std::sync::Arc::clone(&program)),
                            },
                        );
                        program
                    }
                };
                let oids: Vec<Oid> = args
                    .iter()
                    .map(|a| match a {
                        IdTerm::Oid(o) => Ok(*o),
                        other => Err(XsqlError::Resolve(format!(
                            "EXECUTE arguments must be constants (got `{other:?}`)"
                        ))),
                    })
                    .collect::<XsqlResult<_>>()?;
                self.run_program(&program, &oids)
            }
            Stmt::Stats => Ok(Outcome::Stats {
                report: self.stats_report(),
            }),
            Stmt::Begin
            | Stmt::Commit
            | Stmt::Rollback
            | Stmt::WalOn
            | Stmt::WalOff
            | Stmt::Checkpoint => Err(XsqlError::Resolve(
                "transaction/storage control cannot be nested inside another statement".into(),
            )),
        }
    }

    /// Renders the §6 typing report plus the static evaluation plan for
    /// a query (plain `EXPLAIN` — nothing is executed).
    fn explain(&self, q: &SelectQuery) -> XsqlResult<String> {
        use crate::typing::{analyze, extract, ranges_for, Exemptions, Verdict};
        let mut out = String::new();
        match analyze(&self.db, q, &Exemptions::none()) {
            Verdict::StrictlyWellTyped { assignment, plan } => {
                let shape = extract(&self.db, q).expect("strict implies extractable");
                out.push_str(
                    "strictly well-typed
",
                );
                out.push_str(&format!(
                    "assignment: {}
",
                    assignment.render(&self.db, &shape)
                ));
                out.push_str(&format!(
                    "coherent plan (path order): {plan:?}
"
                ));
                let occs = shape.occurrences();
                let ranges = ranges_for(&self.db, &shape, &assignment, &occs);
                for (v, classes) in ranges {
                    if v.starts_with("_anon") {
                        continue;
                    }
                    let names: Vec<String> = classes.iter().map(|&c| self.db.render(c)).collect();
                    out.push_str(&format!(
                        "range A({v}) = {{{}}}
",
                        names.join(", ")
                    ));
                }
            }
            Verdict::LiberallyWellTyped { assignment } => {
                let shape = extract(&self.db, q).expect("liberal implies extractable");
                out.push_str(
                    "liberally well-typed (not strictly: no coherent plan)
",
                );
                out.push_str(&format!(
                    "assignment: {}
",
                    assignment.render(&self.db, &shape)
                ));
            }
            Verdict::IllTyped => {
                out.push_str(
                    "ill-typed: no valid complete assignment with non-empty ranges                      (the query returns no answers on any database with this schema)
",
                );
            }
            Verdict::OutsideFragment { reason } => {
                out.push_str(&format!(
                    "outside the §6.2 typable fragment: {reason}
"
                ));
            }
        }
        // The static plan under the session's options — what EXPLAIN
        // ANALYZE would measure, predicted without running the query.
        let ctx = Ctx::new(&self.db, &self.opts);
        out.push_str(&crate::eval::profile::static_plan(&ctx, q));
        Ok(out)
    }

    /// Runs the query and renders its measured execution profile
    /// (`EXPLAIN ANALYZE`). Object-creating queries are rejected: the
    /// ANALYZE contract is that the statement's only effect is the
    /// report, and `OID FUNCTION OF` would mutate the database.
    fn explain_analyze(&self, q: &SelectQuery) -> XsqlResult<String> {
        if q.oid_fn.is_some() {
            return Err(XsqlError::Resolve(
                "EXPLAIN ANALYZE cannot run an object-creating query (OID FUNCTION OF)".into(),
            ));
        }
        let profile = std::sync::Arc::new(crate::eval::profile::QueryProfile::default());
        let opts = EvalOptions {
            profile: Some(std::sync::Arc::clone(&profile)),
            ..self.opts.clone()
        };
        let ctx = Ctx::new(&self.db, &opts);
        eval_rows(&ctx, q)?;
        Ok(profile.render())
    }

    /// Executes a program with the given EXECUTE arguments: binds the
    /// parameters and runs the bound statement through
    /// [`Session::execute_resolved`], still skipping parse and resolve.
    /// A planner-fragment SELECT is planned afresh on every run.
    fn run_program(&mut self, prog: &vm::Program, args: &[Oid]) -> XsqlResult<Outcome> {
        // The epoch fence: callers already validated (cache lookup /
        // EXECUTE re-resolve), so a mismatch here is a bug — count it
        // (the chaos harness asserts this stays 0) and refuse to run.
        if prog.epoch != self.db.schema_epoch() {
            self.cache_metrics.stale_executions.inc();
            return Err(XsqlError::Internal(
                "stale program reached execution (schema epoch changed since resolution)".into(),
            ));
        }
        if prog.n_params == 0 && args.is_empty() {
            return self.execute_resolved(&prog.stmt);
        }
        let bound = prog.bind(args, &self.db)?;
        self.execute_resolved(&bound)
    }

    fn exec_select(&mut self, q: &SelectQuery) -> XsqlResult<Outcome> {
        if q.oid_fn.is_some() {
            let fn_name = match q.oid_fn.as_ref().and_then(|s| s.function.clone()) {
                Some(n) => n,
                None => {
                    self.anon_counter += 1;
                    format!("_oidfn{}", self.anon_counter)
                }
            };
            let oids = create::run_creation(
                &mut self.db,
                q,
                &self.opts,
                &fn_name,
                None,
                &BTreeMap::new(),
            )?;
            return Ok(Outcome::Created { oids });
        }
        let (columns, rows) = {
            let ctx = Ctx::new(&self.db, &self.opts);
            select_rows(&ctx, q)?
        };
        Ok(Outcome::Relation(
            rows.into_relation(columns, self.db.oids_mut()),
        ))
    }

    /// Runs a SELECT with the Theorem 6.1 optimization: when the query
    /// is strictly well-typed, evaluation restricts every variable to
    /// its range `A(X)` under a coherent assignment; otherwise it falls
    /// back to plain evaluation (the optimization "is not always
    /// possible", §6.2). Sound on signature-conformant databases
    /// ([`oodb::Database::check_conformance`]).
    pub fn query_typed(&mut self, src: &str) -> XsqlResult<Relation> {
        self.poison_gate()?;
        let stmt = parse(src)?;
        let stmt = resolve_stmt(&mut self.db, &stmt)?;
        let Stmt::Select(q) = &stmt else {
            return Err(XsqlError::Resolve(
                "query_typed applies to SELECT statements".into(),
            ));
        };
        if q.oid_fn.is_some() {
            return Err(XsqlError::Resolve(
                "query_typed does not run object-creating queries".into(),
            ));
        }
        use crate::typing::{theorem61_ranges, Exemptions};
        let ranges = theorem61_ranges(&self.db, q, &Exemptions::none())?;
        let (columns, rows) = {
            let ranges_ref = ranges.as_ref();
            let ctx = match ranges_ref {
                Some(r) => Ctx::with_ranges(&self.db, &self.opts, r),
                None => Ctx::new(&self.db, &self.opts),
            };
            select_rows(&ctx, q)?
        };
        Ok(rows.into_relation(columns, self.db.oids_mut()))
    }

    /// Invokes a (possibly update) method on a receiver by name —
    /// convenience mirroring §5's method-call semantics.
    pub fn invoke(
        &mut self,
        recv: Oid,
        method: &str,
        args: &[Oid],
    ) -> XsqlResult<Option<oodb::Val>> {
        let m = self
            .db
            .oids()
            .find_sym(method)
            .ok_or_else(|| XsqlError::Resolve(format!("unknown method `{method}`")))?;
        // Update methods can fail mid-mutation; run atomically.
        self.atomically(|s| Ok(s.db.invoke_update(recv, m, args)?))
    }

    /// Re-materializes a view after base updates (§4.2 views are
    /// query-defined; this recomputes the extent and drops stale
    /// objects).
    pub fn refresh_view(&mut self, name: &str) -> XsqlResult<usize> {
        let def = self
            .views
            .get(name)
            .cloned()
            .ok_or_else(|| XsqlError::Resolve(format!("unknown view `{name}`")))?;
        self.atomically(|s| {
            let oids = materialize(&mut s.db, &def, &s.opts)?;
            Ok(oids.len())
        })
    }

    /// Translates an update on a view object to the underlying database
    /// (§4.2 "an update made through the view on the Salary attribute …
    /// can be translated into an update on the database").
    pub fn update_view(
        &mut self,
        view: &str,
        view_obj: Oid,
        attr: &str,
        new_value: Oid,
    ) -> XsqlResult<()> {
        let def = self
            .views
            .get(view)
            .cloned()
            .ok_or_else(|| XsqlError::Resolve(format!("unknown view `{view}`")))?;
        self.atomically(|s| update_through_view(&mut s.db, &def, view_obj, attr, new_value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oodb::DbBuilder;

    /// Companies with divisions and employees — the §4 fixture.
    fn company_db() -> Database {
        let mut b = DbBuilder::new();
        b.class("Person");
        b.subclass("Employee", &["Person"]);
        b.class("Company");
        b.class("Division");
        b.attr("Person", "Name", "String");
        b.attr("Employee", "Salary", "Numeral");
        b.set_attr("Employee", "Dependents", "Person");
        b.attr("Company", "Name", "String");
        b.set_attr("Company", "Divisions", "Division");
        b.set_attr("Company", "Retirees", "Person");
        b.attr("Division", "Name", "String");
        b.attr("Division", "Manager", "Employee");
        b.set_attr("Division", "Employees", "Employee");

        let e1 = b.obj("emp1", "Employee");
        b.set_str(e1, "Name", "Alice");
        b.set_int(e1, "Salary", 40000);
        let e2 = b.obj("emp2", "Employee");
        b.set_str(e2, "Name", "Bob");
        b.set_int(e2, "Salary", 30000);
        let e3 = b.obj("emp3", "Employee");
        b.set_str(e3, "Name", "Carol");
        b.set_int(e3, "Salary", 50000);
        let dep = b.obj("kid1", "Person");
        b.set_many(e1, "Dependents", &[dep]);

        let d1 = b.obj("divSales", "Division");
        b.set_str(d1, "Name", "Sales");
        b.set(d1, "Manager", e1);
        b.set_many(d1, "Employees", &[e1, e2]);
        let d2 = b.obj("divEng", "Division");
        b.set_str(d2, "Name", "Engineering");
        b.set(d2, "Manager", e3);
        b.set_many(d2, "Employees", &[e3]);

        let c = b.obj("acme", "Company");
        b.set_str(c, "Name", "Acme");
        b.set_many(c, "Divisions", &[d1, d2]);
        let ret = b.obj("oldTimer", "Person");
        b.set_many(c, "Retirees", &[ret]);
        b.build()
    }

    #[test]
    fn object_creation_per_pair() {
        let mut s = Session::new(company_db());
        let out = s
            .run(
                "SELECT EmpSalary = W.Salary FROM Company X OID FUNCTION OF X,W \
                 WHERE X.Divisions.Employees[W]",
            )
            .unwrap();
        match out {
            Outcome::Created { oids } => assert_eq!(oids.len(), 3),
            o => panic!("unexpected {o:?}"),
        }
    }

    #[test]
    fn ill_defined_query_detected() {
        // §4.1: OID FUNCTION OF X only, but EmpSalary varies per W.
        let mut s = Session::new(company_db());
        let err = s
            .run(
                "SELECT CompName = X.Name, EmpSalary = W.Salary FROM Company X \
                 OID FUNCTION OF X WHERE X.Divisions.Employees[W]",
            )
            .unwrap_err();
        assert!(matches!(err, XsqlError::IllDefined(_)), "got {err}");
    }

    #[test]
    fn grouped_set_attribute() {
        // Query (8): beneficiaries = retirees + dependents.
        let mut s = Session::new(company_db());
        let out = s
            .run(
                "SELECT CompName = Y.Name, Beneficiaries = {W} FROM Company Y \
                 OID FUNCTION OF Y WHERE Y.Retirees[W] \
                 or Y.Divisions.Employees.Dependents[W]",
            )
            .unwrap();
        let Outcome::Created { oids } = out else {
            panic!()
        };
        assert_eq!(oids.len(), 1);
        let obj = oids[0];
        let m = s.db().oids().find_sym("Beneficiaries").unwrap();
        let v = s.db().value(obj, m, &[]).unwrap().unwrap();
        assert_eq!(v.len(), 2); // oldTimer + kid1
    }

    #[test]
    fn view_create_and_query_through() {
        let mut s = Session::new(company_db());
        let out = s
            .run(
                "CREATE VIEW CompSalaries AS SUBCLASS OF Object \
                 SIGNATURE CompName => String, DivName => String, Salary => Numeral \
                 SELECT CompName = X.Name, DivName = Y.Name, Salary = W.Salary \
                 FROM Company X OID FUNCTION OF X,W \
                 WHERE X.Divisions[Y].Employees[W]",
            )
            .unwrap();
        match out {
            Outcome::ViewCreated { count, .. } => assert_eq!(count, 3),
            o => panic!("unexpected {o:?}"),
        }
        // Query (10)-style: companies with an employee above 35000,
        // through the view's id-function.
        let r = s
            .query(
                "SELECT X.Name FROM Company X, Employee W \
                 WHERE CompSalaries(X, W).Salary > 35000",
            )
            .unwrap();
        assert_eq!(r.len(), 1);
        // The view is also an ordinary class.
        let r = s
            .query("SELECT V FROM CompSalaries V WHERE V.Salary > 35000")
            .unwrap();
        assert_eq!(r.len(), 2); // Alice 40000, Carol 50000
    }

    #[test]
    fn view_update_translates_to_base() {
        let mut s = Session::new(company_db());
        s.run(
            "CREATE VIEW EmpSal AS SUBCLASS OF Object \
             SIGNATURE Salary => Numeral \
             SELECT Salary = W.Salary FROM Employee W OID FUNCTION OF W \
             WHERE W.Salary",
        )
        .unwrap();
        let emp1 = s.db().oids().find_sym("emp1").unwrap();
        let fn_sym = s.db().oids().find_sym("EmpSal").unwrap();
        let view_obj = s.db().oids().find_func(fn_sym, &[emp1]).unwrap();
        let new_sal = s.db_mut().oids_mut().int(99000);
        s.update_view("EmpSal", view_obj, "Salary", new_sal)
            .unwrap();
        let sal = s.db().oids().find_sym("Salary").unwrap();
        let v = s.db().value(emp1, sal, &[]).unwrap().unwrap();
        assert_eq!(
            s.db().oids().as_number(v.as_scalar().unwrap()),
            Some(99000.0)
        );
    }

    #[test]
    fn method_definition_and_use() {
        // Query (12): MngrSalary.
        let mut s = Session::new(company_db());
        s.run(
            "ALTER CLASS Company ADD SIGNATURE MngrSalary : String => Numeral \
             SELECT (MngrSalary @ Y.Name) = W FROM Company X OID X \
             WHERE X.Divisions[Y].Manager.Salary[W]",
        )
        .unwrap();
        let acme = s.db().oids().find_sym("acme").unwrap();
        let sales = s.db_mut().oids_mut().str("Sales");
        let v = s.invoke(acme, "MngrSalary", &[sales]).unwrap().unwrap();
        assert_eq!(
            s.db().oids().as_number(v.as_scalar().unwrap()),
            Some(40000.0)
        );
        // And inside a path expression.
        let r = s
            .query("SELECT W FROM Company X WHERE X.(MngrSalary @ 'Engineering')[W]")
            .unwrap();
        assert_eq!(r.len(), 1);
        let w = *r.as_set().iter().next().unwrap();
        assert_eq!(s.db().oids().as_number(w), Some(50000.0));
    }

    #[test]
    fn update_method_raises_salaries() {
        // §5: RaiseMngrSalary.
        let mut s = Session::new(company_db());
        s.run(
            "ALTER CLASS Company ADD SIGNATURE MngrSalary : String => Numeral \
             SELECT (MngrSalary @ Y.Name) = W FROM Company X OID X \
             WHERE X.Divisions[Y].Manager.Salary[W]",
        )
        .unwrap();
        s.run(
            "ALTER CLASS Company ADD SIGNATURE RaiseMngrSalary : Numeral => Object \
             SELECT (RaiseMngrSalary @ W) = nil FROM Company X, Numeral W OID X \
             WHERE W < 20 and (UPDATE CLASS Company \
             SET X.Divisions[Y].Manager.Salary = (1 + W/100) * X.(MngrSalary @ Y.Name))",
        )
        .unwrap();
        let acme = s.db().oids().find_sym("acme").unwrap();
        let pct = s.db_mut().oids_mut().int(10);
        let v = s.invoke(acme, "RaiseMngrSalary", &[pct]).unwrap().unwrap();
        assert!(s.db().oids().is_nil(v.as_scalar().unwrap()));
        // Alice 40000 -> 44000, Carol 50000 -> 55000.
        let emp1 = s.db().oids().find_sym("emp1").unwrap();
        let sal = s.db().oids().find_sym("Salary").unwrap();
        let v = s.db().value(emp1, sal, &[]).unwrap().unwrap();
        assert_eq!(
            s.db().oids().as_number(v.as_scalar().unwrap()),
            Some(44000.0)
        );
        let emp3 = s.db().oids().find_sym("emp3").unwrap();
        let v = s.db().value(emp3, sal, &[]).unwrap().unwrap();
        let got = s.db().oids().as_number(v.as_scalar().unwrap()).unwrap();
        assert!((got - 55000.0).abs() < 1e-6, "got {got}");
        // Guard: a raise of 25% is rejected (W < 20 fails) — method
        // returns undefined.
        let pct = s.db_mut().oids_mut().int(25);
        let v = s.invoke(acme, "RaiseMngrSalary", &[pct]).unwrap();
        assert!(v.is_none());
    }

    #[test]
    fn standalone_update() {
        let mut s = Session::new(company_db());
        let out = s
            .run("UPDATE CLASS Employee SET emp2.Salary = 31000")
            .unwrap();
        assert!(matches!(out, Outcome::Updated { entries: 1 }));
        let r = s
            .query("SELECT X FROM Employee X WHERE X.Salary[31000]")
            .unwrap();
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn relational_union_minus() {
        let mut s = Session::new(company_db());
        let r = s
            .query(
                "SELECT X FROM Employee X WHERE X.Salary > 35000 \
                 UNION SELECT X FROM Employee X WHERE X.Salary < 35000",
            )
            .unwrap();
        assert_eq!(r.len(), 3);
        let r = s
            .query(
                "SELECT X FROM Employee X \
                 MINUS SELECT X FROM Employee X WHERE X.Salary > 35000",
            )
            .unwrap();
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn select_aggregate_interned() {
        let mut s = Session::new(company_db());
        let r = s
            .query("SELECT X.Name, count(X.Divisions) FROM Company X")
            .unwrap();
        assert_eq!(r.len(), 1);
        let row = r.iter().next().unwrap();
        assert_eq!(s.db().oids().as_number(row[1]), Some(2.0));
    }

    #[test]
    fn view_refresh_drops_stale() {
        let mut s = Session::new(company_db());
        s.run(
            "CREATE VIEW HighPaid AS SUBCLASS OF Object \
             SIGNATURE Name => String \
             SELECT Name = W.Name FROM Employee W OID FUNCTION OF W \
             WHERE W.Salary > 35000",
        )
        .unwrap();
        let cls = s.db().oids().find_sym("HighPaid").unwrap();
        assert_eq!(s.db().instances_of(cls).len(), 2);
        // Alice drops below the bar; refresh removes her view object.
        s.run("UPDATE CLASS Employee SET emp1.Salary = 20000")
            .unwrap();
        let n = s.refresh_view("HighPaid").unwrap();
        assert_eq!(n, 1);
        assert_eq!(s.db().instances_of(cls).len(), 1);
    }
}
