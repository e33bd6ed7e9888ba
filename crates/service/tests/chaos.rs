//! Deterministic, seeded chaos harness for the concurrent service.
//!
//! Each seed drives one full service lifetime over a fault-injecting
//! filesystem: a randomized (but seed-determined) admission-control
//! configuration, concurrent reader threads with injected cancellations
//! and pre-expired deadlines, concurrent writer clients issuing
//! numbered single-statement and transactional units, a seeded
//! mid-run storage fault — a crashing fault **or** a disk-full
//! (ENOSPC) episode whose space frees mid-run — shutdown under a
//! deadlock watchdog, a simulated power-loss crash, and recovery.
//! Thread interleavings vary run to run; every *injection*
//! (cancellation tick, fault op count, crash mode, workload shape) is
//! a pure function of the seed, and the invariants asserted hold under
//! **all** interleavings:
//!
//! 1. **Plan invariance** (Theorem 6.1 at the service level): two
//!    successful evaluations of the same query at the same epoch give
//!    identical relations, and both match a single-threaded
//!    re-evaluation on that epoch's snapshot after the fact.
//! 2. **Durability**: every acknowledged write unit survives crash +
//!    recovery; units that failed before submission never appear; a
//!    transactional unit applies all-or-nothing.
//! 3. **Liveness**: shutdown completes under a watchdog timeout (no
//!    deadlock) and no session or reader slot leaks.
//! 4. **ENOSPC degradation**: while the disk is full, writers are shed
//!    with the retryable `ReadOnly` error (never poisoned), snapshot
//!    readers keep serving at the published epoch, and once space
//!    frees every retried unit commits — the store returns to
//!    writable without a restart.
//!
//! Seed count defaults to 500; override with `CHAOS_SEEDS=<n>`.

use oodb::Database;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use service::{ExecResult, QueryContext, Service, ServiceConfig, ServiceError};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};
use storage::fault::{CrashMode, FaultFs};
use storage::StoreConfig;
use xsql::{EvalOptions, Session, XsqlError};

const DIR: &str = "/db";

/// Parses one statement for a [`service::SessionHandle`], which takes
/// statements already parsed.
fn stmt(src: &str) -> xsql::ast::Stmt {
    xsql::parse(src).unwrap()
}
const PROLOGUE: &[&str] = &[
    "CREATE CLASS Counter",
    "ALTER CLASS Counter ADD SIGNATURE Val => Numeral",
    "ALTER CLASS Counter ADD SIGNATURE Aux => Numeral",
    "CREATE OBJECT c0 CLASS Counter SET Val = 0, Aux = 0",
    "CREATE OBJECT c1 CLASS Counter SET Val = 0, Aux = 0",
];
/// The read workload; index identifies the query in invariance checks.
const READS: &[&str] = &[
    "SELECT W FROM Numeral W WHERE c0.Val[W]",
    "SELECT W FROM Numeral W WHERE c1.Val[W]",
    "SELECT X FROM Counter X",
];

fn open(fs: &FaultFs) -> Result<Session, XsqlError> {
    Session::open_dir(
        Box::new(fs.clone()),
        Path::new(DIR),
        Database::new(),
        "empty",
        EvalOptions::default(),
    )
}

/// One write unit as planned (seed-determined) and as it played out.
#[derive(Debug, Clone)]
struct UnitPlan {
    /// Unit number within its stream; the unit sets `Val = j` (and
    /// `Aux = j` when transactional).
    j: i64,
    /// Run as a `BEGIN … COMMIT` handle transaction of two statements.
    txn: bool,
    /// Deterministic cancellation injected at this evaluation tick.
    cancel_at_tick: Option<u64>,
    /// Issue a CHECKPOINT right before this unit.
    checkpoint_before: bool,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum UnitResult {
    /// Acknowledged durably committed.
    Ok,
    /// Definitely not applied (cancelled or failed in the engine, unit
    /// rolled back before any WAL append).
    DefiniteErr,
    /// Fate unknown (storage fault / shutdown race): the unit may or
    /// may not have reached the durable log.
    Maybe,
}

/// Per-stream counter state used to fold unit plans into expected
/// `(Val, Aux)` pairs.
fn apply(state: (i64, i64), u: &UnitPlan) -> (i64, i64) {
    if u.txn {
        (u.j, u.j)
    } else {
        (u.j, state.1)
    }
}

struct StreamLog {
    units: Vec<(UnitPlan, UnitResult)>,
}

/// A successful service read, pinned for post-hoc verification.
struct ReadLog {
    query: usize,
    epoch: u64,
    rendered: String,
    snapshot: Arc<Database>,
}

fn render(rel: &relalg::Relation) -> String {
    format!("{rel:?}")
}

fn counter_state(s: &mut Session, obj: &str) -> (i64, i64) {
    let get = |s: &mut Session, attr: &str| -> i64 {
        let rel = s
            .query(&format!("SELECT W FROM Numeral W WHERE {obj}.{attr}[W]"))
            .expect("recovered session answers reads");
        assert_eq!(rel.len(), 1, "{obj}.{attr} must stay scalar");
        let oid = rel.iter().next().unwrap()[0];
        s.db().oids().as_number(oid).unwrap() as i64
    };
    (get(s, "Val"), get(s, "Aux"))
}

/// Submits one planned unit through `h`, retrying on load shedding and
/// read-only (disk full) degradation. Returns how the unit ended.
fn run_unit(
    h: &mut service::SessionHandle,
    stream: usize,
    u: &UnitPlan,
    saw_readonly: &AtomicBool,
) -> UnitResult {
    let ctx = QueryContext {
        cancel_at_tick: u.cancel_at_tick,
        ..QueryContext::default()
    };
    let obj = format!("c{stream}");
    let set_val = format!("UPDATE CLASS Counter SET {obj}.Val = {}", u.j);
    let set_aux = format!("UPDATE CLASS Counter SET {obj}.Aux = {}", u.j);
    if u.checkpoint_before {
        // Best-effort; a checkpoint hitting an injected fault poisons
        // the service, which the Maybe path below will observe.
        let _ = retry_shed(saw_readonly, || {
            h.execute(&stmt("CHECKPOINT"), &QueryContext::default())
        });
    }
    let result = if u.txn {
        (|| {
            h.execute(&stmt("BEGIN WORK"), &ctx)?;
            h.execute(&stmt(&set_val), &ctx)?;
            h.execute(&stmt(&set_aux), &ctx)?;
            // A `ReadOnly` shed rolls the unit back cleanly and keeps
            // the handle buffer, so retrying the COMMIT is exact.
            retry_shed(saw_readonly, || h.execute(&stmt("COMMIT WORK"), &ctx))
        })()
    } else {
        retry_shed(saw_readonly, || h.execute(&stmt(&set_val), &ctx))
    };
    match result {
        Ok(_) => UnitResult::Ok,
        Err(ServiceError::Xsql(XsqlError::Cancelled { .. })) => {
            // A cancelled transactional unit leaves the handle buffer
            // open only if BEGIN had succeeded and COMMIT failed — the
            // unit itself was rolled back either way. Clear the buffer.
            if h.in_transaction() {
                let _ = h.execute(&stmt("ROLLBACK WORK"), &QueryContext::default());
            }
            UnitResult::DefiniteErr
        }
        Err(ServiceError::Xsql(_)) => {
            if h.in_transaction() {
                let _ = h.execute(&stmt("ROLLBACK WORK"), &QueryContext::default());
            }
            UnitResult::DefiniteErr
        }
        Err(_) => {
            if h.in_transaction() {
                let _ = h.execute(&stmt("ROLLBACK WORK"), &QueryContext::default());
            }
            UnitResult::Maybe
        }
    }
}

/// Retries through both shed shapes: `Overloaded` (admission control)
/// and `ReadOnly` (disk full — the space-freer thread unfills the disk,
/// so the retry loop terminates).
fn retry_shed<F>(saw_readonly: &AtomicBool, mut f: F) -> Result<ExecResult, ServiceError>
where
    F: FnMut() -> Result<ExecResult, ServiceError>,
{
    for _ in 0..10_000 {
        match f() {
            Err(ServiceError::Overloaded { retry_after }) => {
                std::thread::sleep(retry_after.min(Duration::from_millis(1)));
            }
            Err(ServiceError::ReadOnly { retry_after }) => {
                saw_readonly.store(true, Ordering::Relaxed);
                std::thread::sleep(retry_after.min(Duration::from_millis(1)));
            }
            other => return other,
        }
    }
    panic!("service shed the same request 10000 times");
}

fn chaos_round(seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x51ED_5EED);
    let fs = FaultFs::new();

    // Deterministic base state, durable before any fault is armed.
    {
        let mut s = open(&fs).expect("fresh store");
        for stmt in PROLOGUE {
            s.run(stmt).expect("prologue");
        }
    }
    let mut session = open(&fs).expect("reopen over prologue");
    // Instant ENOSPC probes: the moment the space-freer thread unfills
    // the disk, the next retried unit recovers the store.
    session.set_store_config(StoreConfig {
        probe_min_interval: Duration::ZERO,
        ..StoreConfig::default()
    });

    let cfg = ServiceConfig {
        max_sessions: 16,
        max_queue: rng.gen_range(1..=4usize),
        max_readers: rng.gen_range(1..=3usize),
        max_read_waiters: rng.gen_range(0..=4usize),
        max_group_commit: rng.gen_range(1..=4usize),
        default_deadline: None,
        retry_after: Duration::from_micros(200),
        // Seed-determined jitter: injections stay a pure function of
        // the seed.
        retry_jitter: 0.5,
        jitter_seed: seed,
    };

    // Plan the workload up front so it is a pure function of the seed.
    let streams: Vec<Vec<UnitPlan>> = (0..2)
        .map(|_| {
            let n = rng.gen_range(3..=6i64);
            (1..=n)
                .map(|j| UnitPlan {
                    j,
                    txn: rng.gen_bool(0.4),
                    cancel_at_tick: if rng.gen_bool(0.25) {
                        Some(rng.gen_range(1..=40u64))
                    } else {
                        None
                    },
                    checkpoint_before: rng.gen_bool(0.15),
                })
                .collect()
        })
        .collect();
    // Transactional units must not carry injected cancellations here:
    // the plan-folding below needs executed units to be exactly the
    // acked ones, and a cancellation inside a txn unit is covered by
    // the DefiniteErr path of single units anyway.
    let streams: Vec<Vec<UnitPlan>> = streams
        .into_iter()
        .map(|units| {
            units
                .into_iter()
                .map(|mut u| {
                    if u.txn {
                        u.cancel_at_tick = None;
                    }
                    u
                })
                .collect()
        })
        .collect();
    let reader_plans: Vec<Vec<(usize, u8)>> = (0..2)
        .map(|_| {
            let n = rng.gen_range(4..=8usize);
            (0..n)
                .map(|_| {
                    let q = rng.gen_range(0..READS.len());
                    // 0 = plain, 1 = injected tick cancel, 2 = expired
                    // deadline, 3 = yield first, 4 = via PREPARE/EXECUTE
                    // (exercises the schema-epoch fence and rebase
                    // re-resolution across epoch changes).
                    let mode = if rng.gen_bool(0.6) {
                        0
                    } else {
                        rng.gen_range(1..=4u8)
                    };
                    (q, mode)
                })
                .collect()
        })
        .collect();
    let arm: Option<u64> = if rng.gen_bool(0.5) {
        Some(rng.gen_range(5..=120u64))
    } else {
        None
    };
    // Mutually exclusive with the crashing fault: a disk-full episode
    // after a seeded op count, unfilled mid-run by the freer thread.
    let enospc: Option<u64> = if arm.is_none() && rng.gen_bool(0.5) {
        Some(rng.gen_range(5..=120u64))
    } else {
        None
    };
    let crash_mode = match rng.gen_range(0..4u8) {
        0 => CrashMode::TornTail,
        1 => CrashMode::LostFsync,
        2 => CrashMode::BitFlip,
        _ => CrashMode::LostRename,
    };

    let svc = Arc::new(Service::start(session, cfg));
    if let Some(n) = arm {
        fs.fail_after_ops(n);
    }
    if let Some(n) = enospc {
        fs.disk_full_after_ops(n);
    }

    // The space-freer: once the seeded ENOSPC episode starts, let the
    // degraded phase be observed briefly, then free the disk so every
    // retried unit can commit. Freeing also disarms the trigger, so the
    // disk fills at most once per round.
    let saw_readonly = Arc::new(AtomicBool::new(false));
    let freer_done = Arc::new(AtomicBool::new(false));
    let freer = {
        let fs = fs.clone();
        let done = Arc::clone(&freer_done);
        std::thread::spawn(move || {
            let mut freed = false;
            while !done.load(Ordering::Relaxed) {
                if !freed && fs.is_disk_full() {
                    std::thread::sleep(Duration::from_millis(2));
                    fs.set_disk_full(false);
                    freed = true;
                }
                std::thread::sleep(Duration::from_micros(200));
            }
            freed
        })
    };

    let logs: Arc<Mutex<Vec<ReadLog>>> = Arc::new(Mutex::new(Vec::new()));

    let writer_threads: Vec<_> = streams
        .iter()
        .cloned()
        .enumerate()
        .map(|(stream, units)| {
            let svc = Arc::clone(&svc);
            let saw_readonly = Arc::clone(&saw_readonly);
            std::thread::spawn(move || {
                let mut h = retry_connect(&svc);
                let mut log = StreamLog { units: Vec::new() };
                for u in units {
                    let r = run_unit(&mut h, stream, &u, &saw_readonly);
                    let stop = r == UnitResult::Maybe;
                    log.units.push((u, r));
                    // After an indeterminate failure the service is
                    // poisoned or shutting down; stop the stream so
                    // at most one unit has unknown fate.
                    if stop {
                        break;
                    }
                }
                log
            })
        })
        .collect();

    let reader_threads: Vec<_> = reader_plans
        .into_iter()
        .map(|plan| {
            let svc = Arc::clone(&svc);
            let logs = Arc::clone(&logs);
            std::thread::spawn(move || {
                let mut h = retry_connect(&svc);
                let mut prepared: std::collections::BTreeSet<usize> =
                    std::collections::BTreeSet::new();
                for (q, mode) in plan {
                    if mode == 3 {
                        std::thread::yield_now();
                    }
                    let ctx = QueryContext {
                        cancel_at_tick: (mode == 1).then_some(2),
                        deadline: (mode == 2).then(Instant::now),
                        ..QueryContext::default()
                    };
                    // Prepared-read mode: register the query once per
                    // connection, then read through EXECUTE — results
                    // must be indistinguishable from the plain read.
                    let src = if mode == 4 {
                        if !prepared.contains(&q)
                            && h.execute(
                                &stmt(&format!("PREPARE p{q} AS {}", READS[q])),
                                &QueryContext::default(),
                            )
                            .is_ok()
                        {
                            prepared.insert(q);
                        }
                        if prepared.contains(&q) {
                            format!("EXECUTE p{q}")
                        } else {
                            READS[q].to_string()
                        }
                    } else {
                        READS[q].to_string()
                    };
                    match h.execute(&stmt(&src), &ctx) {
                        Ok(ExecResult::Read(r)) => {
                            let rel = match &r.outcome {
                                xsql::Outcome::Relation(rel) => rel,
                                o => panic!("read produced {o:?}"),
                            };
                            logs.lock().unwrap().push(ReadLog {
                                query: q,
                                epoch: r.epoch,
                                rendered: render(rel),
                                snapshot: r.snapshot,
                            });
                        }
                        Ok(o) => panic!("read produced {o:?}"),
                        // Injected cancellations, expired deadlines and
                        // load shedding are expected; anything else is
                        // a harness bug.
                        Err(ServiceError::Xsql(XsqlError::Cancelled { .. }))
                        | Err(ServiceError::Overloaded { .. })
                        | Err(ServiceError::ShuttingDown)
                        | Err(ServiceError::Poisoned(_)) => {}
                        Err(e) => panic!("unexpected read error: {e}"),
                    }
                }
            })
        })
        .collect();

    let stream_logs: Vec<StreamLog> = writer_threads
        .into_iter()
        .map(|t| t.join().expect("writer client panicked"))
        .collect();
    for t in reader_threads {
        t.join().expect("reader client panicked");
    }

    // Invariant 3a: no leaked sessions or reader slots.
    let stats = svc.stats();
    assert_eq!(stats.sessions, 0, "seed {seed}: leaked sessions");
    assert_eq!(stats.active_readers, 0, "seed {seed}: leaked reader slots");
    assert_eq!(stats.waiting_readers, 0, "seed {seed}: leaked waiters");

    // Invariant 4: telemetry consistency. Every admitted request is
    // settled exactly once, so the counters balance per kind under all
    // interleavings; and every acknowledged write unit corresponds to
    // exactly one WAL commit append (a CHECKPOINT appends nothing, a
    // cancelled/failed unit rolls back before its append).
    let registry = Arc::clone(svc.registry());
    for kind in ["read", "write"] {
        let labels = [("kind", kind)];
        let admitted = registry.counter("svc_admitted_total", &labels).get();
        let settled = registry.counter("svc_shed_total", &labels).get()
            + registry.counter("svc_completed_total", &labels).get()
            + registry.counter("svc_failed_total", &labels).get();
        assert_eq!(
            settled, admitted,
            "seed {seed}: {kind} requests admitted but never settled"
        );
    }
    // An acked transactional unit and an acked single UPDATE each
    // commit as exactly one WAL unit, so acks count appends directly.
    let acked: u64 = stream_logs
        .iter()
        .flat_map(|l| &l.units)
        .filter(|(_, r)| *r == UnitResult::Ok)
        .count() as u64;
    let wal_appends = registry.counter_total("storage_wal_appends_total");
    if arm.is_none() {
        // Exact even through a disk-full episode: a shed (`ReadOnly`)
        // attempt rolls back before its append is counted, and probe
        // or checkpoint traffic never touches the append counter.
        assert_eq!(
            wal_appends, acked,
            "seed {seed}: acked units and WAL commit appends disagree"
        );
    } else {
        // With a fault armed, a unit may have appended durably and
        // still been answered `Poisoned` (fate `Maybe`): the append
        // counter may run ahead of the acks, never behind.
        assert!(
            wal_appends >= acked,
            "seed {seed}: {acked} acked units but only {wal_appends} WAL appends"
        );
    }

    // Invariant 5: schema-epoch fencing. Definitional statements and
    // statement-failure rollbacks bump the schema epoch mid-run; a program
    // resolved under an older epoch must be re-resolved, never executed.
    // The engine counts the should-be-impossible case defensively. The
    // counter covers the reader sessions too: each handle's reader
    // records into the service registry, and its prepared programs
    // must survive neither an epoch fence nor a rebase.
    assert_eq!(
        registry.counter_total("xsql_plan_cache_stale_executions_total"),
        0,
        "seed {seed}: a stale prepared program reached execution after an epoch bump"
    );

    // Invariant 3b: shutdown completes under a watchdog (no deadlock).
    let svc = Arc::try_unwrap(svc).unwrap_or_else(|_| panic!("all clients joined"));
    let (done_tx, done_rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = done_tx.send(svc.shutdown());
    });
    let joined = done_rx
        .recv_timeout(Duration::from_secs(30))
        .unwrap_or_else(|_| panic!("seed {seed}: shutdown deadlocked"));
    drop(joined.expect("writer thread must not panic"));

    // Invariant 4 (ENOSPC): the disk-full episode shed writers with the
    // retryable `ReadOnly` error only — no unit fate went unknown, the
    // incident is on the counters, and the store did not stay degraded
    // once space freed (the first retried batch probes its way back).
    freer_done.store(true, Ordering::Relaxed);
    let freed = freer.join().expect("space-freer thread panicked");
    fs.set_disk_full(false);
    if enospc.is_some() {
        assert!(
            stream_logs
                .iter()
                .flat_map(|l| &l.units)
                .all(|(_, r)| *r != UnitResult::Maybe),
            "seed {seed}: ENOSPC must shed retryably, never poison"
        );
    }
    if saw_readonly.load(Ordering::Relaxed) {
        assert!(
            freed,
            "seed {seed}: writers saw ReadOnly but the disk never filled"
        );
        assert!(
            registry.counter_total("storage_disk_full_total") >= 1,
            "seed {seed}: disk-full episode left no telemetry trace"
        );
        assert_ne!(
            registry.gauge_value("store_health"),
            1,
            "seed {seed}: store stuck in degraded read-only after space freed"
        );
    }

    // Invariant 1: plan invariance. Same (epoch, query) → same answer,
    // and a single-threaded re-evaluation on the pinned snapshot agrees.
    let logs = Arc::try_unwrap(logs)
        .ok()
        .expect("readers joined")
        .into_inner()
        .unwrap();
    let mut by_key: BTreeMap<(u64, usize), &ReadLog> = BTreeMap::new();
    for l in &logs {
        if let Some(first) = by_key.get(&(l.epoch, l.query)) {
            assert_eq!(
                first.rendered, l.rendered,
                "seed {seed}: two reads of query {} at epoch {} disagree",
                l.query, l.epoch
            );
        } else {
            by_key.insert((l.epoch, l.query), l);
        }
    }
    for l in &logs {
        let mut reference = Session::with_options((*l.snapshot).clone(), EvalOptions::default());
        let rel = reference.query(READS[l.query]).expect("reference re-eval");
        assert_eq!(
            render(&rel),
            l.rendered,
            "seed {seed}: service read of query {} at epoch {} does not match \
             single-threaded reference evaluation",
            l.query,
            l.epoch
        );
    }

    // Crash and recover.
    fs.crash(crash_mode);
    let mut recovered = match open(&fs) {
        Ok(s) => s,
        Err(e) => panic!("seed {seed}: recovery failed after {crash_mode:?}: {e}"),
    };

    // Invariant 2: acked writes survived, unacked-definite ones did
    // not, transactional units applied all-or-nothing.
    for (stream, log) in stream_logs.iter().enumerate() {
        let got = counter_state(&mut recovered, &format!("c{stream}"));
        let mut committed = (0i64, 0i64);
        let mut maybe: Option<(i64, i64)> = None;
        for (u, r) in &log.units {
            match r {
                UnitResult::Ok => committed = apply(committed, u),
                UnitResult::DefiniteErr => {}
                UnitResult::Maybe => maybe = Some(apply(committed, u)),
            }
        }
        let mut allowed = vec![committed];
        if let Some(m) = maybe {
            allowed.push(m);
        }
        assert!(
            allowed.contains(&got),
            "seed {seed} stream {stream} ({crash_mode:?}): recovered {got:?}, \
             allowed {allowed:?}; units: {:?}",
            log.units
        );
    }
}

fn retry_connect(svc: &Service) -> service::SessionHandle {
    loop {
        match svc.connect() {
            Ok(h) => return h,
            Err(ServiceError::Overloaded { .. }) => std::thread::sleep(Duration::from_micros(200)),
            Err(e) => panic!("connect failed: {e}"),
        }
    }
}

#[test]
fn chaos_seeded_interleavings() {
    let seeds: u64 = std::env::var("CHAOS_SEEDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(500);
    for seed in 0..seeds {
        chaos_round(seed);
    }
}
