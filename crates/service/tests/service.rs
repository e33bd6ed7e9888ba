//! Functional tests of the concurrent service: deadlines on runaway
//! queries, cooperative cancellation, snapshot isolation across
//! concurrent readers and writers, and reader-gate admission control.

use datagen::{figure1_scaled, Figure1Params};
use service::{ExecResult, QueryContext, ReadResult, Service, ServiceConfig, ServiceError};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use xsql::{EvalOptions, Session, XsqlError};

fn big_session() -> Session {
    // ~500 objects; a triple cross product over Employee is tens of
    // millions of combinations — far beyond any deadline used here.
    let db = figure1_scaled(&Figure1Params::with_total_objects(500));
    // Leave only the deadline/cancel as the effective limit.
    let mut opts = EvalOptions {
        work_limit: u64::MAX,
        ..EvalOptions::default()
    };
    opts.budget.max_tuples = usize::MAX;
    opts.budget.max_binding_set = usize::MAX;
    Session::with_options(db, opts)
}

const RUNAWAY: &str = "SELECT X, Y, Z FROM Employee X, Employee Y, Employee Z \
                       WHERE X.Salary > Y.Salary AND Y.Salary > Z.Salary";

#[test]
fn runaway_query_is_cancelled_by_deadline_and_service_stays_healthy() {
    let svc = Service::start(big_session(), ServiceConfig::default());
    let mut h = svc.connect().unwrap();

    let start = Instant::now();
    let err = h
        .execute(
            RUNAWAY,
            &QueryContext::with_timeout(Duration::from_millis(50)),
        )
        .unwrap_err();
    assert!(
        matches!(err, ServiceError::Xsql(XsqlError::Cancelled { .. })),
        "expected Cancelled, got: {err}"
    );
    assert!(
        start.elapsed() < Duration::from_secs(20),
        "deadline did not bite"
    );

    // The worker is not wedged and the service is not poisoned: both
    // reads and writes still succeed on the same handle.
    assert!(svc.poisoned().is_none());
    let r = h
        .execute(
            "SELECT X FROM Company X",
            &QueryContext::with_timeout(Duration::from_secs(30)),
        )
        .unwrap();
    assert!(matches!(r, ExecResult::Read(_)));
    let r = h
        .execute(
            "CREATE CLASS AfterCancel",
            &QueryContext::with_timeout(Duration::from_secs(30)),
        )
        .unwrap();
    assert!(matches!(r, ExecResult::Write(_)));
    drop(h);
    svc.shutdown().unwrap();
}

#[test]
fn client_cancel_token_stops_a_running_read() {
    let svc = Arc::new(Service::start(big_session(), ServiceConfig::default()));
    let mut h = svc.connect().unwrap();
    let ctx = QueryContext::default();
    let cancel = ctx.cancel.clone();
    let fired = Arc::new(AtomicBool::new(false));
    let fired2 = Arc::clone(&fired);
    let killer = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(30));
        fired2.store(true, Ordering::SeqCst);
        cancel.cancel();
    });
    let err = h.execute(RUNAWAY, &ctx).unwrap_err();
    killer.join().unwrap();
    assert!(fired.load(Ordering::SeqCst));
    assert!(
        matches!(err, ServiceError::Xsql(XsqlError::Cancelled { .. })),
        "expected Cancelled, got: {err}"
    );
}

#[test]
fn deadline_also_covers_writes() {
    let svc = Service::start(big_session(), ServiceConfig::default());
    let mut h = svc.connect().unwrap();
    // An object-creating runaway is a *write* and goes through the
    // writer thread; the deadline must still cancel it cleanly.
    let err = h
        .execute(
            "SELECT Pair = X FROM Employee X, Employee Y, Employee Z \
             OID FUNCTION OF X, Y, Z",
            &QueryContext::with_timeout(Duration::from_millis(50)),
        )
        .unwrap_err();
    assert!(
        matches!(err, ServiceError::Xsql(XsqlError::Cancelled { .. })),
        "expected Cancelled, got: {err}"
    );
    assert!(svc.poisoned().is_none());
    // Cancellation rolled the unit back: no Pair class exists.
    let r = h.query("SELECT X FROM Pair X", &QueryContext::default());
    // Unknown class yields an empty relation (not an error) in this
    // engine; either way there must be no Pair objects.
    if let Ok(rel) = r {
        assert_eq!(rel.len(), 0);
    }
    drop(h);
    svc.shutdown().unwrap();
}

#[test]
fn readers_see_a_consistent_epoch_while_writers_commit() {
    let svc = Arc::new(Service::start(big_session(), ServiceConfig::default()));
    let stop = Arc::new(AtomicBool::new(false));

    // Writer: bump a fresh object's attribute in a loop.
    {
        let mut h = svc.connect().unwrap();
        h.execute("CREATE CLASS Tick", &QueryContext::default())
            .unwrap();
        h.execute(
            "ALTER CLASS Tick ADD SIGNATURE N => Numeral",
            &QueryContext::default(),
        )
        .unwrap();
        h.execute(
            "CREATE OBJECT t0 CLASS Tick SET N = 0",
            &QueryContext::default(),
        )
        .unwrap();
    }
    let writer = {
        let svc = Arc::clone(&svc);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut h = svc.connect().unwrap();
            let mut i = 0i64;
            while !stop.load(Ordering::Relaxed) {
                i += 1;
                h.execute(
                    &format!("UPDATE CLASS Tick SET t0.N = {i}"),
                    &QueryContext::default(),
                )
                .unwrap();
            }
            i
        })
    };

    // Readers: the value must be a single well-defined numeral at every
    // epoch (never absent, never two values mid-update).
    let readers: Vec<_> = (0..3)
        .map(|_| {
            let svc = Arc::clone(&svc);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut h = svc.connect().unwrap();
                let mut seen = 0u32;
                while !stop.load(Ordering::Relaxed) {
                    let rel = h
                        .query(
                            "SELECT W FROM Numeral W WHERE t0.N[W]",
                            &QueryContext::with_timeout(Duration::from_secs(30)),
                        )
                        .unwrap();
                    assert_eq!(rel.len(), 1, "t0.N must always be scalar");
                    seen += 1;
                }
                seen
            })
        })
        .collect();

    std::thread::sleep(Duration::from_millis(300));
    stop.store(true, Ordering::Relaxed);
    let writes = writer.join().unwrap();
    let reads: u32 = readers.into_iter().map(|r| r.join().unwrap()).sum();
    assert!(writes > 0 && reads > 0);

    let svc = Arc::try_unwrap(svc).unwrap_or_else(|_| panic!("all handles dropped"));
    let stats = svc.stats();
    assert_eq!(stats.sessions, 0, "no leaked sessions");
    assert_eq!(stats.active_readers, 0, "no leaked reader slots");
    svc.shutdown().unwrap();
}

#[test]
fn read_gate_sheds_when_waiters_exceed_the_bound() {
    let cfg = ServiceConfig {
        max_readers: 1,
        max_read_waiters: 0,
        ..ServiceConfig::default()
    };
    let svc = Arc::new(Service::start(big_session(), cfg));
    // Occupy the single reader slot with a long statement.
    let blocker = {
        let svc = Arc::clone(&svc);
        std::thread::spawn(move || {
            let mut h = svc.connect().unwrap();
            let err = h
                .execute(
                    RUNAWAY,
                    &QueryContext::with_timeout(Duration::from_millis(400)),
                )
                .unwrap_err();
            assert!(matches!(
                err,
                ServiceError::Xsql(XsqlError::Cancelled { .. })
            ));
        })
    };
    // Wait until the blocker actually holds the reader slot before
    // probing: on a loaded (or single-core) host the spawned thread may
    // not have run yet, and a probe that grabs the free slot first
    // would get the blocker itself shed instead of cancelled.
    let t0 = Instant::now();
    while svc.stats().active_readers == 0 {
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "blocker never took the reader slot"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    let mut shed = false;
    for _ in 0..100 {
        let mut h = svc.connect().unwrap();
        match h.execute(
            "SELECT X FROM Company X",
            &QueryContext::with_timeout(Duration::from_secs(5)),
        ) {
            Err(ServiceError::Overloaded { retry_after }) => {
                assert!(retry_after > Duration::ZERO);
                shed = true;
                break;
            }
            Ok(_) => std::thread::sleep(Duration::from_millis(5)),
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    blocker.join().unwrap();
    assert!(shed, "the gate never shed a reader");
}

/// Observability: the `STATS` statement works through a handle (it is
/// answered from the service's registry, pinned to the current epoch),
/// and `Service::stats_text` exposes the same registry with the
/// admission, latency and gauge families populated.
#[test]
fn stats_statement_and_exposition() {
    let svc = Service::start(big_session(), ServiceConfig::default());
    let mut h = svc.connect().unwrap();
    let ctx = QueryContext::with_timeout(Duration::from_secs(30));
    h.execute("SELECT X FROM Company X", &ctx).unwrap();
    h.execute("CREATE CLASS StatsProbe", &ctx).unwrap();

    let r = h.execute("STATS", &ctx).unwrap();
    let ExecResult::Read(read) = r else {
        panic!("STATS must be answered as a read");
    };
    let xsql::Outcome::Stats { report } = read.outcome else {
        panic!("expected Outcome::Stats");
    };
    for needle in [
        "svc_admitted_total{kind=\"read\"} ",
        "svc_admitted_total{kind=\"write\"} ",
        "svc_completed_total{kind=\"write\"} ",
        "svc_exec_latency_us_count{kind=\"read\"} ",
        "svc_total_latency_us_p50{kind=\"write\"} ",
        "svc_write_queue_latency_us_count ",
        "svc_sessions ",
        "svc_epoch ",
    ] {
        assert!(report.contains(needle), "missing `{needle}` in:\n{report}");
    }
    // Every line is a parseable `name[{labels}] value` sample.
    for line in report.lines() {
        let (name, value) = line.rsplit_once(' ').unwrap_or_else(|| {
            panic!("unparseable exposition line: {line}");
        });
        assert!(!name.is_empty(), "{line}");
        assert!(value.parse::<i64>().is_ok(), "non-numeric value in: {line}");
    }

    // The service-side exposition reads the same registry.
    let text = svc.stats_text();
    assert!(
        text.contains("svc_admitted_total{kind=\"read\"} "),
        "{text}"
    );
    assert!(text.contains("svc_active_readers "), "{text}");

    drop(h);
    svc.shutdown().unwrap();
}

/// The value of the exposition sample named exactly `key`.
fn sample(report: &str, key: &str) -> u64 {
    report
        .lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(' ')?.parse().ok())
        .unwrap_or_else(|| panic!("no sample `{key}` in:\n{report}"))
}

fn stmt_latency_count(h: &mut service::SessionHandle) -> u64 {
    match h.execute("STATS", &QueryContext::default()).unwrap() {
        ExecResult::Read(ReadResult {
            outcome: xsql::Outcome::Stats { report },
            ..
        }) => sample(&report, "xsql_stmt_latency_us_count"),
        other => panic!("STATS answered {other:?}"),
    }
}

/// Reads run on a reader session attached to the service's registry:
/// each one adds exactly one `xsql_stmt_latency_us` sample to STATS,
/// on a warm epoch and on the first epoch after a write alike. Each
/// read request is also parsed exactly once on its way through the
/// handle and the reader, whether it is a plain query or an EXECUTE.
#[test]
fn every_read_reaches_stats_and_is_parsed_once() {
    let svc = Service::start(big_session(), ServiceConfig::default());
    let mut h = svc.connect().unwrap();
    let ctx = QueryContext::default();
    h.execute(
        "PREPARE rich AS SELECT X FROM Employee X WHERE X.Salary > ?1",
        &ctx,
    )
    .unwrap();
    const READS: [&str; 4] = [
        "SELECT X FROM Company X",
        "EXECUTE rich (30000)",
        "SELECT X FROM Employee X WHERE X.Salary > 30000",
        "SELECT X FROM Company X",
    ];
    for round in 0..2 {
        if round == 1 {
            h.execute("CREATE CLASS NewEpoch", &ctx).unwrap();
        }
        let count = stmt_latency_count(&mut h);
        let parses = xsql::parses_on_this_thread();
        for src in READS {
            let r = h.execute(src, &ctx).unwrap();
            assert!(matches!(r, ExecResult::Read(_)), "{src}: {r:?}");
        }
        assert_eq!(
            xsql::parses_on_this_thread() - parses,
            READS.len() as u64,
            "round {round}: one parse per read request"
        );
        assert_eq!(
            stmt_latency_count(&mut h) - count,
            READS.len() as u64,
            "round {round}: one latency sample per read"
        );
    }
    assert_eq!(
        svc.registry()
            .counter_total("xsql_plan_cache_stale_executions_total"),
        0
    );
    drop(h);
    svc.shutdown().unwrap();
}

/// Rows of a read-only query, counted (figure1 has two Employees: kim1
/// at Salary 30000 and john13 at 90000).
fn count(h: &mut service::SessionHandle, src: &str) -> usize {
    h.query(src, &QueryContext::default()).unwrap().len()
}

const LOW_PAID: &str = "SELECT X FROM Employee X WHERE X.Salary < 10";

fn commit_outcomes(h: &mut service::SessionHandle, stmts: &[&str]) -> Vec<xsql::Outcome> {
    let ctx = QueryContext::default();
    for src in stmts {
        let r = h.execute(src, &ctx).unwrap();
        assert!(
            matches!(r, ExecResult::TxnStarted | ExecResult::Buffered),
            "{src}: {r:?}"
        );
    }
    match h.execute("COMMIT WORK", &ctx).unwrap() {
        ExecResult::TxnCommitted(ack) => ack.outcomes,
        r => panic!("COMMIT WORK: {r:?}"),
    }
}

#[test]
fn execute_of_a_name_prepared_before_begin_commits_in_the_transaction() {
    let svc = Service::start(
        Session::new(datagen::figure1_db()),
        ServiceConfig::default(),
    );
    let mut h = svc.connect().unwrap();
    let ctx = QueryContext::default();
    h.execute(
        "PREPARE bump AS UPDATE CLASS Employee SET kim1.Salary = ?1",
        &ctx,
    )
    .unwrap();
    let outcomes = commit_outcomes(&mut h, &["BEGIN WORK", "EXECUTE bump (5)"]);
    // One outcome per statement the client sent: the bundled PREPARE's
    // is not reported.
    assert_eq!(outcomes.len(), 1, "{outcomes:?}");
    assert!(matches!(outcomes[0], xsql::Outcome::Updated { .. }));
    assert_eq!(count(&mut h, LOW_PAID), 1);
    // Two EXECUTEs of the name in one unit bundle one PREPARE.
    let outcomes = commit_outcomes(
        &mut h,
        &["BEGIN WORK", "EXECUTE bump (6)", "EXECUTE bump (40000)"],
    );
    assert_eq!(outcomes.len(), 2, "{outcomes:?}");
    assert_eq!(count(&mut h, LOW_PAID), 0);
    assert_eq!(
        count(&mut h, "SELECT X FROM Employee X WHERE X.Salary = 40000"),
        1
    );
    drop(h);
    svc.shutdown().unwrap();
}

#[test]
fn execute_of_a_select_prepared_before_begin_answers_in_the_transaction() {
    let svc = Service::start(
        Session::new(datagen::figure1_db()),
        ServiceConfig::default(),
    );
    let mut h = svc.connect().unwrap();
    h.execute(
        "PREPARE cheap AS SELECT X FROM Employee X WHERE X.Salary < ?1",
        &QueryContext::default(),
    )
    .unwrap();
    let outcomes = commit_outcomes(&mut h, &["BEGIN WORK", "EXECUTE cheap (40000)"]);
    assert_eq!(outcomes.len(), 1, "{outcomes:?}");
    match &outcomes[0] {
        xsql::Outcome::Relation(rel) => assert_eq!(rel.len(), 1, "kim1 only"),
        o => panic!("expected a relation, got {o:?}"),
    }
    drop(h);
    svc.shutdown().unwrap();
}

#[test]
fn re_prepare_inside_the_transaction_wins_over_the_readers_body() {
    let svc = Service::start(
        Session::new(datagen::figure1_db()),
        ServiceConfig::default(),
    );
    let mut h = svc.connect().unwrap();
    h.execute(
        "PREPARE bump AS UPDATE CLASS Employee SET kim1.Salary = ?1",
        &QueryContext::default(),
    )
    .unwrap();
    let outcomes = commit_outcomes(
        &mut h,
        &[
            "BEGIN WORK",
            "PREPARE bump AS UPDATE CLASS Employee SET john13.Salary = ?1",
            "EXECUTE bump (7)",
        ],
    );
    assert_eq!(outcomes.len(), 2, "{outcomes:?}");
    // john13 was updated; kim1 kept its salary.
    assert_eq!(count(&mut h, LOW_PAID), 1);
    assert_eq!(
        count(&mut h, "SELECT X FROM Employee X WHERE X.Salary = 30000"),
        1
    );
    drop(h);
    svc.shutdown().unwrap();
}
