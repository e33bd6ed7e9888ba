//! ENOSPC graceful degradation, end to end.
//!
//! When the disk fills, the store enters READ-ONLY degraded mode:
//! writers are shed with a typed, retryable error while the statement
//! that hit the wall rolls back cleanly; readers and `STATS` keep
//! serving throughout; and the moment space frees, a probe returns the
//! store to writable — no restart, no lost acknowledgements.

use std::path::Path;
use std::time::Duration;
use storage::fault::FaultFs;
use storage::{StoreConfig, StoreHealth};
use xsql::{EvalOptions, Outcome, Session, XsqlError};

const DIR: &str = "/db";

fn open(fs: &FaultFs) -> Session {
    Session::open_dir(
        Box::new(fs.clone()),
        Path::new(DIR),
        oodb::Database::new(),
        "empty",
        EvalOptions::default(),
    )
    .expect("open durable session")
}

/// Instant probes so the free-space transition is deterministic.
fn instant_probe() -> StoreConfig {
    StoreConfig {
        probe_min_interval: Duration::ZERO,
        ..StoreConfig::default()
    }
}

fn count(s: &mut Session, class: &str) -> usize {
    s.query(&format!("SELECT X FROM {class} X"))
        .expect("reads keep serving")
        .len()
}

#[test]
fn session_degrades_to_read_only_and_recovers_when_space_frees() {
    let fs = FaultFs::new();
    let mut s = open(&fs);
    s.set_store_config(instant_probe());
    s.run("CREATE CLASS Crate").expect("ddl");
    s.run("ALTER CLASS Crate ADD SIGNATURE Num => Numeral")
        .expect("ddl");
    s.run("CREATE OBJECT kept CLASS Crate SET Num = 1")
        .expect("write before the disk fills");
    assert_eq!(s.store_health(), StoreHealth::Healthy);

    // The disk fills: the write fails with the typed error, rolls back
    // cleanly, and flips the store to degraded read-only.
    fs.set_disk_full(true);
    match s.run("CREATE OBJECT ghost1 CLASS Crate SET Num = 2") {
        Err(XsqlError::DiskFull(_)) => {}
        other => panic!("write on a full disk returned {other:?}"),
    }
    assert_eq!(s.store_health(), StoreHealth::DegradedReadOnly);
    assert_eq!(count(&mut s, "Crate"), 1, "failed write left partial state");

    // Degraded mode sheds further writers fast — after an internal
    // probe confirms the disk is still full — but reads keep serving.
    match s.run("CREATE OBJECT ghost2 CLASS Crate SET Num = 3") {
        Err(XsqlError::DiskFull(_)) => {}
        other => panic!("degraded write returned {other:?}"),
    }
    assert_eq!(count(&mut s, "Crate"), 1);

    // The health gauge is visible in the STATS exposition mid-incident.
    match s.run("STATS") {
        Ok(Outcome::Stats { report }) => {
            assert!(report.contains("store_health 1"), "{report}");
        }
        other => panic!("STATS while degraded: {other:?}"),
    }

    // Space frees: the next write probes, recovers, and commits —
    // within the same process, no restart.
    fs.set_disk_full(false);
    s.run("CREATE OBJECT landed CLASS Crate SET Num = 4")
        .expect("write after space freed");
    assert_eq!(s.store_health(), StoreHealth::Healthy);
    assert_eq!(count(&mut s, "Crate"), 2);

    // Everything acknowledged (and nothing shed) is durable.
    drop(s);
    let mut s = open(&fs);
    assert_eq!(count(&mut s, "Crate"), 2);
    assert_eq!(
        s.query("SELECT X FROM Crate X WHERE X.Num[4]")
            .unwrap()
            .len(),
        1
    );
    assert_eq!(
        s.query("SELECT X FROM Crate X WHERE X.Num[2]")
            .unwrap()
            .len(),
        0
    );
    assert_eq!(
        s.query("SELECT X FROM Crate X WHERE X.Num[3]")
            .unwrap()
            .len(),
        0
    );
}

/// `STATS` bypasses the transaction poison gate, so an operator can
/// read the health gauge mid-incident even from a wedged session.
#[test]
fn stats_serves_inside_a_poisoned_transaction() {
    let fs = FaultFs::new();
    let mut s = open(&fs);
    s.run("CREATE CLASS T").expect("ddl");
    s.run("BEGIN WORK").expect("begin");
    assert!(
        s.run("CREATE OBJECT bad CLASS Missing").is_err(),
        "poison the txn"
    );
    assert!(s.transaction_poisoned().is_some());
    match s.run("STATS") {
        Ok(Outcome::Stats { report }) => {
            assert!(report.contains("store_health 0"), "{report}");
        }
        other => panic!("STATS inside poisoned txn: {other:?}"),
    }
    s.run("ROLLBACK WORK").expect("rollback");
}

mod service_level {
    use super::*;
    use service::{ExecResult, QueryContext, Service, ServiceConfig, ServiceError};

    fn stmt(src: &str) -> xsql::ast::Stmt {
        xsql::parse(src).unwrap()
    }

    fn val(r: &ExecResult) -> i64 {
        let read = match r {
            ExecResult::Read(read) => read,
            o => panic!("expected a read, got {o:?}"),
        };
        let rel = match &read.outcome {
            Outcome::Relation(rel) => rel,
            o => panic!("read produced {o:?}"),
        };
        assert_eq!(rel.len(), 1);
        let oid = rel.iter().next().unwrap()[0];
        read.snapshot.oids().as_number(oid).unwrap() as i64
    }

    /// The full service-level state machine: healthy → degraded
    /// (writers shed with `ReadOnly`, snapshot readers keep serving at
    /// the published epoch, a shed COMMIT keeps its buffer) →
    /// recovered (freed space returns the store to writable without a
    /// restart), and every acknowledged write is durable.
    #[test]
    fn service_sheds_writers_serves_readers_and_recovers() {
        let fs = FaultFs::new();
        {
            let mut s = open(&fs);
            s.run("CREATE CLASS Counter").expect("ddl");
            s.run("ALTER CLASS Counter ADD SIGNATURE Val => Numeral")
                .expect("ddl");
            s.run("CREATE OBJECT c0 CLASS Counter SET Val = 0")
                .expect("seed object");
        }
        let mut session = open(&fs);
        session.set_store_config(instant_probe());
        let svc = Service::start(session, ServiceConfig::default());
        let mut h = svc.connect().expect("connect");
        let ctx = QueryContext::default();
        const READ: &str = "SELECT W FROM Numeral W WHERE c0.Val[W]";

        h.execute(&stmt("UPDATE CLASS Counter SET c0.Val = 1"), &ctx)
            .expect("write while healthy");

        fs.set_disk_full(true);
        match h.execute(&stmt("UPDATE CLASS Counter SET c0.Val = 2"), &ctx) {
            Err(ServiceError::ReadOnly { retry_after }) => {
                assert!(retry_after > Duration::ZERO);
            }
            other => panic!("write on a full disk returned {other:?}"),
        }

        // Snapshot-isolated readers keep serving at the published
        // epoch: the shed write is invisible, the acked one is not.
        let r = h.execute(&stmt(READ), &ctx).expect("read while degraded");
        assert_eq!(val(&r), 1);

        // A transactional COMMIT shed with `ReadOnly` rolled back
        // cleanly and keeps its buffer, so the same COMMIT can be
        // retried once space frees.
        h.execute(&stmt("BEGIN WORK"), &ctx).expect("begin");
        h.execute(&stmt("UPDATE CLASS Counter SET c0.Val = 3"), &ctx)
            .expect("buffered");
        match h.execute(&stmt("COMMIT WORK"), &ctx) {
            Err(ServiceError::ReadOnly { .. }) => {}
            other => panic!("COMMIT on a full disk returned {other:?}"),
        }
        assert!(h.in_transaction(), "shed COMMIT must keep the buffer");

        // Space frees: the buffered transaction commits on retry and a
        // plain write succeeds — same service, no restart.
        fs.set_disk_full(false);
        match h.execute(&stmt("COMMIT WORK"), &ctx) {
            Ok(ExecResult::TxnCommitted(_)) => {}
            other => panic!("retried COMMIT returned {other:?}"),
        }
        h.execute(&stmt("UPDATE CLASS Counter SET c0.Val = 4"), &ctx)
            .expect("write after space freed");
        let r = h.execute(&stmt(READ), &ctx).expect("read after recovery");
        assert_eq!(val(&r), 4);

        // The incident left its trace in telemetry, and the health
        // gauge is back to healthy.
        let registry = svc.registry();
        assert!(registry.counter_total("storage_disk_full_total") >= 1);
        assert_eq!(registry.gauge_value("store_health"), 0);

        drop(h);
        svc.shutdown().expect("clean shutdown");

        // Acked writes (and only those) are durable across reopen.
        let mut s = open(&fs);
        let rel = s.query(READ).expect("recovered read");
        assert_eq!(rel.len(), 1);
        let oid = rel.iter().next().unwrap()[0];
        assert_eq!(s.db().oids().as_number(oid).unwrap() as i64, 4);
    }
}
