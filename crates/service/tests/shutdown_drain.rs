//! Regression test: shutting the service down while group commits are
//! in flight must never lose an acknowledged unit.
//!
//! The writer thread batches units and acknowledges each one only
//! after the batch fsync. Shutdown (or a `Service` drop) closes the
//! queue and joins the writer; the drain epilogue must flush whatever
//! tail the last batch left behind **before** the thread exits. The
//! test arms fault injection and simulates a power loss immediately
//! after the join — [`storage::fault::CrashMode::LostFsync`] discards
//! every byte not yet fsynced — so any acked-but-unsynced state the
//! drain left behind shows up as a missing unit at recovery.

use oodb::Database;
use service::{ExecResult, QueryContext, Service, ServiceConfig, ServiceError};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;
use storage::fault::{CrashMode, FaultFs};
use xsql::{EvalOptions, Session, XsqlError};

const DIR: &str = "/db";

/// Parses one statement for a [`service::SessionHandle`], which takes
/// statements already parsed.
fn stmt(src: &str) -> xsql::ast::Stmt {
    xsql::parse(src).unwrap()
}

fn open(fs: &FaultFs) -> Result<Session, XsqlError> {
    Session::open_dir(
        Box::new(fs.clone()),
        Path::new(DIR),
        Database::new(),
        "empty",
        EvalOptions::default(),
    )
}

fn setup(fs: &FaultFs) -> Session {
    let mut s = open(fs).unwrap();
    for stmt in [
        "CREATE CLASS Counter",
        "ALTER CLASS Counter ADD SIGNATURE Val => Numeral",
        "CREATE OBJECT c0 CLASS Counter SET Val = 0",
        "CREATE OBJECT c1 CLASS Counter SET Val = 0",
        "CREATE OBJECT c2 CLASS Counter SET Val = 0",
    ] {
        s.run(stmt).unwrap();
    }
    s
}

/// Reads stream `name`'s counter value out of a recovered session.
fn recovered_val(s: &mut Session, name: &str) -> i64 {
    let out = s
        .run(&format!("SELECT W FROM Numeral W WHERE {name}.Val[W]"))
        .unwrap();
    let xsql::Outcome::Relation(rel) = out else {
        panic!("{out:?}")
    };
    let oid = rel.iter().next().unwrap()[0];
    s.db().oids().as_number(oid).unwrap() as i64
}

/// Runs one shutdown race: `streams` writer clients hammer the queue
/// while the main thread tears the service down mid-flight, then a
/// simulated power loss discards unsynced bytes and recovery checks
/// every acked unit survived.
fn run_race(seed_round: u64, drop_instead_of_shutdown: bool) {
    let fs = FaultFs::new();
    let svc = Service::start(
        setup(&fs),
        ServiceConfig {
            max_queue: 4,
            max_group_commit: 8,
            jitter_seed: seed_round,
            ..ServiceConfig::default()
        },
    );
    let streams = ["c0", "c1", "c2"];
    let stop = Arc::new(AtomicBool::new(false));
    let mut clients = Vec::new();
    for name in streams {
        let mut h = svc.connect().unwrap();
        let stop = Arc::clone(&stop);
        clients.push(std::thread::spawn(move || {
            let ctx = QueryContext::default();
            let mut last_acked = 0i64;
            let mut last_submitted = 0i64;
            for j in 1..=200i64 {
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                last_submitted = j;
                match h.execute(
                    &stmt(&format!("UPDATE CLASS Counter SET {name}.Val = {j}")),
                    &ctx,
                ) {
                    Ok(ExecResult::Write(_)) => last_acked = j,
                    Ok(other) => panic!("unexpected {other:?}"),
                    // Queue full: breathe and retry the next value.
                    Err(ServiceError::Overloaded { retry_after }) => {
                        std::thread::sleep(retry_after.min(Duration::from_millis(2)));
                    }
                    // Shutdown closed the queue under us: the unit's
                    // fate is unknown, but nothing *acked* may vanish.
                    Err(ServiceError::ShuttingDown) => break,
                    Err(e) => panic!("unexpected error: {e}"),
                }
            }
            (last_acked, last_submitted)
        }));
    }
    // Let the clients collide with the group-commit loop, then tear the
    // service down with units still queued and executing.
    std::thread::sleep(Duration::from_millis(15));
    if drop_instead_of_shutdown {
        drop(svc);
    } else {
        svc.shutdown().unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    let acked: Vec<(i64, i64)> = clients.into_iter().map(|c| c.join().unwrap()).collect();
    assert!(
        acked.iter().any(|(a, _)| *a > 0),
        "race produced no acked writes; widen the window"
    );
    // Power loss: everything the drain failed to fsync is gone.
    fs.crash(CrashMode::LostFsync);
    let mut s = open(&fs).unwrap();
    for (name, (last_acked, last_submitted)) in streams.iter().zip(acked) {
        let got = recovered_val(&mut s, name);
        assert!(
            got >= last_acked,
            "{name}: acked {last_acked} but recovered {got} — acked unit lost in drain"
        );
        assert!(
            got <= last_submitted,
            "{name}: recovered {got} beyond last submitted {last_submitted}"
        );
    }
}

#[test]
fn shutdown_mid_group_commit_loses_no_acked_unit() {
    for round in 0..4 {
        run_race(round, false);
    }
}

#[test]
fn drop_mid_group_commit_loses_no_acked_unit() {
    for round in 0..4 {
        run_race(round + 100, true);
    }
}
