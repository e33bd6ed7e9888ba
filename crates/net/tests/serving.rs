//! Functional coverage of the TCP serving tier against a live primary:
//! handshake and auth, streamed result sets, writes and transactions,
//! mid-query CANCEL, server-side deadlines, idle-session reaping,
//! connection-limit shedding with deterministic jittered hints, and
//! graceful drain.

use net::{Backend, Client, ErrorCode, Frame, NetError, Server, ServerConfig};
use oodb::Database;
use service::{Service, ServiceConfig};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;
use xsql::{EvalOptions, Session};

/// A primary service over a fresh in-memory database (no store: these
/// tests exercise the network tier, not durability).
fn primary(cfg: ServiceConfig) -> Arc<Service> {
    let session = Session::with_options(Database::new(), EvalOptions::default());
    Arc::new(Service::start(session, cfg))
}

fn serve(svc: &Arc<Service>, cfg: ServerConfig) -> Server {
    Server::start(Backend::Primary(Arc::clone(svc)), cfg, "127.0.0.1:0").expect("bind")
}

fn tight() -> ServerConfig {
    ServerConfig {
        poll_interval: Duration::from_millis(5),
        ..ServerConfig::default()
    }
}

#[test]
fn handshake_writes_and_streamed_rows() {
    let svc = primary(ServiceConfig::default());
    let server = serve(&svc, tight());
    let addr = server.local_addr().to_string();

    let mut c = Client::connect(&addr, "").expect("connect");
    assert_eq!(c.role(), net::Role::Primary);

    let r = c.execute("CREATE CLASS Person").expect("ddl");
    assert!(r.info.contains("class Person created"), "{:?}", r.info);
    assert!(r.epoch > 0, "writes advance the epoch");

    c.execute("ALTER CLASS Person ADD SIGNATURE Age => Numeral")
        .expect("signature");
    c.execute("CREATE OBJECT mary CLASS Person SET Age = 31")
        .expect("insert mary");
    c.execute("CREATE OBJECT john CLASS Person SET Age = 44")
        .expect("insert john");

    let rows = c.execute("SELECT X FROM Person X").expect("select");
    assert_eq!(rows.columns, vec!["X".to_string()]);
    let mut cells: Vec<String> = rows.rows.iter().map(|r| r[0].clone()).collect();
    cells.sort();
    assert_eq!(cells, vec!["john".to_string(), "mary".to_string()]);
    assert!(rows.epoch >= r.epoch);
    c.goodbye();
    server.shutdown();
    drop(svc);
}

/// A read whose result holds an OID interned only while evaluating it
/// (the computed numeral `1031` exists in no published state) renders
/// over the wire, and the connection stays usable afterwards.
#[test]
fn read_interned_oids_render_and_keep_the_connection() {
    let svc = primary(ServiceConfig::default());
    let server = serve(&svc, tight());
    let addr = server.local_addr().to_string();

    let mut c = Client::connect(&addr, "").expect("connect");
    c.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
    c.execute("CREATE CLASS Person").expect("ddl");
    c.execute("ALTER CLASS Person ADD SIGNATURE Age => Numeral")
        .expect("signature");
    c.execute("CREATE OBJECT mary CLASS Person SET Age = 31")
        .expect("insert mary");
    for _ in 0..2 {
        let rows = c
            .execute("SELECT X.Age + 1000 FROM Person X")
            .expect("computed read");
        let cells: Vec<&str> = rows.rows.iter().map(|r| r[0].as_str()).collect();
        assert_eq!(cells, ["1031"]);
    }
    let rows = c.execute("SELECT X FROM Person X").expect("follow-up read");
    assert_eq!(rows.rows, vec![vec!["mary".to_string()]]);
    c.goodbye();
    server.shutdown();
    drop(svc);
}

#[test]
fn transactions_commit_atomically_over_the_wire() {
    let svc = primary(ServiceConfig::default());
    let server = serve(&svc, tight());
    let addr = server.local_addr().to_string();

    let mut c = Client::connect(&addr, "").expect("connect");
    c.execute("CREATE CLASS Acct").expect("ddl");
    c.execute("ALTER CLASS Acct ADD SIGNATURE Bal => Numeral")
        .expect("sig");
    c.execute("CREATE OBJECT a CLASS Acct SET Bal = 10")
        .expect("a");

    c.execute("BEGIN WORK").expect("begin");
    let buffered = c
        .execute("UPDATE CLASS Acct SET a.Bal = 7")
        .expect("buffer");
    assert!(buffered.info.contains("buffered"), "{:?}", buffered.info);
    let committed = c.execute("COMMIT WORK").expect("commit");
    assert!(committed.epoch > 0);

    let rows = c
        .execute("SELECT W FROM Numeral W WHERE a.Bal[W]")
        .expect("read back");
    assert_eq!(rows.rows, vec![vec!["7".to_string()]]);
    c.goodbye();
    server.shutdown();
    drop(svc);
}

#[test]
fn auth_token_is_enforced() {
    let svc = primary(ServiceConfig::default());
    let server = serve(
        &svc,
        ServerConfig {
            auth_token: Some("s3cret".into()),
            ..tight()
        },
    );
    let addr = server.local_addr().to_string();

    match Client::connect(&addr, "wrong") {
        Err(NetError::Server { code, .. }) => assert_eq!(code, ErrorCode::Auth),
        other => panic!("expected auth refusal, got {other:?}"),
    }
    let mut ok = Client::connect(&addr, "s3cret").expect("right token");
    ok.ping().expect("authenticated ping");
    ok.goodbye();
    server.shutdown();
    drop(svc);
}

#[test]
fn wrong_protocol_version_gets_a_typed_error() {
    let svc = primary(ServiceConfig::default());
    let server = serve(&svc, tight());
    let addr = server.local_addr();

    let mut raw = TcpStream::connect(addr).expect("tcp");
    raw.write_all(&net::frame::encode(&Frame::Hello {
        version: 99,
        token: String::new(),
    }))
    .expect("send bad hello");
    let mut buf = net::FrameBuf::new();
    let mut chunk = [0u8; 4096];
    let frame = loop {
        if let Some(f) = buf.next_frame().expect("well-formed response") {
            break f;
        }
        let n = raw.read(&mut chunk).expect("read");
        assert!(n > 0, "server closed without answering");
        buf.push(&chunk[..n]);
    };
    match frame {
        Frame::Error { code, .. } => assert_eq!(code, ErrorCode::Protocol),
        other => panic!("expected protocol error, got {other:?}"),
    }
    server.shutdown();
    drop(svc);
}

#[test]
fn conn_limit_sheds_with_deterministic_jittered_hints() {
    let hints_for = |seed: u64| -> Vec<Duration> {
        let svc = primary(ServiceConfig::default());
        let server = serve(
            &svc,
            ServerConfig {
                max_conns: 1,
                jitter_seed: seed,
                ..tight()
            },
        );
        let addr = server.local_addr().to_string();
        let held = Client::connect(&addr, "").expect("first conn admitted");
        let mut hints = Vec::new();
        for _ in 0..3 {
            match Client::connect(&addr, "") {
                Err(NetError::Server {
                    code, retry_after, ..
                }) => {
                    assert_eq!(code, ErrorCode::Overloaded);
                    hints.push(retry_after);
                }
                other => panic!("expected overload shed, got {other:?}"),
            }
        }
        held.goodbye();
        server.shutdown();
        drop(svc);
        hints
    };

    let a = hints_for(42);
    let b = hints_for(42);
    let c = hints_for(43);
    assert_eq!(a, b, "same seed, same hint sequence");
    assert_ne!(a, c, "different seed, different jitter");
    let base = ServerConfig::default().retry_after;
    for h in &a {
        assert!(
            *h >= base && *h <= base.mul_f64(1.5),
            "hint {h:?} outside band"
        );
    }
    assert!(
        a.windows(2).any(|w| w[0] != w[1]),
        "hints should actually jitter: {a:?}"
    );
}

#[test]
fn drain_refuses_new_connections_and_closes_existing_ones() {
    let svc = primary(ServiceConfig::default());
    let server = serve(&svc, tight());
    let addr = server.local_addr().to_string();

    let mut live = Client::connect(&addr, "").expect("pre-drain conn");
    live.execute("CREATE CLASS D").expect("pre-drain write");
    // A refusal closes its connection, so each statement frame kind
    // gets its own live connection.
    let mut preparing = Client::connect(&addr, "").expect("pre-drain conn");
    let mut executing = Client::connect(&addr, "").expect("pre-drain conn");
    executing
        .prepare("q", "SELECT X FROM D X")
        .expect("pre-drain prepare");

    server.begin_drain();

    match Client::connect(&addr, "") {
        Err(NetError::Server { code, .. }) => assert_eq!(code, ErrorCode::ShuttingDown),
        other => panic!("expected drain refusal, got {other:?}"),
    }
    match live.execute("SELECT X FROM D X") {
        Err(NetError::Server { code, .. }) => assert_eq!(code, ErrorCode::ShuttingDown),
        other => panic!("expected drain error on live conn, got {other:?}"),
    }
    match preparing.prepare("p", "SELECT X FROM D X") {
        Err(NetError::Server { code, .. }) => assert_eq!(code, ErrorCode::ShuttingDown),
        other => panic!("expected drain error on PREPARE, got {other:?}"),
    }
    match executing.execute_prepared("q", &[]) {
        Err(NetError::Server { code, .. }) => assert_eq!(code, ErrorCode::ShuttingDown),
        other => panic!("expected drain error on EXECUTE, got {other:?}"),
    }
    server.shutdown();
    drop(svc);
}

#[test]
fn idle_sessions_are_reaped_with_a_typed_frame() {
    let svc = primary(ServiceConfig::default());
    let server = serve(
        &svc,
        ServerConfig {
            idle_timeout: Duration::from_millis(60),
            ..tight()
        },
    );
    let addr = server.local_addr().to_string();

    let mut c = Client::connect(&addr, "").expect("connect");
    c.execute("CREATE CLASS I").expect("warm-up write");
    std::thread::sleep(Duration::from_millis(250));
    match c.execute("SELECT X FROM I X") {
        Err(NetError::Server { code, .. }) => assert_eq!(code, ErrorCode::IdleTimeout),
        Err(NetError::Io(_)) => {} // reap frame raced the close
        other => panic!("expected idle reap, got {other:?}"),
    }
    server.shutdown();
    drop(svc);
}

/// Builds a database where a 4-way cross product is large enough that
/// a cancel fired ~20ms in lands mid-evaluation.
fn slow_fixture(svc: &Arc<Service>, addr: &str) {
    let mut c = Client::connect(addr, "").expect("connect");
    c.execute("CREATE CLASS Item").expect("ddl");
    c.execute("ALTER CLASS Item ADD SIGNATURE V => Numeral")
        .expect("sig");
    for i in 0..40 {
        c.execute(&format!("CREATE OBJECT it{i} CLASS Item SET V = {i}"))
            .expect("insert");
    }
    c.goodbye();
    let _ = svc;
}

const SLOW_QUERY: &str = "SELECT X, Y, Z, W FROM Item X, Item Y, Item Z, Item W";

#[test]
fn cancel_frame_stops_a_running_statement() {
    let svc = primary(ServiceConfig::default());
    let server = serve(&svc, tight());
    let addr = server.local_addr().to_string();
    slow_fixture(&svc, &addr);

    let mut c = Client::connect(&addr, "").expect("connect");
    let id = c.start_execute(SLOW_QUERY, 30_000).expect("start");
    std::thread::sleep(Duration::from_millis(20));
    c.cancel(id).expect("send cancel");
    match c.finish_execute(id) {
        Err(NetError::Server { code, .. }) => assert_eq!(code, ErrorCode::Cancelled),
        Ok(r) => panic!(
            "statement outran the cancel ({} rows) — grow the fixture",
            r.rows.len()
        ),
        other => panic!("expected cancellation, got {other:?}"),
    }
    // The connection survives a cancelled statement.
    let rows = c.execute("SELECT X FROM Item X").expect("follow-up read");
    assert_eq!(rows.rows.len(), 40);
    c.goodbye();
    server.shutdown();
    drop(svc);
}

#[test]
fn server_side_deadline_cancels_a_runaway_statement() {
    let svc = primary(ServiceConfig::default());
    let server = serve(&svc, tight());
    let addr = server.local_addr().to_string();
    slow_fixture(&svc, &addr);

    let mut c = Client::connect(&addr, "").expect("connect");
    match c.execute_with(SLOW_QUERY, 10) {
        Err(NetError::Server { code, .. }) => assert_eq!(code, ErrorCode::Cancelled),
        Ok(r) => panic!(
            "statement outran a 10ms deadline ({} rows) — grow the fixture",
            r.rows.len()
        ),
        other => panic!("expected deadline cancellation, got {other:?}"),
    }
    c.goodbye();
    server.shutdown();
    drop(svc);
}

#[test]
fn ping_reports_epoch_and_zero_lag_on_the_primary() {
    let svc = primary(ServiceConfig::default());
    let server = serve(&svc, tight());
    let addr = server.local_addr().to_string();

    let mut c = Client::connect(&addr, "").expect("connect");
    let h0 = c.ping().expect("ping");
    assert_eq!(h0.lag, 0);
    assert_eq!(h0.role, net::Role::Primary);
    assert!(h0.generation >= 1, "primary reports its fencing term");
    c.execute("CREATE CLASS P").expect("write");
    let h1 = c.ping().expect("ping after write");
    assert!(h1.epoch > h0.epoch, "epoch advances past {}", h0.epoch);
    c.goodbye();
    server.shutdown();
    drop(svc);
}

#[test]
fn statement_errors_are_typed_and_do_not_kill_the_connection() {
    let svc = primary(ServiceConfig::default());
    let server = serve(&svc, tight());
    let addr = server.local_addr().to_string();

    let mut c = Client::connect(&addr, "").expect("connect");
    match c.execute("SELECT syntax garbage FROM") {
        Err(NetError::Server { code, .. }) => assert_eq!(code, ErrorCode::Stmt),
        other => panic!("expected statement error, got {other:?}"),
    }
    c.execute("CREATE CLASS Ok")
        .expect("connection still works");
    c.goodbye();
    server.shutdown();
    drop(svc);
}

/// The value of the exposition sample named exactly `key`.
fn sample(stats: &str, key: &str) -> u64 {
    stats
        .lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(' ')?.parse().ok())
        .unwrap_or_else(|| panic!("no sample `{key}` in:\n{stats}"))
}

#[test]
fn every_reply_records_its_bytes_and_encode_phase_in_stats() {
    let svc = primary(ServiceConfig::default());
    let server = serve(&svc, tight());
    let addr = server.local_addr().to_string();

    let mut c = Client::connect(&addr, "").expect("connect");
    c.execute("CREATE CLASS Person").expect("ddl");
    c.execute("CREATE OBJECT mary CLASS Person")
        .expect("insert");
    const READS: u64 = 7;
    for _ in 0..READS {
        let r = c.execute("SELECT X FROM Person X").expect("select");
        assert_eq!(r.rows, vec![vec!["mary".to_string()]]);
    }
    // STATS renders before its own reply is encoded, so it counts the
    // two writes and the reads.
    let stats = c.execute("STATS").expect("stats").info;
    assert_eq!(
        sample(&stats, "net_request_phase_us_count{phase=\"encode\"}"),
        2 + READS
    );
    assert!(sample(&stats, "net_reply_bytes_total") > 0);
    c.goodbye();
    server.shutdown();
    drop(svc);
}

/// Rendered, sorted rows of `src` on a cold session over `db`.
fn cold_rows(db: &Database, src: &str, opts: EvalOptions) -> Vec<Vec<String>> {
    let mut s = Session::with_options(db.clone(), opts);
    let rel = s.query(src).unwrap_or_else(|e| panic!("{src}: {e}"));
    let mut rows: Vec<Vec<String>> = rel
        .iter()
        .map(|t| t.iter().map(|&o| s.db().oids().render(o)).collect())
        .collect();
    rows.sort();
    rows
}

/// Bodies one prepared name is re-PREPAREd with, in turn.
const BODIES: &[&str] = &[
    "SELECT X FROM Person X WHERE X.Age > ?1",
    "SELECT X.Age FROM Person X WHERE X.Age < ?1",
    "SELECT X, Y FROM Person X, Person Y WHERE X.Age > Y.Age and Y.Age >= ?1",
];

/// One name re-PREPAREd over the wire with different text across
/// epochs, with writes (new objects, new literals) in between: every
/// EXECUTE, in the PREPARE's own epoch and after the writes moved the
/// epoch on, answers what a cold session over the published state
/// answers, and what the naive engine answers.
#[test]
fn re_prepared_name_matches_cold_and_naive_sessions_across_epochs() {
    let svc = primary(ServiceConfig::default());
    let server = serve(&svc, tight());
    let mut c = Client::connect(&server.local_addr().to_string(), "").expect("connect");
    c.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
    c.execute("CREATE CLASS Person").expect("ddl");
    c.execute("ALTER CLASS Person ADD SIGNATURE Age => Numeral")
        .expect("signature");
    c.execute("CREATE OBJECT mary CLASS Person SET Age = 31")
        .expect("insert mary");
    let naive = EvalOptions::naive();
    for round in 0..6usize {
        let body = BODIES[round % BODIES.len()];
        let r = c.prepare("q", body).expect("prepare");
        assert_eq!(r.info, "prepared `q`\n");
        for step in 0..2 {
            if step == 1 {
                c.execute(&format!(
                    "CREATE OBJECT p{round} CLASS Person SET Age = {}",
                    17 + 9 * round
                ))
                .expect("insert");
                c.execute(&format!(
                    "UPDATE CLASS Person SET mary.Age = {}",
                    29 + 5 * round
                ))
                .expect("update");
            }
            let arg = (20 + 7 * round).to_string();
            let got = c.execute_prepared("q", &[&arg]).expect("execute");
            let mut got_rows = got.rows.clone();
            got_rows.sort();
            let db = svc.epoch().db;
            assert_eq!(got.epoch, svc.epoch().seq, "no write raced the read");
            let direct = body.replace("?1", &arg);
            let want = cold_rows(&db, &direct, EvalOptions::default());
            assert_eq!(got_rows, want, "round {round} step {step}: `{direct}`");
            assert_eq!(
                cold_rows(&db, &direct, naive.clone()),
                want,
                "round {round} step {step}: naive oracle"
            );
        }
    }
    // Unknown names are the reader's error; the connection survives.
    let err = c.execute_prepared("nope", &[]).expect_err("unknown name");
    assert!(
        matches!(&err, NetError::Server { code: ErrorCode::Stmt, message, .. }
            if message.contains("unknown prepared statement")),
        "{err:?}"
    );
    assert_eq!(
        svc.registry()
            .counter_total("xsql_plan_cache_stale_executions_total"),
        0
    );
    c.goodbye();
    server.shutdown();
    drop(svc);
}
