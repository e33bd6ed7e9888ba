//! The `xsql-cli` command-line tool: run XSQL scripts or an interactive
//! session against a fixture or an empty database.
//!
//! ```text
//! xsql-cli [--db empty|figure1|nobel|university] [--open DIR] [--typed] \
//!          [script.xsql ...]
//! ```
//!
//! With script arguments, each file is executed in order and results are
//! printed; without any, an interactive prompt starts (statements end
//! with `;`; `\q` quits). `--typed` routes SELECTs through the Theorem
//! 6.1 range-restricted evaluator when the query is strictly well-typed.
//!
//! `--open DIR` (or the interactive `.open DIR` meta-command) attaches a
//! durable store: on first use the directory is initialized over the
//! `--db` fixture; on reopen the fixture recorded in the store is loaded
//! and crash recovery replays the checkpoint + WAL tail. While a store is
//! attached, every committed statement is WAL-logged and fsync'd, so
//! committed work survives `kill -9`; `WAL ON|OFF` and `CHECKPOINT`
//! statements control logging and snapshotting.

use std::io::{self, BufRead, Write};
use std::process::ExitCode;
use std::time::Duration;

use oodb::Database;
use relalg::render_table;
use service::{ExecResult, QueryContext, Service, ServiceConfig, ServiceError};
use storage::{RealFs, Store};
use xsql::{Outcome, Session};

struct Config {
    db: String,
    open: Option<String>,
    typed: bool,
    serve: bool,
    stats: bool,
    deadline_ms: Option<u64>,
    listen: Option<String>,
    replica_of: Option<String>,
    connect: Option<String>,
    token: Option<String>,
    promote: Option<String>,
    leader_hint: Option<String>,
    scripts: Vec<String>,
}

fn parse_args() -> Result<Config, String> {
    let mut cfg = Config {
        db: "figure1".to_string(),
        open: None,
        typed: false,
        serve: false,
        stats: false,
        deadline_ms: None,
        listen: None,
        replica_of: None,
        connect: None,
        token: None,
        promote: None,
        leader_hint: None,
        scripts: Vec::new(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--db" => {
                cfg.db = args
                    .next()
                    .ok_or_else(|| "--db requires a value".to_string())?;
            }
            "--open" => {
                cfg.open = Some(
                    args.next()
                        .ok_or_else(|| "--open requires a directory".to_string())?,
                );
            }
            "--typed" => cfg.typed = true,
            "--serve" => cfg.serve = true,
            "--stats" => cfg.stats = true,
            "--deadline-ms" => {
                let v = args
                    .next()
                    .ok_or_else(|| "--deadline-ms requires a value".to_string())?;
                cfg.deadline_ms = Some(
                    v.parse()
                        .map_err(|_| format!("--deadline-ms: not a number: `{v}`"))?,
                );
            }
            "--listen" => {
                cfg.listen = Some(
                    args.next()
                        .ok_or_else(|| "--listen requires an address".to_string())?,
                );
            }
            "--replica-of" => {
                cfg.replica_of = Some(
                    args.next()
                        .ok_or_else(|| "--replica-of requires a store directory".to_string())?,
                );
            }
            "--connect" => {
                cfg.connect = Some(
                    args.next()
                        .ok_or_else(|| "--connect requires an address".to_string())?,
                );
            }
            "--token" => {
                cfg.token = Some(
                    args.next()
                        .ok_or_else(|| "--token requires a value".to_string())?,
                );
            }
            "--promote" => {
                cfg.promote = Some(
                    args.next()
                        .ok_or_else(|| "--promote requires a replica address".to_string())?,
                );
            }
            "--leader-hint" => {
                cfg.leader_hint = Some(
                    args.next()
                        .ok_or_else(|| "--leader-hint requires an address".to_string())?,
                );
            }
            "--help" | "-h" => {
                return Err(
                    "usage: xsql-cli [--db empty|figure1|nobel|university] [--open DIR] \
                            [--typed] [--serve] [--stats] [--deadline-ms N] \
                            [--listen ADDR [--replica-of DIR] [--leader-hint ADDR]] \
                            [--connect ADDR] [--promote ADDR] [--token T] \
                            [script.xsql ...]\n\
                     --serve runs each script on its own concurrent service session \
                     (snapshot-isolated reads, serialized group-committed writes); \
                     --stats prints the telemetry exposition (statement latencies, \
                     WAL/service metrics, role/generation) after the scripts finish; \
                     --deadline-ms bounds every statement's wall-clock time; \
                     --listen serves the database over TCP (see docs/SERVING.md) and \
                     drains gracefully on SIGTERM; with --replica-of DIR it serves a \
                     WAL-shipped read replica tailing that primary store directory; \
                     --leader-hint is the primary address replicas put in NotPrimary \
                     redirects; --connect runs the scripts (or an interactive prompt) \
                     against a remote server; --promote asks the replica at ADDR to \
                     become the primary (token-gated; see docs/SERVING.md for the \
                     failover runbook); --token sets the shared auth token."
                        .to_string(),
                )
            }
            other if other.starts_with('-') => {
                return Err(format!("unknown flag `{other}`"));
            }
            path => cfg.scripts.push(path.to_string()),
        }
    }
    if cfg.deadline_ms.is_some() && !cfg.serve {
        return Err("--deadline-ms requires --serve".to_string());
    }
    if cfg.replica_of.is_some() && cfg.listen.is_none() {
        return Err("--replica-of requires --listen".to_string());
    }
    if cfg.connect.is_some() && (cfg.listen.is_some() || cfg.serve) {
        return Err("--connect excludes --listen/--serve".to_string());
    }
    if cfg.promote.is_some() && (cfg.listen.is_some() || cfg.serve || cfg.connect.is_some()) {
        return Err("--promote excludes --listen/--serve/--connect".to_string());
    }
    if cfg.leader_hint.is_some() && cfg.replica_of.is_none() {
        return Err("--leader-hint requires --replica-of".to_string());
    }
    Ok(cfg)
}

fn fixture(name: &str) -> Result<Database, String> {
    match name {
        "empty" => Ok(Database::new()),
        "figure1" => Ok(datagen::figure1_db()),
        "nobel" => Ok(datagen::nobel_db()),
        "university" => Ok(datagen::university_db()),
        other => Err(format!(
            "unknown fixture `{other}` (expected empty|figure1|nobel|university)"
        )),
    }
}

/// Opens (or initializes) a durable store at `dir`. A fresh directory is
/// seeded from `default_fixture`; an existing store loads the fixture its
/// `meta` file records — the WAL is a delta over that base, so the
/// `--db` flag is ignored on reopen.
fn open_store(dir: &str, default_fixture: &str) -> Result<Session, String> {
    let path = std::path::Path::new(dir);
    let tag = if Store::exists(&RealFs, path) {
        Store::read_base_tag(&RealFs, path).map_err(|e| e.to_string())?
    } else {
        default_fixture.to_string()
    };
    let db = fixture(&tag)?;
    let session = Session::open_dir(Box::new(RealFs), path, db, &tag, Default::default())
        .map_err(|e| format!("recovery failed: {e}"))?;
    // The recovery report goes to stderr: script output stays parseable,
    // but a salvage (dropped records, quarantined segments) is never
    // silent.
    if let Some(info) = session.recovery_info() {
        eprintln!("{}", info.report());
    }
    Ok(session)
}

/// Renders an outcome as the text the CLI prints for it (rendering OIDs
/// against `db`). Shared by the direct and `--serve` paths.
fn render_outcome(db: &Database, out: &Outcome) -> String {
    use std::fmt::Write as _;
    let mut t = String::new();
    match out {
        Outcome::Relation(rel) => write!(t, "{}", render_table(rel, db.oids())).unwrap(),
        Outcome::Created { oids } => {
            writeln!(t, "created {} object(s)", oids.len()).unwrap();
            for o in oids.iter().take(10) {
                writeln!(t, "  {}", db.render(*o)).unwrap();
            }
        }
        Outcome::ViewCreated { class, count } => {
            writeln!(t, "view {} created ({count} object(s))", db.render(*class)).unwrap();
        }
        Outcome::MethodDefined { class, method } => {
            writeln!(
                t,
                "method {} defined on {}",
                db.render(*method),
                db.render(*class)
            )
            .unwrap();
        }
        Outcome::Updated { entries } => writeln!(t, "updated {entries} entr(ies)").unwrap(),
        Outcome::ClassCreated { class } => {
            writeln!(t, "class {} created", db.render(*class)).unwrap()
        }
        Outcome::ObjectCreated { oid } => {
            writeln!(t, "object {} created", db.render(*oid)).unwrap()
        }
        Outcome::SignatureAdded { class, method } => {
            writeln!(
                t,
                "signature {} added to {}",
                db.render(*method),
                db.render(*class)
            )
            .unwrap();
        }
        Outcome::Prepared { name } => writeln!(t, "prepared `{name}`").unwrap(),
        Outcome::Explained { report } => writeln!(t, "{report}").unwrap(),
        Outcome::Stats { report } => writeln!(t, "{report}").unwrap(),
        Outcome::TransactionStarted => writeln!(t, "transaction started").unwrap(),
        Outcome::TransactionCommitted => writeln!(t, "transaction committed").unwrap(),
        Outcome::TransactionRolledBack => writeln!(t, "transaction rolled back").unwrap(),
        Outcome::WalEnabled => writeln!(t, "WAL enabled").unwrap(),
        Outcome::WalDisabled => writeln!(t, "WAL disabled").unwrap(),
        Outcome::Checkpointed => writeln!(t, "checkpoint written").unwrap(),
    }
    t
}

fn report(s: &Session, out: &Outcome) {
    print!("{}", render_outcome(s.db(), out));
}

/// Runs one script through its own service session. Returns the script's
/// rendered output and whether every statement succeeded. Shedding
/// (`Overloaded`) is retried after the suggested back-off; any other
/// error is reported and stops the script.
fn serve_script(svc: &Service, path: &str, src: &str) -> (String, bool) {
    use std::fmt::Write as _;
    let mut out = String::new();
    let stmts = match xsql::parse_script(src) {
        Ok(s) => s,
        Err(e) => return (format!("{path}: {e}\n"), false),
    };
    let mut h = loop {
        match svc.connect() {
            Ok(h) => break h,
            Err(ServiceError::Overloaded { retry_after }) => std::thread::sleep(retry_after),
            Err(e) => return (format!("{path}: {e}\n"), false),
        }
    };
    let ctx = QueryContext::default();
    for stmt in &stmts {
        loop {
            match h.execute(stmt, &ctx) {
                Ok(ExecResult::Read(r)) => {
                    write!(out, "{}", render_outcome(&r.snapshot, &r.outcome)).unwrap();
                }
                Ok(ExecResult::Write(ack)) | Ok(ExecResult::TxnCommitted(ack)) => {
                    // Render against the epoch the unit committed into.
                    let db = svc.epoch().db;
                    for o in &ack.outcomes {
                        write!(out, "{}", render_outcome(&db, o)).unwrap();
                    }
                }
                Ok(ExecResult::TxnStarted) => out.push_str("transaction started\n"),
                Ok(ExecResult::Buffered) => {}
                Ok(ExecResult::TxnRolledBack) => out.push_str("transaction rolled back\n"),
                Err(ServiceError::Overloaded { retry_after }) => {
                    std::thread::sleep(retry_after);
                    continue;
                }
                Err(e) => {
                    writeln!(out, "error: {e}").unwrap();
                    return (out, false);
                }
            }
            break;
        }
    }
    (out, true)
}

/// Set by the SIGTERM/SIGINT handler; serving loops poll it and drain.
static SHUTDOWN_REQUESTED: std::sync::atomic::AtomicBool =
    std::sync::atomic::AtomicBool::new(false);

extern "C" fn request_shutdown(_sig: i32) {
    SHUTDOWN_REQUESTED.store(true, std::sync::atomic::Ordering::SeqCst);
}

/// Installs graceful-drain handlers for SIGTERM (15) and SIGINT (2)
/// via the libc `signal` symbol directly — the handler only flips an
/// `AtomicBool`, which is async-signal-safe.
fn install_signal_handlers() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    unsafe {
        signal(15, request_shutdown as *const () as usize);
        signal(2, request_shutdown as *const () as usize);
    }
}

fn shutdown_requested() -> bool {
    SHUTDOWN_REQUESTED.load(std::sync::atomic::Ordering::SeqCst)
}

fn server_config(cfg: &Config) -> net::ServerConfig {
    net::ServerConfig {
        auth_token: cfg.token.clone(),
        leader_hint: cfg.leader_hint.clone(),
        ..net::ServerConfig::default()
    }
}

/// Blocks until SIGTERM/SIGINT, then drains: new connections are
/// refused, in-flight statements finish, and the server shuts down
/// once idle (or after a grace period).
fn serve_until_signalled(server: net::Server) {
    while !shutdown_requested() {
        std::thread::sleep(Duration::from_millis(50));
    }
    eprintln!("draining: refusing new connections");
    server.begin_drain();
    let grace = std::time::Instant::now();
    while server.conn_count() > 0 && grace.elapsed() < Duration::from_secs(5) {
        std::thread::sleep(Duration::from_millis(20));
    }
    server.shutdown();
}

/// `--listen` over a local (possibly durable) session: the primary.
fn listen_primary(cfg: &Config, session: Session, addr: &str) -> ExitCode {
    install_signal_handlers();
    let svc = std::sync::Arc::new(Service::start(
        session,
        ServiceConfig {
            default_deadline: cfg.deadline_ms.map(Duration::from_millis),
            ..ServiceConfig::default()
        },
    ));
    let server = match net::Server::start(
        net::Backend::Primary(std::sync::Arc::clone(&svc)),
        server_config(cfg),
        addr,
    ) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot listen on {addr}: {e}");
            return ExitCode::from(2);
        }
    };
    println!("listening on {} (primary)", server.local_addr());
    let _ = io::stdout().flush();
    serve_until_signalled(server);
    let Ok(svc) = std::sync::Arc::try_unwrap(svc) else {
        unreachable!("server joined every connection");
    };
    if let Err(e) = svc.shutdown() {
        eprintln!("shutdown: {e}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// `--listen --replica-of DIR`: serve snapshot reads from a replica
/// tailing the primary's store directory.
fn listen_replica(cfg: &Config, primary_dir: &str, addr: &str) -> ExitCode {
    install_signal_handlers();
    let path = std::path::Path::new(primary_dir);
    // The primary may not have initialized its store yet; wait for it.
    while !Store::exists(&RealFs, path) {
        if shutdown_requested() {
            return ExitCode::SUCCESS;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    let tag = match Store::read_base_tag(&RealFs, path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read primary store {primary_dir}: {e}");
            return ExitCode::from(2);
        }
    };
    let base = match fixture(&tag) {
        Ok(db) => db,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    let core = net::ReplicaCore::new(
        Box::new(net::DirSource::new(Box::new(RealFs), path)),
        base,
        net::ReplicaConfig {
            base_tag: tag.clone(),
            opts: Default::default(),
        },
    );
    let replica = core.spawn(Duration::from_millis(50));
    let shared = replica.shared();
    let replica_slot = std::sync::Arc::new(std::sync::Mutex::new(Some(replica)));
    let server = match net::Server::start(net::Backend::Replica(shared), server_config(cfg), addr) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot listen on {addr}: {e}");
            return ExitCode::from(2);
        }
    };
    // Promotion hook: a token-gated PROMOTE frame stops the tailer,
    // recovers the full shipped log (recovery *is* catch-up: the WAL on
    // disk is exactly what the primary shipped), bumps the fencing
    // generation, and swaps in a primary service over the promoted
    // store. The deposed primary sees the higher generation in the
    // manifest and fences itself instead of forking history.
    let hook_slot = std::sync::Arc::clone(&replica_slot);
    let promote_dir = primary_dir.to_string();
    let promote_tag = tag.clone();
    let default_deadline = cfg.deadline_ms.map(Duration::from_millis);
    server.set_promote_hook(Box::new(move || {
        let replica = hook_slot
            .lock()
            .map_err(|_| "replica slot poisoned".to_string())?
            .take()
            .ok_or_else(|| "replica already promoted".to_string())?;
        drop(replica.stop());
        let base = fixture(&promote_tag)?;
        let path = std::path::Path::new(&promote_dir);
        let mut session = Session::open_dir(
            Box::new(RealFs),
            path,
            base,
            &promote_tag,
            Default::default(),
        )
        .map_err(|e| format!("promotion recovery failed: {e}"))?;
        let generation = session
            .promote_store()
            .map_err(|e| format!("generation bump failed: {e}"))?;
        eprintln!("promoted: serving as primary at generation {generation}");
        Ok(std::sync::Arc::new(Service::start(
            session,
            ServiceConfig {
                default_deadline,
                ..ServiceConfig::default()
            },
        )))
    }));
    println!(
        "listening on {} (replica of {primary_dir})",
        server.local_addr()
    );
    let _ = io::stdout().flush();
    serve_until_signalled(server);
    if let Some(replica) = replica_slot.lock().ok().and_then(|mut slot| slot.take()) {
        let core = replica.stop();
        if let Some(err) = core.shared().last_error() {
            eprintln!("last sync error: {err}");
        }
    }
    ExitCode::SUCCESS
}

fn print_response(r: &net::Response) {
    if !r.columns.is_empty() {
        println!("{}", r.columns.join("\t"));
        for row in &r.rows {
            println!("{}", row.join("\t"));
        }
    }
    if !r.info.is_empty() {
        print!("{}", r.info);
    }
}

/// Executes one statement over the wire, retrying typed retryable
/// sheds after the server's suggested back-off. A `NotPrimary`
/// redirect is permanent for a single-connection client — report the
/// leader hint so the operator can reconnect there instead of
/// spinning.
fn remote_statement(c: &mut net::Client, stmt: &str) -> Result<net::Response, String> {
    for _ in 0..10_000 {
        match c.execute(stmt) {
            Ok(r) => return Ok(r),
            Err(net::NetError::NotPrimary { leader_hint }) => {
                return Err(if leader_hint.is_empty() {
                    "this node is not the primary (no leader hint; \
                     find the primary and --connect there)"
                        .to_string()
                } else {
                    format!("this node is not the primary; retry against --connect {leader_hint}")
                });
            }
            Err(net::NetError::Server {
                code, retry_after, ..
            }) if code.retryable() => {
                std::thread::sleep(retry_after.max(Duration::from_millis(1)));
            }
            Err(e) => return Err(e.to_string()),
        }
    }
    Err("server shed the statement 10000 times".to_string())
}

/// `--connect`: run scripts (or an interactive prompt) remotely.
fn client_mode(cfg: &Config, addr: &str) -> ExitCode {
    let token = cfg.token.clone().unwrap_or_default();
    let mut client = match net::Client::connect(addr, &token) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("cannot connect to {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if !cfg.scripts.is_empty() {
        for path in &cfg.scripts {
            let src = match std::fs::read_to_string(path) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("cannot read {path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let stmts = match xsql::parse_script(&src) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("{path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            for stmt in &stmts {
                match remote_statement(&mut client, &xsql::unparse_stmt(stmt)) {
                    Ok(r) => print_response(&r),
                    Err(e) => {
                        eprintln!("{path}: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
        }
        if cfg.stats {
            match client.ping() {
                Ok(h) => println!(
                    "role={} generation={} epoch={} lag={}",
                    h.role, h.generation, h.epoch, h.lag
                ),
                Err(e) => eprintln!("health probe failed: {e}"),
            }
        }
        client.goodbye();
        return ExitCode::SUCCESS;
    }
    // Interactive prompt over the wire.
    println!(
        "xsql — connected to {addr} ({:?}, epoch {}). Statements end with `;`; \\q quits.",
        client.role(),
        client.epoch()
    );
    let stdin = io::stdin();
    let mut buf = String::new();
    print!("xsql> ");
    let _ = io::stdout().flush();
    for line in stdin.lock().lines() {
        let Ok(line) = line else { break };
        if line.trim() == "\\q" || line.trim() == "\\quit" {
            break;
        }
        buf.push_str(&line);
        buf.push('\n');
        while let Some(pos) = buf.find(';') {
            let stmt: String = buf.drain(..=pos).collect();
            let stmt = stmt.trim_end_matches(';').trim().to_string();
            if !stmt.is_empty() {
                match remote_statement(&mut client, &stmt) {
                    Ok(r) => print_response(&r),
                    Err(e) => eprintln!("error: {e}"),
                }
            }
        }
        print!("xsql> ");
        let _ = io::stdout().flush();
    }
    client.goodbye();
    ExitCode::SUCCESS
}

fn run_statement(s: &mut Session, stmt: &str, typed: bool) {
    let trimmed = stmt.trim();
    if trimmed.is_empty() {
        return;
    }
    // --typed: try the Theorem 6.1 evaluator for plain SELECTs.
    if typed && trimmed.to_ascii_lowercase().starts_with("select") {
        match s.query_typed(trimmed) {
            Ok(rel) => {
                print!("{}", render_table(&rel, s.db().oids()));
                return;
            }
            Err(_) => { /* fall through to the general path */ }
        }
    }
    match s.run(trimmed) {
        Ok(out) => report(s, &out),
        Err(e) => eprintln!("error: {e}"),
    }
}

fn main() -> ExitCode {
    let cfg = match parse_args() {
        Ok(c) => c,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    if let Some(addr) = cfg.promote.clone() {
        // Admin mode: ask the replica at `addr` to become the primary.
        let token = cfg.token.clone().unwrap_or_default();
        let mut client = match net::Client::connect(&addr, &token) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("cannot connect to {addr}: {e}");
                return ExitCode::FAILURE;
            }
        };
        match client.promote() {
            Ok(generation) => {
                println!("promoted: {addr} is primary at generation {generation}");
                client.goodbye();
                return ExitCode::SUCCESS;
            }
            Err(e) => {
                eprintln!("promotion failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if let Some(addr) = cfg.connect.clone() {
        return client_mode(&cfg, &addr);
    }
    if let (Some(addr), Some(dir)) = (cfg.listen.clone(), cfg.replica_of.clone()) {
        return listen_replica(&cfg, &dir, &addr);
    }
    let mut session = if let Some(dir) = &cfg.open {
        match open_store(dir, &cfg.db) {
            Ok(s) => s,
            Err(msg) => {
                eprintln!("{msg}");
                return ExitCode::from(2);
            }
        }
    } else {
        match fixture(&cfg.db) {
            Ok(db) => Session::new(db),
            Err(msg) => {
                eprintln!("{msg}");
                return ExitCode::from(2);
            }
        }
    };
    if let Some(addr) = cfg.listen.clone() {
        return listen_primary(&cfg, session, &addr);
    }

    if cfg.serve {
        if cfg.scripts.is_empty() {
            eprintln!("--serve requires at least one script argument");
            return ExitCode::from(2);
        }
        let mut sources = Vec::new();
        for path in &cfg.scripts {
            match std::fs::read_to_string(path) {
                Ok(s) => sources.push((path.clone(), s)),
                Err(e) => {
                    eprintln!("cannot read {path}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        let svc = std::sync::Arc::new(Service::start(
            session,
            ServiceConfig {
                default_deadline: cfg.deadline_ms.map(Duration::from_millis),
                ..ServiceConfig::default()
            },
        ));
        let workers: Vec<_> = sources
            .into_iter()
            .map(|(path, src)| {
                let svc = std::sync::Arc::clone(&svc);
                std::thread::spawn(move || serve_script(&svc, &path, &src))
            })
            .collect();
        let mut failed = false;
        for (i, w) in workers.into_iter().enumerate() {
            let (text, ok) = w
                .join()
                .unwrap_or_else(|_| ("error: worker thread panicked\n".into(), false));
            failed |= !ok;
            for line in text.lines() {
                println!("[s{}] {line}", i + 1);
            }
        }
        let Ok(svc) = std::sync::Arc::try_unwrap(svc) else {
            unreachable!("all worker threads joined");
        };
        if cfg.stats {
            print!("{}", svc.stats_text());
        }
        if let Err(e) = svc.shutdown() {
            eprintln!("shutdown: {e}");
            return ExitCode::FAILURE;
        }
        return if failed {
            ExitCode::FAILURE
        } else {
            ExitCode::SUCCESS
        };
    }

    if !cfg.scripts.is_empty() {
        for path in &cfg.scripts {
            let src = match std::fs::read_to_string(path) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("cannot read {path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            match session.run_script(&src) {
                Ok(outs) => {
                    for out in &outs {
                        report(&session, out);
                    }
                }
                Err(e) => {
                    eprintln!("{path}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        if cfg.stats {
            print!("{}", session.stats_report());
        }
        return ExitCode::SUCCESS;
    }

    // Interactive mode.
    println!(
        "xsql — {} database loaded ({} individuals){}. Statements end with `;`; \\q quits.",
        cfg.db,
        session.db().individual_count(),
        if session.has_store() {
            ", durable store attached"
        } else {
            ""
        }
    );
    let stdin = io::stdin();
    let mut buf = String::new();
    print!("xsql> ");
    let _ = io::stdout().flush();
    for line in stdin.lock().lines() {
        let Ok(line) = line else { break };
        if line.trim() == "\\q" || line.trim() == "\\quit" {
            break;
        }
        if let Some(dir) = line.trim().strip_prefix(".open ") {
            // Meta-command: attach (or create) a durable store and swap
            // the session to the recovered database.
            match open_store(dir.trim(), &cfg.db) {
                Ok(s) => {
                    session = s;
                    println!(
                        "opened store ({} individuals)",
                        session.db().individual_count()
                    );
                }
                Err(msg) => eprintln!("error: {msg}"),
            }
            print!("xsql> ");
            let _ = io::stdout().flush();
            continue;
        }
        buf.push_str(&line);
        buf.push('\n');
        if buf.trim_end().ends_with(';') {
            let stmt = buf.trim().trim_end_matches(';').to_string();
            buf.clear();
            run_statement(&mut session, &stmt, cfg.typed);
        } else if !buf.trim().is_empty() {
            print!("  ... ");
            let _ = io::stdout().flush();
            continue;
        }
        print!("xsql> ");
        let _ = io::stdout().flush();
    }
    if cfg.stats {
        print!("{}", session.stats_report());
    }
    ExitCode::SUCCESS
}
