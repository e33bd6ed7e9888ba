//! E10 — throughput and latency of the concurrent query service.
//!
//! Two workloads over a scaled Figure 1 database:
//!
//! * `readers_only` — N concurrent sessions (1/2/4/8) issuing the same
//!   selective join query for a fixed window; snapshot-isolated reads
//!   share one published epoch, so throughput should scale with the
//!   reader pool until `max_readers` gates it.
//! * `mixed` — 4 readers plus 1 writer committing single-statement
//!   updates through the group-commit path of a real durable store
//!   (WAL + fsync); reports read throughput alongside write commit
//!   rate and latency, i.e. what snapshot isolation costs readers when
//!   epochs are moving.
//!
//! E13 adds the client-over-TCP grid: the same two workloads issued
//! through `crates/net` (frame encode/decode + CRC + socket round
//! trip + row streaming on every statement), so the delta against the
//! in-process rows is the measured cost of the wire protocol.
//!
//! E16 adds the prepared grids: each reader PREPAREs the join once and
//! then loops `EXECUTE` (in-process via the session handle, over TCP
//! via the dedicated Prepare/ExecutePrepared frames), so the delta
//! against the plain-text rows is what re-parsing buys once the plan
//! cache is warm. The run asserts the readers=2 regression guard
//! (throughput at 2 readers must stay within 25% of 1 reader — the
//! PR 9 dip this PR fixes) and records the speedup of the warm
//! prepared read over the PR 9 plain-text baseline of 845/s.
//!
//! Results go to `BENCH_service.json` at the repo root (hand-rendered
//! JSON; the offline criterion shim has no reporting). Wall-clock
//! timing — the quantities of interest are thread-level throughputs,
//! not nanosecond kernels.

use datagen::{figure1_scaled, Figure1Params};
use net::{Backend, Client, NetError, Server, ServerConfig};
use oodb::Database;
use service::{QueryContext, Service, ServiceConfig};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use storage::RealFs;
use xsql::{parse, Session};

/// Measurement window per configuration.
const WINDOW: Duration = Duration::from_millis(400);

const READ_QUERY: &str = "SELECT X, Y FROM Employee X, Employee Y \
                          WHERE X.Salary > Y.Salary AND X.Age < Y.Age";

fn scaled_db() -> Database {
    figure1_scaled(&Figure1Params::with_total_objects(200))
}

struct ReadStats {
    reads: u64,
    mean_us: u128,
    p95_us: u128,
}

/// Spawns `n` reader sessions hammering `READ_QUERY` until `stop`;
/// with `prepared`, each reader PREPAREs the query once and loops
/// `EXECUTE` instead of the full text. Returns pooled count and
/// latency percentiles (µs).
fn run_readers(svc: &Arc<Service>, n: usize, prepared: bool, stop: &Arc<AtomicBool>) -> ReadStats {
    let handles: Vec<_> = (0..n)
        .map(|_| {
            let svc = Arc::clone(svc);
            let stop = Arc::clone(stop);
            std::thread::spawn(move || {
                let mut h = svc.connect().expect("connect reader");
                let ctx = QueryContext::default();
                let src = if prepared {
                    h.execute(
                        &parse(&format!("PREPARE bench_read AS {READ_QUERY}")).unwrap(),
                        &ctx,
                    )
                    .expect("prepare");
                    "EXECUTE bench_read"
                } else {
                    READ_QUERY
                };
                let mut lat = Vec::new();
                while !stop.load(Ordering::Relaxed) {
                    let t = Instant::now();
                    // Parsed inside the timed loop: a request pays for its parse.
                    h.query(&parse(src).unwrap(), &ctx).expect("read");
                    lat.push(t.elapsed().as_micros());
                }
                lat
            })
        })
        .collect();
    let mut lat: Vec<u128> = handles
        .into_iter()
        .flat_map(|h| h.join().expect("reader thread"))
        .collect();
    lat.sort_unstable();
    let reads = lat.len() as u64;
    ReadStats {
        reads,
        mean_us: lat.iter().sum::<u128>() / lat.len().max(1) as u128,
        p95_us: lat[lat.len() * 95 / 100],
    }
}

fn readers_only(n: usize, prepared: bool) -> ReadStats {
    let svc = Arc::new(Service::start(
        Session::new(scaled_db()),
        ServiceConfig::default(),
    ));
    let stop = Arc::new(AtomicBool::new(false));
    let timer = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            std::thread::sleep(WINDOW);
            stop.store(true, Ordering::Relaxed);
        })
    };
    let stats = run_readers(&svc, n, prepared, &stop);
    timer.join().unwrap();
    stats
}

struct MixedStats {
    read: ReadStats,
    commits: u64,
    commit_mean_us: u128,
    commit_p95_us: u128,
}

/// 4 readers + 1 writer over a *durable* store: every commit unit is
/// WAL-appended and fsync'd by the service's group-commit loop.
fn mixed() -> MixedStats {
    let dir = std::env::temp_dir().join(format!("xsql_bench_service_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut session = Session::open_dir(
        Box::new(RealFs),
        &dir,
        scaled_db(),
        "figure1",
        Default::default(),
    )
    .expect("create store");
    session.run("CREATE CLASS Tick").unwrap();
    session
        .run("ALTER CLASS Tick ADD SIGNATURE N => Numeral")
        .unwrap();
    session
        .run("CREATE OBJECT t0 CLASS Tick SET N = 0")
        .unwrap();

    let svc = Arc::new(Service::start(session, ServiceConfig::default()));
    let stop = Arc::new(AtomicBool::new(false));
    let writer = {
        let svc = Arc::clone(&svc);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut h = svc.connect().expect("connect writer");
            let mut lat = Vec::new();
            let mut i = 0i64;
            while !stop.load(Ordering::Relaxed) {
                i += 1;
                let t = Instant::now();
                h.execute(
                    &parse(&format!("UPDATE CLASS Tick SET t0.N = {i}")).unwrap(),
                    &QueryContext::default(),
                )
                .expect("commit");
                lat.push(t.elapsed().as_micros());
            }
            lat
        })
    };
    let timer = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            std::thread::sleep(WINDOW);
            stop.store(true, Ordering::Relaxed);
        })
    };
    let read = run_readers(&svc, 4, false, &stop);
    let mut wlat = writer.join().expect("writer thread");
    timer.join().unwrap();
    wlat.sort_unstable();
    let commits = wlat.len() as u64;
    let stats = MixedStats {
        read,
        commits,
        commit_mean_us: wlat.iter().sum::<u128>() / wlat.len().max(1) as u128,
        commit_p95_us: wlat[wlat.len() * 95 / 100],
    };
    drop(svc);
    let _ = std::fs::remove_dir_all(&dir);
    stats
}

/// One TCP statement with retry on typed retryable sheds; returns the
/// end-to-end latency of the *successful* attempt.
fn tcp_statement(c: &mut Client, stmt: &str) -> u128 {
    loop {
        let t = Instant::now();
        match c.execute(stmt) {
            Ok(_) => return t.elapsed().as_micros(),
            Err(NetError::Server {
                code, retry_after, ..
            }) if code.retryable() => {
                std::thread::sleep(retry_after.max(Duration::from_micros(50)))
            }
            Err(e) => panic!("TCP statement `{stmt}` failed: {e}"),
        }
    }
}

/// One warm `ExecutePrepared` round trip with retry on typed
/// retryable sheds.
fn tcp_execute_prepared(c: &mut Client, name: &str) -> u128 {
    loop {
        let t = Instant::now();
        match c.execute_prepared(name, &[]) {
            Ok(_) => return t.elapsed().as_micros(),
            Err(NetError::Server {
                code, retry_after, ..
            }) if code.retryable() => {
                std::thread::sleep(retry_after.max(Duration::from_micros(50)))
            }
            Err(e) => panic!("TCP EXECUTE {name} failed: {e}"),
        }
    }
}

/// Spawns `n` TCP clients hammering `READ_QUERY` until `stop`; with
/// `prepared`, each client sends one Prepare frame and then loops
/// ExecutePrepared frames.
fn run_tcp_readers(addr: &str, n: usize, prepared: bool, stop: &Arc<AtomicBool>) -> ReadStats {
    let handles: Vec<_> = (0..n)
        .map(|_| {
            let addr = addr.to_string();
            let stop = Arc::clone(stop);
            std::thread::spawn(move || {
                let mut c = Client::connect(&addr, "").expect("connect TCP reader");
                if prepared {
                    c.prepare("bench_read", READ_QUERY).expect("prepare");
                }
                let mut lat = Vec::new();
                while !stop.load(Ordering::Relaxed) {
                    lat.push(if prepared {
                        tcp_execute_prepared(&mut c, "bench_read")
                    } else {
                        tcp_statement(&mut c, READ_QUERY)
                    });
                }
                c.goodbye();
                lat
            })
        })
        .collect();
    let mut lat: Vec<u128> = handles
        .into_iter()
        .flat_map(|h| h.join().expect("TCP reader thread"))
        .collect();
    lat.sort_unstable();
    let reads = lat.len() as u64;
    ReadStats {
        reads,
        mean_us: lat.iter().sum::<u128>() / lat.len().max(1) as u128,
        p95_us: lat[lat.len() * 95 / 100],
    }
}

fn tcp_readers_only(n: usize, prepared: bool) -> ReadStats {
    let svc = Arc::new(Service::start(
        Session::new(scaled_db()),
        ServiceConfig::default(),
    ));
    let server = Server::start(
        Backend::Primary(Arc::clone(&svc)),
        ServerConfig::default(),
        "127.0.0.1:0",
    )
    .expect("listen");
    let addr = server.local_addr().to_string();
    let stop = Arc::new(AtomicBool::new(false));
    let timer = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            std::thread::sleep(WINDOW);
            stop.store(true, Ordering::Relaxed);
        })
    };
    let stats = run_tcp_readers(&addr, n, prepared, &stop);
    timer.join().unwrap();
    server.shutdown();
    drop(svc);
    stats
}

/// 4 TCP readers + 1 TCP writer over a *durable* store: every commit
/// crosses the wire, the group-commit path and an fsync.
fn tcp_mixed() -> MixedStats {
    let dir = std::env::temp_dir().join(format!("xsql_bench_net_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut session = Session::open_dir(
        Box::new(RealFs),
        &dir,
        scaled_db(),
        "figure1",
        Default::default(),
    )
    .expect("create store");
    session.run("CREATE CLASS Tick").unwrap();
    session
        .run("ALTER CLASS Tick ADD SIGNATURE N => Numeral")
        .unwrap();
    session
        .run("CREATE OBJECT t0 CLASS Tick SET N = 0")
        .unwrap();

    let svc = Arc::new(Service::start(session, ServiceConfig::default()));
    let server = Server::start(
        Backend::Primary(Arc::clone(&svc)),
        ServerConfig::default(),
        "127.0.0.1:0",
    )
    .expect("listen");
    let addr = server.local_addr().to_string();
    let stop = Arc::new(AtomicBool::new(false));
    let writer = {
        let addr = addr.clone();
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut c = Client::connect(&addr, "").expect("connect TCP writer");
            let mut lat = Vec::new();
            let mut i = 0i64;
            while !stop.load(Ordering::Relaxed) {
                i += 1;
                lat.push(tcp_statement(
                    &mut c,
                    &format!("UPDATE CLASS Tick SET t0.N = {i}"),
                ));
            }
            c.goodbye();
            lat
        })
    };
    let timer = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            std::thread::sleep(WINDOW);
            stop.store(true, Ordering::Relaxed);
        })
    };
    let read = run_tcp_readers(&addr, 4, false, &stop);
    let mut wlat = writer.join().expect("TCP writer thread");
    timer.join().unwrap();
    wlat.sort_unstable();
    let commits = wlat.len() as u64;
    let stats = MixedStats {
        read,
        commits,
        commit_mean_us: wlat.iter().sum::<u128>() / wlat.len().max(1) as u128,
        commit_p95_us: wlat[wlat.len() * 95 / 100],
    };
    server.shutdown();
    drop(svc);
    let _ = std::fs::remove_dir_all(&dir);
    stats
}

fn main() {
    let secs = WINDOW.as_secs_f64();
    let mut json = String::from("{\n  \"experiment\": \"E10_service_throughput\",\n");
    let _ = writeln!(json, "  \"window_ms\": {},", WINDOW.as_millis());
    let _ = writeln!(
        json,
        "  \"read_query\": \"2-var Employee join over 200-object figure1\","
    );
    let ns = [1usize, 2, 4, 8];
    let mut plain_qps: Vec<f64> = Vec::new();
    json.push_str("  \"readers_only\": [\n");
    for (i, &n) in ns.iter().enumerate() {
        let s = readers_only(n, false);
        let qps = s.reads as f64 / secs;
        plain_qps.push(qps);
        println!(
            "readers_only n={n}: {} reads ({qps:.0}/s), mean {} µs, p95 {} µs",
            s.reads, s.mean_us, s.p95_us
        );
        let _ = write!(
            json,
            "    {{\"readers\": {n}, \"reads\": {}, \"reads_per_sec\": {qps:.1}, \
             \"mean_us\": {}, \"p95_us\": {}}}",
            s.reads, s.mean_us, s.p95_us
        );
        json.push_str(if i + 1 < ns.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n");

    // The readers=2 regression guard: PR 9 measured 845/665/870 r/s at
    // 1/2/4 readers — the dip came from an unconditional condvar wake
    // plus an epoch-cell lock round trip on every warm read. Both are
    // gone; hold the line.
    assert!(
        plain_qps[1] >= 0.75 * plain_qps[0],
        "readers=2 throughput regressed: {:.0}/s vs {:.0}/s at 1 reader",
        plain_qps[1],
        plain_qps[0]
    );

    // E16 — the same readers with one PREPARE up front and warm
    // EXECUTE in the loop (the compiled plan is reused; only bind +
    // dispatch remain per read).
    let mut prepared_qps: Vec<f64> = Vec::new();
    json.push_str("  \"readers_only_prepared\": [\n");
    for (i, &n) in ns.iter().enumerate() {
        let s = readers_only(n, true);
        let qps = s.reads as f64 / secs;
        prepared_qps.push(qps);
        println!(
            "readers_only_prepared n={n}: {} reads ({qps:.0}/s), mean {} µs, p95 {} µs",
            s.reads, s.mean_us, s.p95_us
        );
        let _ = write!(
            json,
            "    {{\"readers\": {n}, \"reads\": {}, \"reads_per_sec\": {qps:.1}, \
             \"mean_us\": {}, \"p95_us\": {}}}",
            s.reads, s.mean_us, s.p95_us
        );
        json.push_str(if i + 1 < ns.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n");
    let pr9_baseline = 845.0;
    let speedup = prepared_qps[0] / pr9_baseline;
    println!("prepared n=1 vs PR 9 plain-text baseline ({pr9_baseline}/s): {speedup:.2}x");
    let _ = writeln!(
        json,
        "  \"pr9_readers_only_1_per_sec\": {pr9_baseline},\n  \
         \"prepared_speedup_vs_pr9\": {speedup:.2},"
    );

    let m = mixed();
    let rqps = m.read.reads as f64 / secs;
    let cps = m.commits as f64 / secs;
    println!(
        "mixed 4r+1w: {} reads ({rqps:.0}/s) mean {} µs p95 {} µs; \
         {} commits ({cps:.0}/s) mean {} µs p95 {} µs",
        m.read.reads, m.read.mean_us, m.read.p95_us, m.commits, m.commit_mean_us, m.commit_p95_us
    );
    let _ = writeln!(
        json,
        "  \"mixed_4r_1w_durable\": {{\"reads\": {}, \"reads_per_sec\": {rqps:.1}, \
         \"read_mean_us\": {}, \"read_p95_us\": {}, \"commits\": {}, \
         \"commits_per_sec\": {cps:.1}, \"commit_mean_us\": {}, \"commit_p95_us\": {}}},",
        m.read.reads, m.read.mean_us, m.read.p95_us, m.commits, m.commit_mean_us, m.commit_p95_us
    );

    // E13 — the same grid over TCP through crates/net.
    json.push_str("  \"tcp_readers_only\": [\n");
    for (i, &n) in ns.iter().enumerate() {
        let s = tcp_readers_only(n, false);
        let qps = s.reads as f64 / secs;
        println!(
            "tcp_readers_only n={n}: {} reads ({qps:.0}/s), mean {} µs, p95 {} µs",
            s.reads, s.mean_us, s.p95_us
        );
        let _ = write!(
            json,
            "    {{\"clients\": {n}, \"reads\": {}, \"reads_per_sec\": {qps:.1}, \
             \"mean_us\": {}, \"p95_us\": {}}}",
            s.reads, s.mean_us, s.p95_us
        );
        json.push_str(if i + 1 < ns.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n");

    // E16 over the wire: Prepare once, ExecutePrepared in the loop.
    json.push_str("  \"tcp_readers_only_prepared\": [\n");
    for (i, &n) in ns.iter().enumerate() {
        let s = tcp_readers_only(n, true);
        let qps = s.reads as f64 / secs;
        println!(
            "tcp_readers_only_prepared n={n}: {} reads ({qps:.0}/s), mean {} µs, p95 {} µs",
            s.reads, s.mean_us, s.p95_us
        );
        let _ = write!(
            json,
            "    {{\"clients\": {n}, \"reads\": {}, \"reads_per_sec\": {qps:.1}, \
             \"mean_us\": {}, \"p95_us\": {}}}",
            s.reads, s.mean_us, s.p95_us
        );
        json.push_str(if i + 1 < ns.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n");

    let m = tcp_mixed();
    let rqps = m.read.reads as f64 / secs;
    let cps = m.commits as f64 / secs;
    println!(
        "tcp_mixed 4r+1w: {} reads ({rqps:.0}/s) mean {} µs p95 {} µs; \
         {} commits ({cps:.0}/s) mean {} µs p95 {} µs",
        m.read.reads, m.read.mean_us, m.read.p95_us, m.commits, m.commit_mean_us, m.commit_p95_us
    );
    let _ = writeln!(
        json,
        "  \"tcp_mixed_4r_1w_durable\": {{\"reads\": {}, \"reads_per_sec\": {rqps:.1}, \
         \"read_mean_us\": {}, \"read_p95_us\": {}, \"commits\": {}, \
         \"commits_per_sec\": {cps:.1}, \"commit_mean_us\": {}, \"commit_p95_us\": {}}}",
        m.read.reads, m.read.mean_us, m.read.p95_us, m.commits, m.commit_mean_us, m.commit_p95_us
    );
    json.push_str("}\n");

    let out = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_service.json");
    std::fs::write(&out, &json).expect("write BENCH_service.json");
    println!("{json}");
}
