//! Seeded chaos over the full serving stack: a real TCP server over a
//! real (fault-injecting) store, a WAL-shipped replica on a chaotic
//! ship medium, and a client workload with injected network faults —
//! torn frames, disconnects with a statement in flight, mid-query
//! cancels, an ENOSPC episode — finished off with a simulated
//! power-loss crash of the primary and recovery.
//!
//! Every injection is a pure function of the seed. Invariants held
//! across all seeds:
//!
//! 1. **Acked ⇒ durable**: every write the client saw a `Done` for is
//!    present after crash + recovery; units the server *refused* with
//!    a typed error (shed, read-only, torn frame) are never applied.
//!    A unit whose connection died after the statement was sent is
//!    `Maybe` — recovery lands within the acked..=submitted window.
//! 2. **Replica convergence**: the replica reaches the primary's
//!    durable frontier, its published lag gauge reads 0, and the same
//!    queries render identically on both — over TCP on both ends.
//! 3. **Replica is read-only on the wire**: writes to it get the typed
//!    pre-execution `NotPrimary` redirect.
//!
//! Seed count defaults to 40; override with `NET_CHAOS_SEEDS=<n>`.

use net::{
    Backend, ChaosSource, Client, DirSource, ErrorCode, Frame, NetError, ReplicaConfig,
    ReplicaCore, Server, ServerConfig, ShipSource,
};
use oodb::Database;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use service::{Service, ServiceConfig};
use std::io::Write as _;
use std::net::TcpStream;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;
use storage::fault::{CrashMode, FaultFs};
use storage::manifest::parse_manifest;
use storage::snapshot::decode_snapshot;
use storage::{wal, StoreConfig};
use xsql::{EvalOptions, Session, XsqlError};

const DIR: &str = "/db";
const PROLOGUE: &[&str] = &[
    "CREATE CLASS Counter",
    "ALTER CLASS Counter ADD SIGNATURE Val => Numeral",
    "CREATE OBJECT c0 CLASS Counter SET Val = 0",
    "CREATE OBJECT c1 CLASS Counter SET Val = 0",
];
const QUERIES: &[&str] = &[
    "SELECT X FROM Counter X",
    "SELECT W FROM Numeral W WHERE c0.Val[W]",
    "SELECT W FROM Numeral W WHERE c1.Val[W]",
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

fn primary_last_seq(fs: &FaultFs) -> u64 {
    let mut src = DirSource::new(Box::new(fs.clone()), DIR);
    let Some(mbytes) = src.fetch("manifest").unwrap() else {
        return 0;
    };
    let Ok(manifest) = parse_manifest(&mbytes) else {
        return 0;
    };
    let mut last = src
        .fetch("snapshot.bin")
        .unwrap()
        .and_then(|b| decode_snapshot(&b).ok())
        .map_or(0, |s| s.last_seq);
    for name in &manifest.segments {
        if let Some(bytes) = src.fetch(name).unwrap() {
            for (seq, _) in wal::scan(&bytes).records {
                last = last.max(seq);
            }
        }
    }
    last
}

/// Sorted rendered rows of the fixed query set, fetched over TCP.
fn fingerprint_over_wire(addr: &str) -> Vec<String> {
    let mut c = Client::connect(addr, "").expect("fingerprint connect");
    c.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
    let fp = QUERIES
        .iter()
        .map(|q| {
            let r = c.execute(q).expect("fingerprint query");
            let mut rows: Vec<String> = r.rows.iter().map(|t| t.join(",")).collect();
            rows.sort();
            rows.join(";")
        })
        .collect();
    c.goodbye();
    fp
}

/// The fate of one numbered write unit.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Fate {
    Acked,
    /// Typed refusal or torn frame: definitely not applied.
    Refused,
    /// Connection died with the statement in flight.
    Maybe,
}

fn chaos_round(seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6e37_c4a0_5eed_0001);
    let fs = FaultFs::new();
    {
        let mut s = open(&fs).expect("fresh store");
        for stmt in PROLOGUE {
            s.run(stmt).expect("prologue");
        }
    }
    let mut session = open(&fs).expect("reopen");
    session.set_store_config(StoreConfig {
        probe_min_interval: Duration::ZERO,
        ..StoreConfig::default()
    });
    let svc = Arc::new(Service::start(
        session,
        ServiceConfig {
            retry_after: Duration::from_micros(500),
            jitter_seed: seed,
            ..ServiceConfig::default()
        },
    ));
    let server = Server::start(
        Backend::Primary(Arc::clone(&svc)),
        ServerConfig {
            retry_after: Duration::from_micros(500),
            jitter_seed: seed,
            frame_timeout: Duration::from_millis(80),
            poll_interval: Duration::from_millis(2),
            ..ServerConfig::default()
        },
        "127.0.0.1:0",
    )
    .expect("bind primary");
    let addr = server.local_addr().to_string();

    let mut replica = ReplicaCore::new(
        Box::new(ChaosSource::new(
            DirSource::new(Box::new(fs.clone()), DIR),
            seed,
            0.3,
            0.3,
        )),
        Database::new(),
        ReplicaConfig {
            base_tag: "empty".into(),
            opts: EvalOptions::default(),
        },
    );

    // The seeded workload: numbered units on two counter streams, each
    // with a seeded network fault mode.
    let units: Vec<(usize, i64, u8)> = {
        let n = rng.gen_range(6..=12i64);
        (1..=n)
            .map(|j| {
                let stream = rng.gen_range(0..2usize);
                // 0 = clean, 1 = torn frame, 2 = disconnect in flight,
                // 3 = mid-query cancel of a read first.
                let mode = match rng.gen_range(0..10u8) {
                    0..=5 => 0,
                    6..=7 => 1,
                    8 => 2,
                    _ => 3,
                };
                (stream, j, mode)
            })
            .collect()
    };
    let enospc_at = rng.gen_bool(0.4).then(|| rng.gen_range(0..units.len()));

    let mut fates: Vec<Vec<(i64, Fate)>> = vec![Vec::new(), Vec::new()];
    let names = ["c0", "c1"];
    let mut client: Option<Client> = None;

    for (k, (stream_i, j, mode)) in units.iter().enumerate() {
        if enospc_at == Some(k) {
            fs.set_disk_full(true);
        }
        let stmt = format!("UPDATE CLASS Counter SET {}.Val = {j}", names[*stream_i]);
        match mode {
            1 => {
                // Torn frame: half an Execute, then hang up. The server
                // reaps it; the statement never reaches the writer.
                let mut raw = TcpStream::connect(&addr).expect("torn conn");
                raw.write_all(&net::frame::encode(&Frame::Hello {
                    version: net::PROTO_VERSION,
                    token: String::new(),
                }))
                .expect("hello");
                let exec = net::frame::encode(&Frame::Execute {
                    id: 1,
                    deadline_ms: 0,
                    src: stmt.clone(),
                });
                let cut = rng.gen_range(1..exec.len());
                let _ = raw.write_all(&exec[..cut]);
                drop(raw);
                fates[*stream_i].push((*j, Fate::Refused));
            }
            2 => {
                // Full statement sent, connection dropped before the
                // answer: fate unknown.
                let mut c = Client::connect(&addr, "").expect("inflight conn");
                let _ = c.start_execute(&stmt, 0);
                drop(c);
                fates[*stream_i].push((*j, Fate::Maybe));
                // Give the writer a moment to pick it up (or not);
                // ordering with later units must still hold, so wait
                // until the unit is resolved one way or the other.
                let before = primary_last_seq(&fs);
                for _ in 0..200 {
                    if primary_last_seq(&fs) > before {
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
            _ => {
                if *mode == 3 {
                    // A cancelled read first: must not disturb writes.
                    let mut c = client.take().unwrap_or_else(|| {
                        let mut c = Client::connect(&addr, "").expect("client");
                        c.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
                        c
                    });
                    let id = c.start_execute(QUERIES[0], 0).expect("start read");
                    c.cancel(id).expect("cancel");
                    match c.finish_execute(id) {
                        Ok(_) => {}
                        Err(NetError::Server { code, .. }) => {
                            assert_eq!(code, ErrorCode::Cancelled, "cancel must be typed")
                        }
                        Err(other) => panic!("cancel broke the connection: {other}"),
                    }
                    client = Some(c);
                }
                // Clean write with retries through shed/read-only.
                let mut acked = false;
                for _attempt in 0..10_000 {
                    let mut c = client.take().unwrap_or_else(|| {
                        let mut c = Client::connect(&addr, "").expect("client");
                        c.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
                        c
                    });
                    match c.execute(&stmt) {
                        Ok(r) => {
                            assert!(r.epoch > 0);
                            client = Some(c);
                            acked = true;
                            break;
                        }
                        Err(NetError::Server {
                            code, retry_after, ..
                        }) if code.retryable() => {
                            client = Some(c);
                            if code == ErrorCode::ReadOnly {
                                // The seeded ENOSPC episode: free the
                                // space, then retry.
                                fs.set_disk_full(false);
                            }
                            std::thread::sleep(retry_after.min(Duration::from_millis(2)));
                        }
                        Err(e) => panic!("seed {seed}: clean write failed: {e}"),
                    }
                }
                assert!(acked, "seed {seed}: write shed forever");
                fates[*stream_i].push((*j, Fate::Acked));
            }
        }
        // Interleaved replica sync under ship chaos.
        let _ = replica.step();
    }
    fs.set_disk_full(false);
    if let Some(c) = client.take() {
        c.goodbye();
    }

    // Quiesce the writer (Maybe units resolve), then measure the
    // durable frontier and let the replica converge to it.
    let settle = primary_last_seq(&fs);
    let mut rounds = 0;
    while replica.shared().applied_seq() < settle {
        let _ = replica.step();
        rounds += 1;
        assert!(
            rounds < 5000,
            "seed {seed}: replica stuck at {} of {settle} ({:?})",
            replica.shared().applied_seq(),
            replica.shared().last_error(),
        );
    }
    assert_eq!(
        replica.shared().lag(),
        0,
        "seed {seed}: lag gauge must read 0"
    );

    // Serve the replica over TCP too and compare both ends.
    let replica_server = Server::start(
        Backend::Replica(replica.shared()),
        ServerConfig {
            jitter_seed: seed,
            poll_interval: Duration::from_millis(2),
            ..ServerConfig::default()
        },
        "127.0.0.1:0",
    )
    .expect("bind replica");
    let raddr = replica_server.local_addr().to_string();
    assert_eq!(
        fingerprint_over_wire(&addr),
        fingerprint_over_wire(&raddr),
        "seed {seed}: replica must answer exactly like the primary"
    );
    {
        let mut c = Client::connect(&raddr, "").expect("replica conn");
        c.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
        match c.execute("UPDATE CLASS Counter SET c0.Val = 999") {
            Err(NetError::NotPrimary { .. }) => {}
            other => panic!("seed {seed}: replica accepted a write: {other:?}"),
        }
        let h = c.ping().expect("replica ping");
        assert_eq!(h.lag, 0, "seed {seed}");
        assert_eq!(h.role, net::Role::Replica, "seed {seed}");
        c.goodbye();
    }
    replica_server.shutdown();

    // Power loss on the primary, then recovery: every acked unit
    // survives; each stream's counter lands in the acked..=submitted
    // window.
    server.shutdown();
    drop(svc); // joins the writer (drains + syncs)
    let mode = match seed % 4 {
        0 => CrashMode::TornTail,
        1 => CrashMode::LostFsync,
        2 => CrashMode::BitFlip,
        _ => CrashMode::LostRename,
    };
    fs.crash(mode);
    let mut recovered = open(&fs).expect("recovery after crash");
    for (i, name) in names.iter().enumerate() {
        let last_acked = fates[i]
            .iter()
            .filter(|(_, f)| *f == Fate::Acked)
            .map(|(j, _)| *j)
            .next_back()
            .unwrap_or(0);
        let last_submitted = fates[i]
            .iter()
            .filter(|(_, f)| *f != Fate::Refused)
            .map(|(j, _)| *j)
            .next_back()
            .unwrap_or(0);
        let got = match recovered
            .run(&format!("SELECT W FROM Numeral W WHERE {name}.Val[W]"))
            .expect("recovered read")
        {
            xsql::Outcome::Relation(rel) => {
                let t = rel.iter().next().expect("counter has a value");
                recovered
                    .db()
                    .oids()
                    .render(t[0])
                    .parse::<i64>()
                    .expect("numeral")
            }
            other => panic!("unexpected outcome {other:?}"),
        };
        assert!(
            got >= last_acked && got <= last_submitted.max(last_acked),
            "seed {seed} stream {name}: recovered {got}, acked {last_acked}, \
             submitted {last_submitted} — an acked unit was lost or a refused one applied"
        );
    }
}

#[test]
fn network_chaos_seeds() {
    let seeds: u64 = std::env::var("NET_CHAOS_SEEDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(40);
    for seed in 0..seeds {
        chaos_round(seed);
    }
}
