//! WAL-shipped replica correctness, stepped by hand for determinism:
//! bootstrap and tail replay, duplicated/stale/torn shipments via the
//! seeded [`ChaosSource`], checkpoint-induced gaps forcing a resync,
//! an ENOSPC episode on the primary, and the replication-lag gauge
//! reaching zero at convergence.
//!
//! Convergence is asserted the only way that is meaningful across
//! processes: the *rendered results of the same queries* are equal
//! (OID table positions legitimately differ between primary and
//! replica; names and values must not).

use net::{
    Backend, ChaosSource, Client, DirSource, NetError, ReplicaConfig, ReplicaCore, Server,
    ServerConfig, ShipSource,
};
use oodb::Database;
use std::path::Path;
use std::time::Duration;
use storage::fault::FaultFs;
use storage::manifest::parse_manifest;
use storage::snapshot::decode_snapshot;
use storage::{wal, StorageFs, StoreConfig};
use xsql::{EvalOptions, Outcome, Session, XsqlError};

const DIR: &str = "/primary";
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

fn open_primary(fs: &FaultFs) -> Result<Session, XsqlError> {
    Session::open_dir(
        Box::new(fs.clone()),
        Path::new(DIR),
        Database::new(),
        "empty",
        EvalOptions::default(),
    )
}

fn replica_over(src: impl ShipSource + 'static) -> ReplicaCore {
    ReplicaCore::new(
        Box::new(src),
        Database::new(),
        ReplicaConfig {
            base_tag: "empty".into(),
            opts: EvalOptions::default(),
        },
    )
}

fn dir_source(fs: &FaultFs) -> DirSource {
    DirSource::new(Box::new(fs.clone()), DIR)
}

/// The primary's durable frontier: max committed unit sequence across
/// the checkpoint image and every live WAL segment.
fn primary_last_seq(fs: &FaultFs) -> u64 {
    let mut src = dir_source(fs);
    let manifest = parse_manifest(&src.fetch("manifest").unwrap().expect("manifest"))
        .expect("well-formed manifest");
    let mut last = src
        .fetch("snapshot.bin")
        .unwrap()
        .map_or(0, |b| decode_snapshot(&b).expect("snapshot").last_seq);
    for name in &manifest.segments {
        if let Some(bytes) = src.fetch(name).unwrap() {
            for (seq, _) in wal::scan(&bytes).records {
                last = last.max(seq);
            }
        }
    }
    last
}

/// Renders the query results a session (primary or a replica reader)
/// produces — the cross-process equality token.
fn fingerprint(session: &mut Session) -> Vec<String> {
    QUERIES
        .iter()
        .map(|q| match session.run(q).expect("read query") {
            Outcome::Relation(rel) => {
                let mut rows: Vec<String> = rel
                    .iter()
                    .map(|t| {
                        t.iter()
                            .map(|o| session.db().oids().render(*o))
                            .collect::<Vec<_>>()
                            .join(",")
                    })
                    .collect();
                rows.sort();
                rows.join(";")
            }
            other => panic!("expected a relation, got {other:?}"),
        })
        .collect()
}

/// A read session over the replica's latest published epoch.
fn replica_reader(core: &ReplicaCore) -> Session {
    let shared = core.shared();
    let ep = shared.epoch();
    Session::with_options((*ep.db).clone(), shared.base_opts().clone())
}

#[test]
fn replica_bootstraps_and_tails_the_primary() {
    let fs = FaultFs::new();
    let mut primary = open_primary(&fs).expect("primary store");
    for stmt in PROLOGUE {
        primary.run(stmt).expect("prologue");
    }

    let mut replica = replica_over(dir_source(&fs));
    let p = replica.step().expect("first sync");
    assert!(p.resynced, "first round bootstraps");
    assert_eq!(replica.shared().applied_seq(), primary_last_seq(&fs));
    assert_eq!(replica.shared().lag(), 0);

    // Tail replay: new primary commits arrive without a re-bootstrap.
    primary
        .run("UPDATE CLASS Counter SET c0.Val = 7")
        .expect("w");
    primary
        .run("UPDATE CLASS Counter SET c1.Val = 9")
        .expect("w");
    let p = replica.step().expect("tail sync");
    assert_eq!(p.applied, 2);
    assert!(!p.resynced);
    assert_eq!(replica.shared().applied_seq(), primary_last_seq(&fs));

    assert_eq!(
        fingerprint(&mut primary),
        fingerprint(&mut replica_reader(&replica))
    );

    // Idempotence: stepping with nothing new applies nothing and the
    // epoch stands still.
    let e = replica.shared().epoch().seq;
    let p = replica.step().expect("no-op sync");
    assert_eq!((p.applied, p.resynced), (0, false));
    assert_eq!(replica.shared().epoch().seq, e);
}

#[test]
fn checkpoint_gap_forces_a_clean_resync() {
    let fs = FaultFs::new();
    let mut primary = open_primary(&fs).expect("primary store");
    for stmt in PROLOGUE {
        primary.run(stmt).expect("prologue");
    }

    let mut replica = replica_over(dir_source(&fs));
    replica.step().expect("bootstrap");
    let applied_before = replica.shared().applied_seq();

    // The primary moves on and checkpoints: covered segments retire,
    // so the units the replica would need next are gone from the log.
    primary
        .run("UPDATE CLASS Counter SET c0.Val = 3")
        .expect("w");
    primary.run("CHECKPOINT").expect("checkpoint");
    primary
        .run("UPDATE CLASS Counter SET c1.Val = 4")
        .expect("w");

    let p = replica.step().expect("sync over the gap");
    assert_eq!(
        replica.shared().applied_seq(),
        primary_last_seq(&fs),
        "replica reaches the frontier (resync path: {p:?}, before: {applied_before})"
    );
    assert_eq!(replica.shared().lag(), 0);
    assert_eq!(
        fingerprint(&mut primary),
        fingerprint(&mut replica_reader(&replica))
    );
}

#[test]
fn checkpoint_with_nothing_after_it_is_not_served_stale() {
    let fs = FaultFs::new();
    let mut primary = open_primary(&fs).expect("primary store");
    for stmt in PROLOGUE {
        primary.run(stmt).expect("prologue");
    }
    let mut replica = replica_over(dir_source(&fs));
    replica.step().expect("bootstrap");

    // The primary's last acts are one write and a checkpoint that folds
    // it into the image; no later record exposes a sequence gap, so the
    // replica can only learn of the write from the changed manifest.
    for (round, value) in [(1, 5), (2, 6)] {
        primary
            .run(&format!("UPDATE CLASS Counter SET c0.Val = {value}"))
            .expect("w");
        primary.run("CHECKPOINT").expect("checkpoint");
        let p = replica.step().expect("sync after the checkpoint");
        assert_eq!(
            replica.shared().applied_seq(),
            primary_last_seq(&fs),
            "checkpoint {round}: replica reaches the frontier ({p:?})"
        );
        assert!(p.resynced, "checkpoint {round}: {p:?}");
        assert_eq!(replica.shared().lag(), 0);
        assert_eq!(
            fingerprint(&mut primary),
            fingerprint(&mut replica_reader(&replica)),
            "checkpoint {round}"
        );
    }
}

/// Ships like [`DirSource`], but tears the next `tears` fetches of
/// `snapshot.bin` in half.
struct TornImage {
    inner: DirSource,
    tears: std::sync::Arc<std::sync::atomic::AtomicU32>,
}

impl ShipSource for TornImage {
    fn fetch(&mut self, name: &str) -> std::io::Result<Option<Vec<u8>>> {
        use std::sync::atomic::Ordering;
        let bytes = self.inner.fetch(name)?;
        let tear = name == "snapshot.bin"
            && self
                .tears
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
                .is_ok();
        Ok(bytes.map(|b| if tear { b[..b.len() / 2].to_vec() } else { b }))
    }
}

#[test]
fn torn_image_after_a_quiet_checkpoint_is_looked_at_again() {
    let fs = FaultFs::new();
    let mut primary = open_primary(&fs).expect("primary store");
    for stmt in PROLOGUE {
        primary.run(stmt).expect("prologue");
    }
    let tears = std::sync::Arc::new(std::sync::atomic::AtomicU32::new(0));
    let mut replica = replica_over(TornImage {
        inner: dir_source(&fs),
        tears: std::sync::Arc::clone(&tears),
    });
    replica.step().expect("bootstrap");
    primary
        .run("UPDATE CLASS Counter SET c0.Val = 5")
        .expect("w");
    primary.run("CHECKPOINT").expect("checkpoint");
    // The round that sees the new manifest gets a torn image and cannot
    // tell whether it is behind; a later round must look again.
    tears.store(1, std::sync::atomic::Ordering::SeqCst);
    replica.step().expect("round with a torn image");
    let p = replica.step().expect("round with a whole image");
    assert!(p.resynced, "{p:?}");
    assert_eq!(replica.shared().applied_seq(), primary_last_seq(&fs));
    assert_eq!(
        fingerprint(&mut primary),
        fingerprint(&mut replica_reader(&replica))
    );
}

#[test]
fn manifest_listing_a_delta_is_refused_without_bootstrapping() {
    let fs = FaultFs::new();
    let mut primary = open_primary(&fs).expect("primary store");
    for stmt in PROLOGUE {
        primary.run(stmt).expect("prologue");
    }
    primary.run("CHECKPOINT").expect("checkpoint");
    let manifest = Path::new(DIR).join("manifest");
    let mut bytes = fs.peek(&manifest).expect("manifest");
    bytes.extend_from_slice(b"delta delta.000009.bin\n");
    fs.write(&manifest, &bytes).expect("rewrite manifest");

    let mut replica = replica_over(dir_source(&fs));
    let err = replica
        .step()
        .expect_err("a delta manifest must not replay");
    assert!(err.contains("delta.000009.bin"), "{err}");
    assert!(err.contains("incremental checkpoint"), "{err}");
    assert_eq!(replica.shared().last_error().as_deref(), Some(&err[..]));
    assert_eq!(replica.shared().applied_seq(), 0, "no bootstrap");
    assert_eq!(replica.shared().epoch().seq, 0, "nothing published");
}

#[test]
fn wrong_base_fixture_is_refused_loudly() {
    let fs = FaultFs::new();
    let mut primary = open_primary(&fs).expect("primary store");
    primary.run(PROLOGUE[0]).expect("one write");

    let mut replica = ReplicaCore::new(
        Box::new(dir_source(&fs)),
        Database::new(),
        ReplicaConfig {
            base_tag: "other-fixture".into(),
            opts: EvalOptions::default(),
        },
    );
    let err = replica.step().expect_err("base mismatch must not replay");
    assert!(err.contains("base"), "{err}");
    assert!(replica.shared().last_error().is_some());
    assert_eq!(replica.shared().applied_seq(), 0);
}

#[test]
fn chaotic_shipping_converges_for_many_seeds() {
    for seed in 0..24u64 {
        let fs = FaultFs::new();
        let mut primary = open_primary(&fs).expect("primary store");
        for stmt in PROLOGUE {
            primary.run(stmt).expect("prologue");
        }
        // Delayed (stale re-serves = duplicated records) and torn
        // shipments, schedule a pure function of the seed.
        let mut replica = replica_over(ChaosSource::new(dir_source(&fs), seed, 0.35, 0.35));

        // Interleave primary progress (with a mid-run checkpoint) and
        // replica sync rounds.
        for j in 1..=6i64 {
            primary
                .run(&format!("UPDATE CLASS Counter SET c0.Val = {j}"))
                .expect("write");
            if j == 3 {
                primary.run("CHECKPOINT").expect("checkpoint");
            }
            let _ = replica.step(); // chaos rounds may legitimately fail
        }
        let target = primary_last_seq(&fs);
        let mut rounds = 0;
        while replica.shared().applied_seq() < target {
            let _ = replica.step();
            rounds += 1;
            assert!(
                rounds < 1000,
                "seed {seed}: no convergence after {rounds} rounds \
                 (applied {} of {target}, last error {:?})",
                replica.shared().applied_seq(),
                replica.shared().last_error(),
            );
        }
        assert_eq!(replica.shared().lag(), 0, "seed {seed}");
        assert_eq!(
            fingerprint(&mut primary),
            fingerprint(&mut replica_reader(&replica)),
            "seed {seed}: replica state must equal primary state"
        );
    }
}

#[test]
fn replica_serves_through_a_primary_enospc_episode() {
    let fs = FaultFs::new();
    let mut primary = open_primary(&fs).expect("primary store");
    primary.set_store_config(StoreConfig {
        probe_min_interval: Duration::ZERO,
        ..StoreConfig::default()
    });
    for stmt in PROLOGUE {
        primary.run(stmt).expect("prologue");
    }
    primary
        .run("UPDATE CLASS Counter SET c0.Val = 1")
        .expect("w");

    let mut replica = replica_over(dir_source(&fs));
    replica.step().expect("bootstrap");
    let fp_before = fingerprint(&mut replica_reader(&replica));

    // Disk fills: primary writes fail; the replica keeps serving its
    // published epoch and sync rounds stay harmless.
    fs.set_disk_full(true);
    assert!(
        primary.run("UPDATE CLASS Counter SET c0.Val = 2").is_err(),
        "primary write must fail under ENOSPC"
    );
    let p = replica.step().expect("sync during ENOSPC");
    assert_eq!(p.applied, 0);
    assert_eq!(fingerprint(&mut replica_reader(&replica)), fp_before);

    // Space frees: the retried write commits and ships.
    fs.set_disk_full(false);
    primary
        .run("UPDATE CLASS Counter SET c0.Val = 2")
        .expect("retried write commits after space frees");
    while replica.shared().applied_seq() < primary_last_seq(&fs) {
        replica.step().expect("catch-up sync");
    }
    assert_eq!(replica.shared().lag(), 0);
    assert_eq!(
        fingerprint(&mut primary),
        fingerprint(&mut replica_reader(&replica))
    );
}

#[test]
fn spawned_replica_tails_in_the_background() {
    let fs = FaultFs::new();
    let mut primary = open_primary(&fs).expect("primary store");
    for stmt in PROLOGUE {
        primary.run(stmt).expect("prologue");
    }
    let replica = replica_over(dir_source(&fs)).spawn(Duration::from_millis(2));
    assert!(
        replica.wait_for_seq(primary_last_seq(&fs), Duration::from_secs(10)),
        "background tailer reaches the frontier"
    );
    primary
        .run("UPDATE CLASS Counter SET c1.Val = 5")
        .expect("w");
    assert!(
        replica.wait_for_seq(primary_last_seq(&fs), Duration::from_secs(10)),
        "background tailer keeps up"
    );
    let core = replica.stop();
    assert_eq!(core.shared().lag(), 0);
    assert_eq!(
        fingerprint(&mut primary),
        fingerprint(&mut replica_reader(&core))
    );
}

/// A replica read whose result holds an OID interned only while
/// evaluating it (the computed numeral `1031` is in no shipped state)
/// renders over the wire, and the connection stays usable afterwards.
#[test]
fn replica_read_interned_oids_render_and_keep_the_connection() {
    let fs = FaultFs::new();
    let mut primary = open_primary(&fs).expect("primary store");
    for stmt in [
        "CREATE CLASS Person",
        "ALTER CLASS Person ADD SIGNATURE Age => Numeral",
        "CREATE OBJECT mary CLASS Person SET Age = 31",
    ] {
        primary.run(stmt).expect("prologue");
    }
    let mut core = replica_over(dir_source(&fs));
    let frontier = primary_last_seq(&fs);
    for _ in 0..100 {
        if core.shared().applied_seq() >= frontier {
            break;
        }
        let _ = core.step();
    }
    assert_eq!(core.shared().applied_seq(), frontier, "replica caught up");
    let server = Server::start(
        Backend::Replica(core.shared()),
        ServerConfig {
            poll_interval: Duration::from_millis(2),
            ..ServerConfig::default()
        },
        "127.0.0.1:0",
    )
    .expect("bind replica");
    let mut c = Client::connect(&server.local_addr().to_string(), "").expect("connect");
    c.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
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
}

/// Steps the replica until it reaches the primary's frontier; true
/// when one of the rounds re-bootstrapped from the checkpoint image.
fn catch_up(core: &mut ReplicaCore, fs: &FaultFs) -> bool {
    let frontier = primary_last_seq(fs);
    let mut resynced = false;
    for _ in 0..100 {
        if core.shared().applied_seq() >= frontier {
            return resynced;
        }
        resynced |= core.step().expect("sync").resynced;
    }
    panic!("replica did not reach seq {frontier}");
}

fn serve_replica(core: &ReplicaCore) -> (Server, Client) {
    let server = Server::start(
        Backend::Replica(core.shared()),
        ServerConfig {
            poll_interval: Duration::from_millis(2),
            ..ServerConfig::default()
        },
        "127.0.0.1:0",
    )
    .expect("bind replica");
    let mut c = Client::connect(&server.local_addr().to_string(), "").expect("connect");
    c.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
    (server, c)
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

/// One name re-PREPAREd on a replica connection with different text
/// across epochs, with primary writes shipped in between and one
/// checkpoint gap that forces the replica to re-bootstrap (a rebuilt
/// OID table): every EXECUTE answers what a cold session over the
/// replica's published state answers, and what the naive engine
/// answers. A write body is redirected before it reaches the reader.
#[test]
fn replica_re_prepared_name_matches_cold_and_naive_sessions_across_a_resync() {
    const BODIES: &[&str] = &[
        "SELECT X FROM Counter X WHERE X.Val > ?1",
        "SELECT X.Val FROM Counter X WHERE X.Val < ?1",
        "SELECT X, Y FROM Counter X, Counter Y WHERE X.Val > Y.Val and Y.Val >= ?1",
    ];
    let fs = FaultFs::new();
    let mut primary = open_primary(&fs).expect("primary store");
    for stmt in PROLOGUE {
        primary.run(stmt).expect("prologue");
    }
    let mut core = replica_over(dir_source(&fs));
    catch_up(&mut core, &fs);
    let (server, mut c) = serve_replica(&core);
    let naive = EvalOptions::naive();
    let mut resyncs = 0;
    for round in 0..6usize {
        let body = BODIES[round % BODIES.len()];
        let r = c.prepare("q", body).expect("prepare");
        assert_eq!(r.info, "prepared `q`\n");
        for step in 0..2 {
            if step == 1 {
                primary
                    .run(&format!(
                        "CREATE OBJECT k{round} CLASS Counter SET Val = {}",
                        3 + 11 * round
                    ))
                    .expect("insert");
                if round == 3 {
                    // Retire the segments the replica still needs.
                    primary.run("CHECKPOINT").expect("checkpoint");
                }
                primary
                    .run(&format!(
                        "UPDATE CLASS Counter SET c0.Val = {}",
                        7 + 5 * round
                    ))
                    .expect("update");
                if catch_up(&mut core, &fs) {
                    resyncs += 1;
                }
            }
            let arg = (4 + 6 * round).to_string();
            let got = c.execute_prepared("q", &[&arg]).expect("execute");
            let mut got_rows = got.rows.clone();
            got_rows.sort();
            let ep = core.shared().epoch();
            assert_eq!(got.epoch, ep.seq);
            let direct = body.replace("?1", &arg);
            let want = cold_rows(&ep.db, &direct, EvalOptions::default());
            assert_eq!(got_rows, want, "round {round} step {step}: `{direct}`");
            assert_eq!(
                cold_rows(&ep.db, &direct, naive.clone()),
                want,
                "round {round} step {step}: naive oracle"
            );
        }
    }
    assert_eq!(resyncs, 1, "the checkpoint gap forces exactly one resync");
    match c.prepare("w", "UPDATE CLASS Counter SET c0.Val = ?1") {
        Err(NetError::NotPrimary { .. }) => {}
        other => panic!("a write body must redirect, got {other:?}"),
    }
    assert_eq!(
        core.shared()
            .registry()
            .counter_total("xsql_plan_cache_stale_executions_total"),
        0
    );
    c.goodbye();
    server.shutdown();
}

/// The value of the exposition sample named exactly `key`.
fn sample(stats: &str, key: &str) -> u64 {
    stats
        .lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(' ')?.parse().ok())
        .unwrap_or_else(|| panic!("no sample `{key}` in:\n{stats}"))
}

/// Replica reads record into the replica's registry: N reads on a
/// connection raise `xsql_stmt_latency_us_count` in its STATS by N.
#[test]
fn replica_reads_reach_the_replica_stats() {
    let fs = FaultFs::new();
    let mut primary = open_primary(&fs).expect("primary store");
    for stmt in PROLOGUE {
        primary.run(stmt).expect("prologue");
    }
    let mut core = replica_over(dir_source(&fs));
    catch_up(&mut core, &fs);
    let (server, mut c) = serve_replica(&core);
    let count = |c: &mut Client| {
        sample(
            &c.execute("STATS").expect("stats").info,
            "xsql_stmt_latency_us_count",
        )
    };
    let before = count(&mut c);
    const READS: u64 = 5;
    for i in 0..READS {
        let q = QUERIES[i as usize % QUERIES.len()];
        c.execute(q).expect("read");
    }
    assert_eq!(count(&mut c) - before, READS);
    c.goodbye();
    server.shutdown();
}
