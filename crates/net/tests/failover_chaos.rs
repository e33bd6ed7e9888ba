//! Seeded failover chaos: kill (or partition) the primary at an
//! arbitrary point in a write stream, promote a replacement over the
//! shared store directory, and restart the deposed node — asserting
//! the three failover invariants end to end:
//!
//! 1. every acked write survives onto the new timeline,
//! 2. a fenced node never extends the log (segments are byte-identical
//!    after every refused write), and
//! 3. rendered query results converge across the new primary, a
//!    tailing replica, and the restarted old node.
//!
//! A third of the seeds keep the old primary *alive* through the
//! promotion — the network-partition case where fencing, not death, is
//! what prevents split brain. The rest die hard via a simulated crash
//! of varying nastiness (lost final fsync, torn tail).
//!
//! `FAILOVER_CHAOS_SEEDS` widens the sweep (CI runs 200).

use net::{DirSource, ReplicaConfig, ReplicaCore, ShipSource};
use oodb::Database;
use std::collections::BTreeMap;
use std::path::Path;
use storage::fault::{CrashMode, FaultFs};
use storage::manifest::parse_manifest;
use storage::snapshot::decode_snapshot;
use storage::wal;
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

fn seeds() -> u64 {
    std::env::var("FAILOVER_CHAOS_SEEDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(24)
}

/// Deterministic PCG-ish stream: the whole schedule is a pure function
/// of the seed.
struct Lcg(u64);

impl Lcg {
    fn new(seed: u64) -> Self {
        Lcg(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1))
    }
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

fn open_node(fs: &FaultFs) -> Result<Session, XsqlError> {
    Session::open_dir(
        Box::new(fs.clone()),
        Path::new(DIR),
        Database::new(),
        "empty",
        EvalOptions::default(),
    )
}

fn dir_source(fs: &FaultFs) -> DirSource {
    DirSource::new(Box::new(fs.clone()), DIR)
}

fn replica_over(src: DirSource) -> ReplicaCore {
    ReplicaCore::new(
        Box::new(src),
        Database::new(),
        ReplicaConfig {
            base_tag: "empty".into(),
            opts: EvalOptions::default(),
        },
    )
}

/// The durable frontier: max committed unit sequence across the
/// checkpoint image and every live WAL segment.
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

/// Every live log segment by name — the byte-level "did the fenced
/// node write anything" witness.
fn log_image(fs: &FaultFs) -> BTreeMap<String, Vec<u8>> {
    let mut src = dir_source(fs);
    let manifest = parse_manifest(&src.fetch("manifest").unwrap().expect("manifest"))
        .expect("well-formed manifest");
    let mut image = BTreeMap::new();
    for name in &manifest.segments {
        if let Some(bytes) = src.fetch(name).unwrap() {
            image.insert(name.clone(), bytes);
        }
    }
    image
}

/// Rendered query results — the cross-node equality token (OID table
/// positions legitimately differ between nodes; names and values must
/// not).
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

/// The single counter value `obj` currently holds, rendered.
fn counter(session: &mut Session, obj: &str) -> String {
    match session
        .run(&format!("SELECT W FROM Numeral W WHERE {obj}.Val[W]"))
        .expect("counter read")
    {
        Outcome::Relation(rel) => {
            let rows: Vec<String> = rel
                .iter()
                .map(|t| {
                    session
                        .db()
                        .oids()
                        .render(*t.iter().next().expect("one column"))
                })
                .collect();
            assert_eq!(rows.len(), 1, "counter {obj} should hold exactly one value");
            rows.into_iter().next().unwrap()
        }
        other => panic!("expected a relation, got {other:?}"),
    }
}

fn run_seed(seed: u64) {
    let mut rng = Lcg::new(seed);
    let fs = FaultFs::new();
    let mut old = open_node(&fs).expect("primary store");
    for stmt in PROLOGUE {
        old.run(stmt).expect("prologue");
    }

    // A replica tails the shared directory throughout, at a seed-chosen
    // cadence, so promotion lands at an arbitrary replication offset.
    let mut replica = replica_over(dir_source(&fs));
    let writes = 3 + (rng.next() % 6) as i64;
    let mut acked = 0i64;
    for j in 1..=writes {
        old.run(&format!("UPDATE CLASS Counter SET c0.Val = {j}"))
            .expect("write");
        acked = j;
        if rng.next().is_multiple_of(4) {
            old.run("CHECKPOINT").expect("checkpoint");
        }
        if rng.next().is_multiple_of(2) {
            let _ = replica.step();
        }
    }

    // The failure: partition (node survives and must fence) or death
    // (a crash that drops anything not yet durable).
    let partitioned = match seed % 3 {
        0 => Some(old),
        1 => {
            drop(old);
            fs.crash(CrashMode::LostFsync);
            None
        }
        _ => {
            drop(old);
            fs.crash(CrashMode::TornTail);
            None
        }
    };

    // Promote: recovery over the shared directory *is* catch-up to the
    // end of the shipped log; then the fencing term bumps.
    let mut promoted = open_node(&fs).expect("promotion recovery");
    let adopted = promoted.store_generation();
    let generation = promoted.promote_store().expect("generation bump");
    assert_eq!(
        generation,
        adopted + 1,
        "seed {seed}: promotion bumps by one"
    );

    // Invariant 1: every acked write survives onto the new timeline.
    assert_eq!(
        counter(&mut promoted, "c0"),
        acked.to_string(),
        "seed {seed}: an acked write was lost across failover"
    );

    // Invariant 2: the deposed-but-alive node fences instead of forking
    // history — refused writes leave the log byte-identical.
    if let Some(mut old) = partitioned {
        let before = log_image(&fs);
        for _ in 0..1 + rng.next() % 2 {
            let err = old
                .run("UPDATE CLASS Counter SET c0.Val = 999")
                .expect_err("a deposed primary must refuse writes");
            assert!(
                matches!(err, XsqlError::Fenced { .. }),
                "seed {seed}: expected a fencing refusal, got {err}"
            );
        }
        assert!(old.store_fenced(), "seed {seed}: fencing is sticky");
        assert!(
            old.run("CHECKPOINT").is_err(),
            "seed {seed}: a fenced node must not checkpoint either"
        );
        assert_eq!(
            log_image(&fs),
            before,
            "seed {seed}: a fenced node extended the log"
        );
    }

    // The new primary makes progress on its own timeline.
    let post = 1 + (rng.next() % 4) as i64;
    for k in 1..=post {
        promoted
            .run(&format!("UPDATE CLASS Counter SET c1.Val = {k}"))
            .expect("new-timeline write");
        if rng.next().is_multiple_of(4) {
            promoted
                .run("CHECKPOINT")
                .expect("post-promotion checkpoint");
        }
    }

    // Invariant 3a: the tailing replica crosses the promotion (fork
    // detection forces a clean resync if the new timeline rewrote
    // sequences it had applied) and converges.
    let target = primary_last_seq(&fs);
    let mut rounds = 0;
    while replica.shared().applied_seq() < target {
        let _ = replica.step();
        rounds += 1;
        assert!(
            rounds < 1000,
            "seed {seed}: replica never converged (applied {} of {target}, last error {:?})",
            replica.shared().applied_seq(),
            replica.shared().last_error(),
        );
    }
    assert_eq!(replica.shared().lag(), 0, "seed {seed}");
    let fp = fingerprint(&mut promoted);
    assert_eq!(
        fp,
        fingerprint(&mut replica_reader(&replica)),
        "seed {seed}: replica state must equal the new primary's"
    );

    // Invariant 3b: the old node restarts, adopts the new generation
    // from the manifest (it does *not* bump — only promotion does), and
    // reads the same history.
    drop(promoted);
    let mut restarted = open_node(&fs).expect("old node restart");
    assert_eq!(
        restarted.store_generation(),
        generation,
        "seed {seed}: a restart adopts the current term"
    );
    assert_eq!(
        fingerprint(&mut restarted),
        fp,
        "seed {seed}: the restarted node must read the promoted timeline"
    );
}

#[test]
fn killed_primaries_promote_without_losing_acked_writes() {
    for seed in 0..seeds() {
        run_seed(seed);
    }
}

#[test]
fn a_deposed_primary_cannot_promote_itself_back() {
    let fs = FaultFs::new();
    let mut old = open_node(&fs).expect("primary");
    for stmt in PROLOGUE {
        old.run(stmt).expect("prologue");
    }
    let mut new = open_node(&fs).expect("second node");
    new.promote_store().expect("promotion");

    // The deposed node can't write...
    let err = old
        .run("UPDATE CLASS Counter SET c0.Val = 1")
        .expect_err("fenced");
    assert!(matches!(err, XsqlError::Fenced { .. }), "{err}");
    // ...and can't seize the term back either: promotion re-reads the
    // manifest generation first, so a stale node stays deposed instead
    // of starting a term war.
    assert!(
        old.promote_store().is_err(),
        "a fenced node must not re-promote itself"
    );
    assert!(old.store_fenced());
}
