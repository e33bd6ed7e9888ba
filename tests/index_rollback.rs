//! Attribute-index consistency under transactions (satellite of the
//! cost-based planner PR).
//!
//! The ordered secondary index (`oodb::attr_index`) is maintained
//! incrementally through every mutating entry point *and* through
//! undo/redo application, so `BEGIN … ROLLBACK WORK`, savepoints and
//! crash recovery must all leave it bit-identical to a fresh rebuild
//! from the stored state — otherwise an index-assisted plan could
//! serve a value a rollback already reverted. These tests pin that
//! invariant three ways:
//!
//! 1. property-based, at the `Database` API level, over random
//!    interleavings of scalar/set mutations with savepoints, partial
//!    rollbacks and commits (`attr_index_divergence` is the oracle);
//! 2. property-based, at the `Session` level, interleaving
//!    `BEGIN`/`UPDATE`/`ROLLBACK WORK`/`COMMIT WORK` with index-backed
//!    planner queries crossed against the naive and no-index engines;
//! 3. end-to-end through crash recovery: a store with committed work, a
//!    checkpoint and a rolled-back transaction is reopened and the
//!    recovered index must match a rebuild exactly.
//!
//! The kept extent closures (what `instances_of` answers from) are held
//! to the same standard: `extent_closure_divergence` runs wherever
//! `attr_index_divergence` does, and a fourth property drives class
//! memberships and IS-A DDL through savepoints, rollbacks, redo replay
//! and snapshot import.

use oodb::{Database, DbBuilder, Oid, Savepoint, ValueKey};
use proptest::prelude::*;
use std::path::Path;
use storage::FaultFs;
use xsql::{EvalOptions, Session, Strategy};

/// A small database whose every attribute participates in the index:
/// a scalar numeral, a scalar string and a set-valued reference.
fn small_db() -> (Database, Vec<Oid>, [Oid; 3], Vec<Oid>) {
    let mut b = DbBuilder::new();
    b.class("Thing");
    let age = b.attr("Thing", "Age", "Numeral");
    let name = b.attr("Thing", "Name", "String");
    let pals = b.set_attr("Thing", "Pals", "Thing");
    let objs: Vec<Oid> = (0..6).map(|i| b.obj(&format!("t{i}"), "Thing")).collect();
    let vals: Vec<Oid> = (0..6).map(|v| b.int(v)).collect();
    (b.build(), objs, [age, name, pals], vals)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random mutation/savepoint/rollback interleavings at the
    /// `Database` level: after *every* operation the live index equals
    /// a fresh rebuild, and equality probes answer exactly what the
    /// rebuild would.
    #[test]
    fn index_matches_rebuild_under_savepoint_interleavings(
        ops in proptest::collection::vec((0u8..7, 0u8..6, 0u8..6), 0..48),
    ) {
        let (mut db, objs, [age, name, pals], vals) = small_db();
        let strs: Vec<Oid> = (0..6)
            .map(|v| db.oids_mut().str(&format!("s{v}")))
            .collect();
        let mut marks: Vec<Savepoint> = Vec::new();
        for &(kind, o, v) in &ops {
            let (recv, val) = (objs[o as usize], v as usize);
            match kind % 7 {
                0 => db.set_scalar(recv, age, &[], vals[val]).unwrap(),
                1 => db.set_scalar(recv, name, &[], strs[val]).unwrap(),
                2 => db.insert_into_set(recv, pals, &[], objs[val]).unwrap(),
                3 => db.remove_value(recv, if val % 2 == 0 { age } else { pals }, &[]),
                4 => marks.push(db.savepoint()),
                5 => {
                    // Stack discipline keeps every popped mark valid:
                    // rolling back only truncates the log beyond it.
                    if let Some(sp) = marks.pop() {
                        db.rollback_to(sp).unwrap();
                    }
                }
                _ => {
                    db.commit();
                    marks.clear(); // outstanding marks are now stale
                }
            }
            let divergence = db.attr_index_divergence();
            prop_assert!(
                divergence.is_empty(),
                "index diverged from rebuild after op {:?}: {:?}",
                (kind % 7, o, v),
                divergence
            );
            let divergence = db.extent_closure_divergence();
            prop_assert!(divergence.is_empty(), "extents after op {:?}: {:?}", (kind % 7, o, v), divergence);
        }
        // Equality probes agree with the rebuild, key by key.
        let rebuilt = db.rebuilt_attr_index();
        for m in [age, name, pals] {
            for &v in vals.iter().chain(strs.iter()).chain(objs.iter()) {
                let key = ValueKey::of(db.oids(), v);
                let live = db.attr_receivers_eq(m, &key);
                let want = rebuilt
                    .get(&m)
                    .and_then(|idx| idx.get(&key))
                    .cloned()
                    .unwrap_or_default();
                prop_assert_eq!(&live, &want, "method {:?} key {:?}", m, key);
            }
        }
    }
}

/// One session database for the planner-facing property: four objects
/// with a numeral attribute the planner can probe.
fn session_db() -> Database {
    let mut b = DbBuilder::new();
    b.class("Item");
    b.attr("Item", "Num", "Numeral");
    for i in 0..4 {
        let o = b.obj(&format!("t{i}"), "Item");
        b.set_int(o, "Num", i);
    }
    b.build()
}

/// Runs `q` under one engine configuration.
fn query_as(s: &mut Session, q: &str, opts: EvalOptions) -> relalg::Relation {
    s.set_options(opts);
    s.query(q).unwrap()
}

fn planner_opts() -> EvalOptions {
    EvalOptions {
        strategy: Strategy::Pipelined,
        use_planner: true,
        use_method_index: true,
        ..EvalOptions::default()
    }
}

fn naive_opts() -> EvalOptions {
    EvalOptions {
        strategy: Strategy::Naive,
        ..EvalOptions::default()
    }
}

fn no_index_opts() -> EvalOptions {
    EvalOptions {
        strategy: Strategy::Pipelined,
        use_planner: true,
        use_method_index: false,
        ..EvalOptions::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Interleaves transactional statements with index-backed queries:
    /// after every statement, (a) the index equals a rebuild, and
    /// (b) for every probe value the planner's answer is bit-identical
    /// to the naive oracle and to the index-less engine — so the index
    /// can never serve a value a rollback reverted.
    #[test]
    fn planner_never_serves_reverted_values(
        ops in proptest::collection::vec((0u8..6, 0u8..4, 0u8..6), 0..24),
    ) {
        let mut s = Session::new(session_db());
        let mut in_txn = false;
        for &(kind, o, v) in &ops {
            match kind % 6 {
                0 if !in_txn => {
                    s.run("BEGIN WORK").unwrap();
                    in_txn = true;
                }
                1 if in_txn => {
                    s.run("ROLLBACK WORK").unwrap();
                    in_txn = false;
                }
                2 if in_txn => {
                    s.run("COMMIT WORK").unwrap();
                    in_txn = false;
                }
                3..=5 => {
                    s.run(&format!("UPDATE CLASS Item SET t{o}.Num = {v}")).unwrap();
                }
                _ => {}
            }
            let divergence = s.db().attr_index_divergence();
            prop_assert!(divergence.is_empty(), "{divergence:?}");
            let divergence = s.db().extent_closure_divergence();
            prop_assert!(divergence.is_empty(), "{divergence:?}");
            for val in 0..6 {
                let q = format!("SELECT X FROM Item X WHERE X.Num = {val}");
                let planned = query_as(&mut s, &q, planner_opts());
                let naive = query_as(&mut s, &q, naive_opts());
                let unindexed = query_as(&mut s, &q, no_index_opts());
                prop_assert_eq!(&planned, &naive, "planner vs naive on {}", &q);
                prop_assert_eq!(&planned, &unindexed, "planner vs no-index on {}", &q);
            }
        }
    }
}

/// `ROLLBACK WORK` through the session surface: a value written inside
/// the transaction is served while the transaction is open and gone —
/// from index-assisted plans included — after the rollback.
#[test]
fn rollback_work_reverts_index_probes() {
    let mut s = Session::new(datagen::figure1_db());
    let q = "SELECT X FROM Person X WHERE X.Age = 77";
    assert!(query_as(&mut s, q, planner_opts()).is_empty());

    s.run("BEGIN WORK").unwrap();
    s.run("UPDATE CLASS Person SET john13.Age = 77").unwrap();
    assert!(s.db().attr_index_divergence().is_empty());
    let mid_planner = query_as(&mut s, q, planner_opts());
    let mid_naive = query_as(&mut s, q, naive_opts());
    assert_eq!(mid_planner.len(), 1, "update visible inside the txn");
    assert_eq!(mid_planner, mid_naive);

    s.run("ROLLBACK WORK").unwrap();
    assert!(s.db().attr_index_divergence().is_empty());
    assert!(s.db().extent_closure_divergence().is_empty());
    assert!(
        query_as(&mut s, q, planner_opts()).is_empty(),
        "index must not serve the reverted Age"
    );
    assert_eq!(
        query_as(&mut s, q, planner_opts()),
        query_as(&mut s, q, naive_opts())
    );
}

/// Crash recovery: a store with committed updates, a checkpoint, more
/// updates and a rolled-back transaction is reopened; the recovered
/// index must equal a rebuild and index-assisted queries must agree
/// with the naive engine on the recovered state.
#[test]
fn recovered_store_has_consistent_attr_index() {
    let fs = FaultFs::new();
    let open = |fs: &FaultFs| -> Session {
        Session::open_dir(
            Box::new(fs.clone()),
            Path::new("/db"),
            Database::new(),
            "empty",
            EvalOptions::default(),
        )
        .unwrap()
    };

    let mut s = open(&fs);
    for stmt in [
        "CREATE CLASS Item",
        "ALTER CLASS Item ADD SIGNATURE Num => Numeral",
        "CREATE OBJECT a CLASS Item SET Num = 1",
        "CREATE OBJECT b CLASS Item SET Num = 2",
        "UPDATE CLASS Item SET a.Num = 5",
        "CHECKPOINT",
        // Past the checkpoint: recovered from the WAL tail.
        "UPDATE CLASS Item SET b.Num = 5",
        "BEGIN WORK",
        "UPDATE CLASS Item SET a.Num = 99",
        "ROLLBACK WORK",
    ] {
        s.run(stmt).unwrap();
    }
    assert!(s.db().attr_index_divergence().is_empty());
    drop(s);

    let mut s = open(&fs);
    let divergence = s.db().attr_index_divergence();
    assert!(divergence.is_empty(), "after recovery: {divergence:?}");
    let divergence = s.db().extent_closure_divergence();
    assert!(divergence.is_empty(), "after recovery: {divergence:?}");
    // The committed updates survived, the rolled-back one did not…
    assert_eq!(
        query_as(
            &mut s,
            "SELECT X FROM Item X WHERE X.Num = 5",
            planner_opts()
        )
        .len(),
        2
    );
    assert!(query_as(
        &mut s,
        "SELECT X FROM Item X WHERE X.Num = 99",
        planner_opts()
    )
    .is_empty());
    // …and the planner agrees with the naive oracle on everything.
    for val in [1, 2, 5, 99] {
        let q = format!("SELECT X FROM Item X WHERE X.Num = {val}");
        assert_eq!(
            query_as(&mut s, &q, planner_opts()),
            query_as(&mut s, &q, naive_opts()),
            "{q}"
        );
    }
}

/// A hierarchy to grow: `Thing` with `Part` under it, and objects in
/// either class.
fn hierarchy_db() -> (Database, Vec<Oid>) {
    let mut b = DbBuilder::new();
    b.class("Thing");
    b.subclass("Part", &["Thing"]);
    b.attr("Thing", "Num", "Numeral");
    let objs: Vec<Oid> = (0..8)
        .map(|i| b.obj(&format!("h{i}"), if i % 2 == 0 { "Thing" } else { "Part" }))
        .collect();
    (b.build(), objs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Class memberships and IS-A DDL (new subclasses, new edges)
    /// interleaved with savepoints, partial rollbacks and commits, with
    /// redo recording on. After every operation the kept extents and
    /// closures equal a rebuild. At the end, replaying the surviving
    /// redo images onto the starting image, and importing the final
    /// image, both reproduce the same database with the same extents.
    #[test]
    fn extents_match_rebuild_under_ddl_rollback_and_redo(
        ops in proptest::collection::vec((0u8..8, 0u8..8, 0u8..16), 0..40),
    ) {
        let (mut db, objs) = hierarchy_db();
        let start = db.export_snapshot();
        db.set_redo_logging(true);
        let mut classes: Vec<Oid> = ["Thing", "Part"]
            .map(|c| db.oids().find_sym(c).unwrap())
            .to_vec();
        // Savepoints with the redo length they were taken at: rolling
        // back drops the redo images of the undone span too.
        let mut marks: Vec<(Savepoint, usize)> = Vec::new();
        for (step, &(kind, o, c)) in ops.iter().enumerate() {
            let (obj, class) = (objs[o as usize], classes[c as usize % classes.len()]);
            match kind {
                // Unknown classes (defined in a rolled-back span) and
                // IS-A cycles are rejected before anything changes.
                0 | 1 => {
                    let _ = db.add_instance(obj, class);
                }
                2 => db.remove_instance(obj, class),
                3 => db.purge_object(obj),
                4 => {
                    if let Ok(k) = db.define_class(&format!("K{step}"), &[class]) {
                        classes.push(k);
                    }
                }
                5 => {
                    let _ = db.add_is_a(class, classes[o as usize % classes.len()]);
                }
                6 => marks.push((db.savepoint(), db.redo_len())),
                _ => match marks.pop() {
                    Some((sp, redo)) if c % 2 == 0 => {
                        db.rollback_to(sp).unwrap();
                        db.truncate_redo(redo);
                    }
                    _ => {
                        db.commit();
                        marks.clear();
                    }
                },
            }
            let divergence = db.extent_closure_divergence();
            prop_assert!(divergence.is_empty(), "after op {:?}: {:?}", (kind, o, c), divergence);
        }
        let image = db.export_snapshot();
        // Redo images name OIDs by position; the durable log carries the
        // interned entries beside them, so the replay starts from the
        // starting image with the final OID table.
        let mut replayed = Database::import_snapshot(oodb::DbSnapshot {
            oids: image.oids.clone(),
            ..start
        })
        .unwrap();
        for op in db.take_redo_from(0) {
            replayed.apply_redo(&op).unwrap();
        }
        let imported = Database::import_snapshot(image.clone()).unwrap();
        for other in [&replayed, &imported] {
            prop_assert!(other.export_snapshot() == image);
            let divergence = other.extent_closure_divergence();
            prop_assert!(divergence.is_empty(), "{:?}", divergence);
            for c in db.classes() {
                prop_assert!(db.instances_of(c).iter().eq(other.instances_of(c).iter()));
            }
        }
    }
}
