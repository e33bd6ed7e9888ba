//! Structural sharing is invisible: clones of a database behave as if
//! each were a deep copy.
//!
//! A random script of primitive mutations runs over several databases
//! that start as clones of one another (and keep cloning as the script
//! goes), interleaved with savepoints, rollbacks and commits. After
//! every step, every database the step did not touch must export
//! exactly the snapshot it exported before. At the end, each database
//! must export the same snapshot as an unshared rebuild of the base
//! (`import_snapshot(export_snapshot())`) that ran the same script, and
//! its ordered attribute index, direct extents and extent closures must
//! equal fresh rebuilds (checked after every step too).
//!
//! `SHARING_CASES=<n>` runs the property at `n` cases instead of 24.

use oodb::{Database, DbSnapshot, Oid, Savepoint};
use proptest::prelude::*;

/// Objects in the base database: enough that their OIDs (plus the
/// literals they store) span several storage chunks.
const OBJECTS: usize = 600;

/// Property cases: `SHARING_CASES` or 24.
fn cases() -> u32 {
    std::env::var("SHARING_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(24)
}

/// One step of a script: `(kind, target database, operand, operand)`.
type Step = (u8, u8, u16, u16);

/// Names the script refers to, resolved once per database (a rebuild
/// interns the same names at the same positions).
struct Names {
    classes: Vec<Oid>,
    objects: Vec<Oid>,
    age: Oid,
    pals: Oid,
}

fn base() -> Database {
    base_of(OBJECTS)
}

fn base_of(objects: usize) -> Database {
    let mut db = Database::new();
    let a = db.define_class("A", &[]).unwrap();
    let b = db.define_class("B", &[a]).unwrap();
    db.define_class("C", &[]).unwrap();
    let numeral = db.builtins().numeral;
    db.add_signature(a, "Age", &[], numeral, false).unwrap();
    db.add_signature(a, "Pals", &[], a, true).unwrap();
    let age = db.oids_mut().sym("Age");
    for i in 0..objects {
        let o = db
            .new_individual(&format!("o{i}"), &[if i % 3 == 0 { b } else { a }])
            .unwrap();
        let v = db.oids_mut().int((i % 50) as i64);
        db.set_scalar(o, age, &[], v).unwrap();
    }
    db
}

fn names(db: &Database) -> Names {
    let t = db.oids();
    let objects = (0..)
        .take_while(|i| t.find_sym(&format!("o{i}")).is_some())
        .count();
    Names {
        classes: ["A", "B", "C"].map(|c| t.find_sym(c).unwrap()).to_vec(),
        objects: (0..objects)
            .map(|i| t.find_sym(&format!("o{i}")).unwrap())
            .collect(),
        age: t.find_sym("Age").unwrap(),
        pals: t.find_sym("Pals").unwrap(),
    }
}

/// Applies one mutating step to `db`. Errors (an IS-A cycle, a set
/// insert into a scalar, a stale savepoint) are part of the behaviour
/// being compared, so they are ignored identically on every side.
fn apply(db: &mut Database, marks: &mut Vec<Savepoint>, n: &Names, kind: u8, x: u16, y: u16) {
    let o = n.objects[x as usize % OBJECTS];
    let other = n.objects[y as usize % OBJECTS];
    match kind {
        0 => {
            let v = db.oids_mut().int(i64::from(y % 80));
            db.set_scalar(o, n.age, &[], v).unwrap();
        }
        1 => {
            let _ = db.insert_into_set(o, n.pals, &[], other);
        }
        2 => db.remove_value(o, n.age, &[]),
        3 => db.purge_object(o),
        4 => {
            let (sub, sup) = (n.classes[x as usize % 3], n.classes[y as usize % 3]);
            let _ = db.add_is_a(sub, sup);
        }
        5 => {
            // A literal no database has seen yet, under a method that
            // is new to the catalogue the first time.
            let s = db.oids_mut().str(&format!("new{x}_{y}"));
            let tag = db.oids_mut().sym("Tag");
            db.set_scalar(o, tag, &[], s).unwrap();
        }
        6 => db.add_instance(o, n.classes[y as usize % 3]).unwrap(),
        7 => marks.push(db.savepoint()),
        8 => {
            if !marks.is_empty() {
                let sp = marks[y as usize % marks.len()];
                let _ = db.rollback_to(sp);
            }
        }
        _ => {
            db.commit();
            marks.clear();
        }
    }
}

struct Side {
    db: Database,
    marks: Vec<Savepoint>,
    /// The steps this side ran since the base, in order.
    script: Vec<(u8, u16, u16)>,
    export: DbSnapshot,
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    #[test]
    fn clones_are_independent_and_match_a_deep_rebuild(
        steps in proptest::collection::vec((0u8..12, 0u8..4, 0u16..1000, 0u16..1000), 1..40)
    ) {
        let base = base();
        let n = names(&base);
        let export = base.export_snapshot();
        let mut sides = vec![Side {
            db: base.clone(),
            marks: Vec::new(),
            script: Vec::new(),
            export,
        }];
        for &(kind, target, x, y) in &steps as &[Step] {
            let t = target as usize % sides.len();
            if kind >= 10 {
                // Clone the target: the new side shares everything.
                let s = &sides[t];
                sides.push(Side {
                    db: s.db.clone(),
                    marks: s.marks.clone(),
                    script: s.script.clone(),
                    export: s.export.clone(),
                });
                continue;
            }
            let side = &mut sides[t];
            apply(&mut side.db, &mut side.marks, &n, kind, x, y);
            side.script.push((kind, x, y));
            side.export = side.db.export_snapshot();
            let divergence = side.db.extent_closure_divergence();
            prop_assert!(
                divergence.is_empty(),
                "step {:?} on side {}: {:?}",
                (kind, x, y),
                t,
                divergence
            );
            for (j, other) in sides.iter().enumerate() {
                if j != t {
                    prop_assert!(
                        other.db.export_snapshot() == other.export,
                        "step {:?} on side {} changed side {}",
                        (kind, x, y),
                        t,
                        j
                    );
                }
            }
        }
        let base_image = base.export_snapshot();
        for (i, side) in sides.iter().enumerate() {
            let mut deep = Database::import_snapshot(base_image.clone()).unwrap();
            let mut marks = Vec::new();
            for &(kind, x, y) in &side.script {
                apply(&mut deep, &mut marks, &n, kind, x, y);
            }
            prop_assert!(
                deep.export_snapshot() == side.export,
                "side {} differs from its deep rebuild",
                i
            );
            let divergence = side.db.attr_index_divergence();
            prop_assert!(divergence.is_empty(), "side {}: {:?}", i, divergence);
            for db in [&side.db, &deep] {
                let divergence = db.extent_closure_divergence();
                prop_assert!(divergence.is_empty(), "side {}: {:?}", i, divergence);
            }
            for c in side.db.classes() {
                prop_assert!(
                    side.db.instances_of(c).iter().eq(deep.instances_of(c).iter()),
                    "side {}: extent of {:?} differs from its deep rebuild",
                    i,
                    c
                );
            }
        }
    }
}

/// A write after a copy copies a constant handful of storage chunks,
/// whatever the size of the database: the salary-style `set_scalar` of
/// a fresh literal leaves every other chunk of every collection
/// pointer-shared with the copy (exact, no timing).
#[test]
fn one_write_after_a_copy_unshares_a_bounded_number_of_chunks() {
    for objects in [600, 6_000] {
        let mut db = base_of(objects);
        let n = names(&db);
        let copy = db.clone();
        assert_eq!(
            db.chunk_sharing(&copy).1,
            0,
            "a fresh copy shares everything"
        );
        let v = db.oids_mut().int(1_000_000);
        db.set_scalar(n.objects[objects / 2], n.age, &[], v)
            .unwrap();
        let (chunks, unshared) = db.chunk_sharing(&copy);
        // One chunk each of: OID data, OID index, active domain, state,
        // the old value's posting and the new value's posting.
        assert!(
            unshared <= 6,
            "{objects} objects: {unshared} of {chunks} chunks unshared"
        );
        // The copy still reads the old value.
        assert_ne!(
            copy.value(n.objects[objects / 2], n.age, &[]).unwrap(),
            db.value(n.objects[objects / 2], n.age, &[]).unwrap()
        );
    }
}
