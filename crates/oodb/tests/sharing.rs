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
//! its ordered attribute index must equal a fresh rebuild.

use oodb::{Database, DbSnapshot, Oid, Savepoint};
use proptest::prelude::*;

/// Objects in the base database: enough that their OIDs (plus the
/// literals they store) span several storage shards.
const OBJECTS: usize = 600;

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
    let mut db = Database::new();
    let a = db.define_class("A", &[]).unwrap();
    let b = db.define_class("B", &[a]).unwrap();
    db.define_class("C", &[]).unwrap();
    let numeral = db.builtins().numeral;
    db.add_signature(a, "Age", &[], numeral, false).unwrap();
    db.add_signature(a, "Pals", &[], a, true).unwrap();
    let age = db.oids_mut().sym("Age");
    for i in 0..OBJECTS {
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
    Names {
        classes: ["A", "B", "C"].map(|c| t.find_sym(c).unwrap()).to_vec(),
        objects: (0..OBJECTS)
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
    #![proptest_config(ProptestConfig::with_cases(24))]

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
        }
    }
}
