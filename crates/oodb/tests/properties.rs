//! Property-based invariants of the object-oriented database engine.

use oodb::{Database, DbError, Oid};
use proptest::prelude::*;

/// Applies a sequence of random schema edits, rejecting cyclic IS-A
/// edges, and checks closure invariants afterwards.
fn build_schema(edges: &[(u8, u8)]) -> (Database, Vec<Oid>) {
    let mut db = Database::new();
    let classes: Vec<Oid> = (0..10)
        .map(|i| db.define_class(&format!("C{i}"), &[]).unwrap())
        .collect();
    for &(a, b) in edges {
        let (sub, sup) = (classes[(a % 10) as usize], classes[(b % 10) as usize]);
        // Cycles must be rejected; acyclic edges must succeed.
        let reachable = db.is_subclass(sup, sub);
        match db.add_is_a(sub, sup) {
            Ok(()) => assert!(!reachable || sub == sup),
            Err(DbError::IsACycle { .. }) => assert!(reachable || sub == sup),
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    (db, classes)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// IS-A stays a partial order: reflexive, transitive, antisymmetric.
    #[test]
    fn isa_is_a_partial_order(edges in proptest::collection::vec((0u8..10, 0u8..10), 0..25)) {
        let (db, classes) = build_schema(&edges);
        for &a in &classes {
            prop_assert!(db.is_subclass(a, a));
            prop_assert!(!db.is_strict_subclass(a, a));
            for &b in &classes {
                for &c in &classes {
                    if db.is_subclass(a, b) && db.is_subclass(b, c) {
                        prop_assert!(db.is_subclass(a, c), "transitivity");
                    }
                }
                if db.is_subclass(a, b) && db.is_subclass(b, a) {
                    prop_assert!(a == b, "antisymmetry");
                }
            }
        }
    }

    /// Membership is closed upward: an instance of C belongs to every
    /// superclass of C (§2 "Classes").
    #[test]
    fn membership_closed_under_isa(
        edges in proptest::collection::vec((0u8..10, 0u8..10), 0..25),
        homes in proptest::collection::vec(0u8..10, 1..8),
    ) {
        let (mut db, classes) = build_schema(&edges);
        for (i, &h) in homes.iter().enumerate() {
            let o = db.new_individual(&format!("o{i}"), &[classes[(h % 10) as usize]]).unwrap();
            for &c in &classes {
                let direct = classes[(h % 10) as usize];
                if db.is_subclass(direct, c) {
                    prop_assert!(db.is_instance_of(o, c));
                }
            }
            // And of the root.
            prop_assert!(db.is_instance_of(o, db.builtins().object));
        }
    }

    /// instances_of agrees pointwise with is_instance_of.
    #[test]
    fn extent_agrees_with_membership(
        edges in proptest::collection::vec((0u8..10, 0u8..10), 0..20),
        homes in proptest::collection::vec(0u8..10, 1..8),
    ) {
        let (mut db, classes) = build_schema(&edges);
        let mut all = Vec::new();
        for (i, &h) in homes.iter().enumerate() {
            all.push(db.new_individual(&format!("o{i}"), &[classes[(h % 10) as usize]]).unwrap());
        }
        for &c in &classes {
            let ext = db.instances_of(c);
            for &o in &all {
                prop_assert_eq!(ext.contains(&o), db.is_instance_of(o, c));
            }
        }
    }

    /// Interned literals are stable and value-faithful.
    #[test]
    fn literal_interning_roundtrip(ints in proptest::collection::vec(-1000i64..1000, 0..20),
                                   strs in proptest::collection::vec("[a-z]{0,8}", 0..10)) {
        let mut db = Database::new();
        for &v in &ints {
            let a = db.oids_mut().int(v);
            let b = db.oids_mut().int(v);
            prop_assert_eq!(a, b);
            prop_assert_eq!(db.oids().as_number(a), Some(v as f64));
        }
        for s in &strs {
            let a = db.oids_mut().str(s);
            let b = db.oids_mut().str(s);
            prop_assert_eq!(a, b);
            prop_assert_eq!(db.oids().as_str(a), Some(s.as_str()));
        }
    }

    /// Stored values always read back verbatim; removal makes the
    /// method undefined again.
    #[test]
    fn state_roundtrip(values in proptest::collection::vec((0u8..5, -50i64..50), 0..30)) {
        let mut db = Database::new();
        let c = db.define_class("Thing", &[]).unwrap();
        let objs: Vec<Oid> = (0..5).map(|i| db.new_individual(&format!("t{i}"), &[c]).unwrap()).collect();
        let m = db.oids_mut().sym("V");
        let mut last: std::collections::HashMap<Oid, i64> = Default::default();
        for &(o, v) in &values {
            let obj = objs[(o % 5) as usize];
            let val = db.oids_mut().int(v);
            db.set_scalar(obj, m, &[], val).unwrap();
            last.insert(obj, v);
        }
        for (&obj, &v) in &last {
            let got = db.value(obj, m, &[]).unwrap().unwrap();
            prop_assert_eq!(db.oids().as_number(got.as_scalar().unwrap()), Some(v as f64));
            db.remove_value(obj, m, &[]);
            prop_assert!(db.value(obj, m, &[]).unwrap().is_none());
        }
    }

    /// Default-value inheritance resolves deterministically and only
    /// errors on genuinely ambiguous diamonds.
    #[test]
    fn inheritance_lookup_total_or_conflict(
        edges in proptest::collection::vec((0u8..6, 0u8..6), 0..12),
        defaults in proptest::collection::vec((0u8..6, 0i64..5), 0..6),
    ) {
        let mut db = Database::new();
        let classes: Vec<Oid> = (0..6).map(|i| db.define_class(&format!("K{i}"), &[]).unwrap()).collect();
        for &(a, b) in &edges {
            let (sub, sup) = (classes[(a % 6) as usize], classes[(b % 6) as usize]);
            let _ = db.add_is_a(sub, sup);
        }
        let m = db.oids_mut().sym("D");
        for &(c, v) in &defaults {
            let val = db.oids_mut().int(v);
            db.set_scalar(classes[(c % 6) as usize], m, &[], val).unwrap();
        }
        let o = db.new_individual("obj", &[classes[0]]).unwrap();
        match db.value(o, m, &[]) {
            Ok(Some(v)) => {
                // The value must be one of the declared defaults on an
                // ancestor class.
                let got = db.oids().as_number(v.as_scalar().unwrap()).unwrap() as i64;
                let witnessed = defaults.iter().any(|&(c, dv)| {
                    dv == got && db.is_subclass(classes[0], classes[(c % 6) as usize])
                });
                prop_assert!(witnessed);
            }
            Ok(None) => {
                // No ancestor holds a default.
                let any_ancestor_default = defaults.iter().any(|&(c, _)| {
                    db.is_subclass(classes[0], classes[(c % 6) as usize])
                });
                prop_assert!(!any_ancestor_default);
            }
            Err(DbError::InheritanceConflict { .. }) => {
                // At least two incomparable ancestors with distinct
                // values must exist.
                let holders: Vec<Oid> = defaults
                    .iter()
                    .map(|&(c, _)| classes[(c % 6) as usize])
                    .filter(|&c| db.is_subclass(classes[0], c))
                    .collect();
                prop_assert!(holders.len() >= 2);
            }
            Err(e) => return Err(TestCaseError::fail(format!("unexpected: {e}"))),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The inverted indexes stay consistent with the stored state under
    /// arbitrary interleavings of writes and removals, across several
    /// argument tuples of one method (a value dropped from one tuple
    /// must stay indexed while another tuple of the same receiver and
    /// method still holds it).
    #[test]
    fn method_index_consistent_under_mutation(
        ops in proptest::collection::vec((0u8..4, 0u8..5, 0u8..3, 0u8..3, -5i64..5), 0..40),
    ) {
        let mut db = Database::new();
        let c = db.define_class("Thing", &[]).unwrap();
        let objs: Vec<Oid> = (0..5)
            .map(|i| db.new_individual(&format!("t{i}"), &[c]).unwrap())
            .collect();
        let methods: Vec<Oid> = (0..3)
            .map(|i| db.oids_mut().sym(&format!("m{i}")))
            .collect();
        let arg_tuples: Vec<Vec<Oid>> = vec![
            vec![],
            vec![db.oids_mut().int(1)],
            vec![db.oids_mut().int(2)],
        ];
        for &(kind, o, m, a, v) in &ops {
            let (obj, meth) = (objs[(o % 5) as usize], methods[(m % 3) as usize]);
            let args = &arg_tuples[(a % 3) as usize];
            let val = db.oids_mut().int(v);
            match kind % 4 {
                0 => db.set_scalar(obj, meth, args, val).unwrap(),
                1 => db.set_set(obj, meth, args, [val]).unwrap(),
                2 => {
                    // insert_into_set refuses on scalar entries — accept
                    // either outcome.
                    let _ = db.insert_into_set(obj, meth, args, val);
                }
                _ => db.remove_value(obj, meth, args),
            }
        }
        prop_assert_eq!(db.attr_index_divergence(), Vec::<String>::new());
        // Index agrees with a full scan.
        for &meth in &methods {
            let mut scan_recvs = std::collections::BTreeSet::new();
            let mut scan_pairs = std::collections::BTreeSet::new();
            for (r, m2, _, val) in db.state_entries() {
                if m2 == meth {
                    scan_recvs.insert(r);
                    for member in val.members() {
                        scan_pairs.insert((member, r));
                    }
                }
            }
            let idx_recvs: std::collections::BTreeSet<Oid> =
                db.candidates_with_method(meth).into_iter().collect();
            // candidates_with_method is a superset of the scan (it also
            // adds inherited/computed candidates; none here, so equal).
            prop_assert_eq!(&idx_recvs, &scan_recvs);
            for &(member, r) in &scan_pairs {
                prop_assert!(db.candidates_with_method_value(meth, member).contains(&r));
            }
            // And nothing stale: every indexed (value, receiver) is live.
            for &v in &[-5i64, -1, 0, 1, 4] {
                let val = db.oids_mut().int(v);
                for r in db.candidates_with_method_value(meth, val) {
                    let live = db
                        .stored_entries_for(r, meth)
                        .any(|(_, value)| value.contains(val));
                    prop_assert!(live, "stale index entry");
                }
            }
        }
    }
}
