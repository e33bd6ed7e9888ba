//! Undo-log transactions over [`Database`](crate::Database).
//!
//! The paper's semantics surfaces several *run-time* errors — ill-defined
//! object-creating queries (§4.1), non-translatable view updates (§4.2),
//! inheritance conflicts (§6.1) — that an engine can only detect after it
//! has started mutating the store. To make failed statements atomic, every
//! mutating entry point of [`Database`](crate::Database) records an
//! inverse operation ([`UndoOp`]) into the active [`UndoLog`] (when one
//! is open). Rolling back applies the recorded inverses in LIFO order.
//!
//! The API is mark-based rather than nested-handle-based:
//!
//! * [`Database::begin`](crate::Database::begin) opens a log (if none is
//!   open) and returns a [`Savepoint`] marking the current position;
//! * [`Database::savepoint`](crate::Database::savepoint) returns another
//!   mark further along the same log;
//! * [`Database::rollback_to`](crate::Database::rollback_to) undoes
//!   everything recorded after a mark (the log stays open, so an outer
//!   transaction can still roll back further);
//! * [`Database::commit`](crate::Database::commit) discards the log and
//!   stops recording.
//!
//! Two deliberate non-goals:
//!
//! * **OID interning is never undone.** The interner is append-only and
//!   monotone — an interned symbol that no statement refers to is
//!   semantically invisible (it is not an individual, class, or
//!   method-object until registered), so unwinding it would buy nothing
//!   and invalidate `Oid` handles held by callers.
//! * **No persistence here.** The undo log exists for statement
//!   atomicity, not durability; the durable mirror is the redo-op
//!   vocabulary of [`crate::redo`], recorded separately and written to
//!   disk by the `storage` crate.

use crate::oid::Oid;
use crate::schema::Signature;
use crate::value::Val;
use crate::MethodImpl;
use std::sync::Arc;

/// A position in the active [`UndoLog`]. Obtained from
/// [`Database::begin`](crate::Database::begin) /
/// [`Database::savepoint`](crate::Database::savepoint) and consumed by
/// [`Database::rollback_to`](crate::Database::rollback_to).
///
/// A savepoint taken under one `begin` span is dead once that span
/// commits; rolling back to a dead or already-rolled-back mark is an
/// error ([`crate::DbError::StaleSavepoint`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Savepoint(pub(crate) usize);

/// One inverse operation. Each variant stores the pre-image needed to
/// reverse a single primitive mutation; applying a log's suffix in
/// reverse order restores the database to the state at the matching
/// [`Savepoint`].
#[derive(Clone)]
pub(crate) enum UndoOp {
    /// Inverse of `define_class`: remove the (then fresh) class again.
    UndefineClass(Oid),
    /// Inverse of `add_is_a`: remove the (then fresh) edge again.
    RemoveIsA {
        /// Subclass end of the edge.
        sub: Oid,
        /// Superclass end of the edge.
        sup: Oid,
    },
    /// Restore one stored-state entry to its pre-image (`None` =
    /// absent). Covers `set_scalar`, `set_set`, `insert_into_set`,
    /// `remove_value`, and the per-entry part of `purge_object`.
    RestoreState {
        /// The `(receiver, method, args)` key.
        key: (Oid, Oid, Vec<Oid>),
        /// Value before the mutation, if any.
        old: Option<Val>,
    },
    /// Restore membership of `o` in the individuals active domain.
    RestoreIndividual {
        /// The object.
        o: Oid,
        /// Whether it was an individual before the mutation.
        present: bool,
    },
    /// Restore the direct instance-of / extent membership of `(o, class)`.
    RestoreMembership {
        /// The object.
        o: Oid,
        /// The class.
        class: Oid,
        /// Whether the membership held before the mutation.
        present: bool,
    },
    /// Restore membership of `m` in the method-objects catalogue.
    RestoreMethodObject {
        /// The method-object.
        m: Oid,
        /// Whether it was catalogued before the mutation.
        present: bool,
    },
    /// Inverse of `add_signature`'s push: remove the (then fresh)
    /// signature from the class again.
    RemoveSignature {
        /// The declaring class.
        class: Oid,
        /// The signature that was pushed.
        sig: Signature,
    },
    /// Restore a class's inheritance-conflict resolution for `method`
    /// to its pre-image (`None` = no resolution).
    RestoreResolution {
        /// The resolving class.
        class: Oid,
        /// The conflicted method.
        method: Oid,
        /// Previous resolution target, if any.
        old: Option<Oid>,
    },
    /// Restore a computed-method slot to its pre-image (`None` = the
    /// slot did not exist, so the enumeration-order entry is popped too).
    RestoreComputed {
        /// The `(class, method, arity)` slot.
        key: (Oid, Oid, usize),
        /// Previous implementation, if any.
        old: Option<Arc<dyn MethodImpl>>,
    },
}

impl std::fmt::Debug for UndoOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UndoOp::UndefineClass(c) => f.debug_tuple("UndefineClass").field(c).finish(),
            UndoOp::RemoveIsA { sub, sup } => f
                .debug_struct("RemoveIsA")
                .field("sub", sub)
                .field("sup", sup)
                .finish(),
            UndoOp::RestoreState { key, old } => f
                .debug_struct("RestoreState")
                .field("key", key)
                .field("old", old)
                .finish(),
            UndoOp::RestoreIndividual { o, present } => f
                .debug_struct("RestoreIndividual")
                .field("o", o)
                .field("present", present)
                .finish(),
            UndoOp::RestoreMembership { o, class, present } => f
                .debug_struct("RestoreMembership")
                .field("o", o)
                .field("class", class)
                .field("present", present)
                .finish(),
            UndoOp::RestoreMethodObject { m, present } => f
                .debug_struct("RestoreMethodObject")
                .field("m", m)
                .field("present", present)
                .finish(),
            UndoOp::RemoveSignature { class, sig } => f
                .debug_struct("RemoveSignature")
                .field("class", class)
                .field("sig", sig)
                .finish(),
            UndoOp::RestoreResolution { class, method, old } => f
                .debug_struct("RestoreResolution")
                .field("class", class)
                .field("method", method)
                .field("old", old)
                .finish(),
            UndoOp::RestoreComputed { key, old } => f
                .debug_struct("RestoreComputed")
                .field("key", key)
                .field("old", &old.as_ref().map(|_| "<impl>"))
                .finish(),
        }
    }
}

/// The active undo log: inverse operations in mutation order.
/// Held by [`Database`](crate::Database) while a transaction is open.
#[derive(Clone, Debug, Default)]
pub struct UndoLog {
    pub(crate) ops: Vec<UndoOp>,
}

impl UndoLog {
    /// Number of recorded inverse operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True when nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use crate::Database;

    /// Digest of the observable state the paper's semantics can see:
    /// stored entries, class sets, memberships, active domains.
    fn observe(db: &Database) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        for (r, m, a, v) in db.state_entries() {
            writeln!(s, "state {r:?} {m:?} {a:?} {v:?}").unwrap();
        }
        for c in db.classes() {
            writeln!(
                s,
                "class {c:?} supers={:?} inst={:?} sigs={:?}",
                db.direct_supers(c),
                db.instances_of(c),
                db.direct_signatures(c)
            )
            .unwrap();
        }
        writeln!(s, "individuals {:?}", db.individuals().collect::<Vec<_>>()).unwrap();
        writeln!(s, "methods {:?}", db.method_objects().collect::<Vec<_>>()).unwrap();
        s
    }

    #[test]
    fn rollback_reverses_schema_and_state_edits() {
        let mut db = Database::new();
        let person = db.define_class("Person", &[]).unwrap();
        let name = db.oids_mut().sym("Name");
        let p = db.new_individual("p1", &[person]).unwrap();
        let v = db.oids_mut().str("Pat");
        db.set_scalar(p, name, &[], v).unwrap();
        let before = observe(&db);

        let sp = db.begin();
        let emp = db.define_class("Employee", &[person]).unwrap();
        db.add_is_a(emp, db.builtins().object).unwrap();
        let string = db.builtins().string;
        db.add_signature(emp, "Dept", &[], string, false).unwrap();
        let dept = db.oids().find_sym("Dept").unwrap();
        let e = db.new_individual("e1", &[emp]).unwrap();
        let sales = db.oids_mut().str("Sales");
        db.set_scalar(e, dept, &[], sales).unwrap();
        db.insert_into_set(e, name, &[sales], v).unwrap();
        db.set_set(p, dept, &[], [sales, v]).unwrap();
        db.remove_value(p, name, &[]);
        db.remove_instance(p, person);
        db.purge_object(p);
        db.resolve_inheritance(emp, name, person).unwrap();
        assert_ne!(before, observe(&db));

        db.rollback_to(sp).unwrap();
        db.commit();
        assert_eq!(before, observe(&db));
        // The value is really back, through the full lookup path.
        assert_eq!(
            db.value(p, name, &[]).unwrap().and_then(|v| v.as_scalar()),
            Some(v)
        );
    }

    #[test]
    fn savepoints_nest_and_partial_rollback_keeps_outer_work() {
        let mut db = Database::new();
        let txn = db.begin();
        let a = db.define_class("A", &[]).unwrap();
        let sp = db.savepoint();
        let _b = db.define_class("B", &[a]).unwrap();
        assert!(db.oids().find_sym("B").is_some());
        db.rollback_to(sp).unwrap();
        // Inner work gone, outer work kept.
        assert!(db.classes().all(|c| db.render(c) != "B"));
        assert!(db.is_class(a));
        db.rollback_to(txn).unwrap();
        db.commit();
        assert!(!db.is_class(a));
        assert!(!db.in_transaction());
    }

    #[test]
    fn commit_makes_changes_permanent_and_marks_stale() {
        let mut db = Database::new();
        let sp = db.begin();
        let c = db.define_class("Keep", &[]).unwrap();
        db.commit();
        // Rolling back to a stale savepoint is an error and leaves the
        // committed state untouched.
        assert_eq!(db.rollback_to(sp), Err(crate::DbError::StaleSavepoint));
        assert!(db.is_class(c));
    }

    #[test]
    fn value_replacement_restores_old_value_and_index() {
        let mut db = Database::new();
        let c = db.define_class("Thing", &[]).unwrap();
        let o = db.new_individual("o", &[c]).unwrap();
        let m = db.oids_mut().sym("Tag");
        let red = db.oids_mut().str("red");
        let blue = db.oids_mut().str("blue");
        db.set_scalar(o, m, &[], red).unwrap();
        let sp = db.begin();
        db.set_scalar(o, m, &[], blue).unwrap();
        assert!(db.candidates_with_method_value(m, blue).contains(&o));
        db.rollback_to(sp).unwrap();
        db.commit();
        assert!(db.candidates_with_method_value(m, red).contains(&o));
        assert!(!db.candidates_with_method_value(m, blue).contains(&o));
        assert!(db.attr_index_divergence().is_empty());
        assert_eq!(
            db.value(o, m, &[]).unwrap().and_then(|v| v.as_scalar()),
            Some(red)
        );
    }

    #[test]
    fn computed_method_definition_rolls_back() {
        use crate::{DbResult, MethodImpl, Oid, Val};
        use std::sync::Arc;

        struct Answer;
        impl MethodImpl for Answer {
            fn invoke(
                &self,
                db: &Database,
                _recv: Oid,
                _args: &[Oid],
                _depth: usize,
            ) -> DbResult<Option<Val>> {
                let _ = db;
                Ok(None)
            }
        }

        let mut db = Database::new();
        let c = db.define_class("Thing", &[]).unwrap();
        let m = db.oids_mut().sym("Compute");
        let sp = db.begin();
        db.define_method(c, m, 0, Arc::new(Answer)).unwrap();
        assert!(db.has_computed(c, m, 0));
        db.rollback_to(sp).unwrap();
        db.commit();
        assert!(!db.has_computed(c, m, 0));
        assert!(!db.is_method_object(m));
    }
}
