//! Type expressions, the sub/supertype relation, possession, ranges and
//! the subrange test (§6.1–6.2).

use oodb::{Database, Oid};
use std::collections::BTreeSet;

/// A type expression `A0, A1,…,Ak ~> R` (paper (14)): the receiver class
/// `A0`, the argument classes, the result class and the arrow kind.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TypeExpr {
    /// `A0,…,Ak` — receiver class first (the paper's 0th argument).
    pub args: Vec<Oid>,
    /// Result class `R`.
    pub result: Oid,
    /// True for `==>`.
    pub set_valued: bool,
}

impl TypeExpr {
    /// Receiver class `A0`.
    pub fn receiver(&self) -> Oid {
        self.args[0]
    }

    /// Number of explicit arguments (excluding the receiver).
    pub fn arity(&self) -> usize {
        self.args.len() - 1
    }

    /// `self` is a *supertype* of `other` (paper: (15) is a supertype of
    /// (14) iff each `A'i` is a subclass of `Ai`, `R'` a superclass of
    /// `R`, same arrow — "supertype means superset" of the described
    /// function sets).
    pub fn is_supertype_of(&self, db: &Database, other: &TypeExpr) -> bool {
        self.set_valued == other.set_valued
            && self.args.len() == other.args.len()
            && other
                .args
                .iter()
                .zip(&self.args)
                .all(|(&a, &a2)| db.is_subclass(a2, a))
            && db.is_subclass(other.result, self.result)
    }

    /// Renders for diagnostics, e.g. `(Company, String => Numeral)`.
    pub fn render(&self, db: &Database) -> String {
        let args: Vec<String> = self.args.iter().map(|&c| db.render(c)).collect();
        format!(
            "({} {} {})",
            args.join(", "),
            if self.set_valued { "==>" } else { "=>" },
            db.render(self.result)
        )
    }
}

/// The declared type expressions of a method at an arity: one per
/// signature anywhere in the schema, with the defining class as the
/// receiver. These are the candidates a type assignment draws from
/// (§6.2; structural inheritance means every subclass of the defining
/// class also possesses the type, which the supertype closure captures).
pub fn declared_types(db: &Database, method: Oid, arity: usize) -> Vec<TypeExpr> {
    db.signatures_of_method(method, arity)
        .into_iter()
        .map(|(class, sig)| {
            let mut args = Vec::with_capacity(sig.args.len() + 1);
            args.push(class);
            args.extend(sig.args.iter().copied());
            TypeExpr {
                args,
                result: sig.result,
                set_valued: sig.set_valued,
            }
        })
        .collect()
}

/// `method` *possesses* `te` iff `te` is a supertype of one of its
/// declared type expressions (§6.1: "the set of types possessed by any
/// method is closed under the supertype relationship").
pub fn possesses(db: &Database, method: Oid, te: &TypeExpr) -> bool {
    declared_types(db, method, te.arity())
        .iter()
        .any(|declared| te.is_supertype_of(db, declared))
}

/// A *range* (§6.2): the set of classes a variable's occurrences are
/// constrained to. Every individual variable's range implicitly contains
/// `Object`.
pub type Range = BTreeSet<Oid>;

/// Schema-level subrange test (§6.2): range `r` is a subrange of class
/// `t` if every oid belonging to `r` (an instance of *all* its classes)
/// is necessarily an instance of `t`. The schema-derivable sufficient
/// condition: some class in the range is a subclass of `t`.
pub fn is_subrange(db: &Database, r: &Range, t: Oid) -> bool {
    r.iter().any(|&c| db.is_subclass(c, t))
}

/// Schema-level emptiness test (§6.2: "if A(X) contains both Person and
/// Company, then it is empty"). A range is non-empty iff the schema has
/// a class that is a common subclass of every class in the range (an
/// object of that class — possibly via multiple direct classes, like the
/// `workstudy` example — can inhabit the range).
pub fn is_empty_range(db: &Database, r: &Range) -> bool {
    if r.is_empty() {
        return false;
    }
    !db.classes()
        .any(|c| r.iter().all(|&t| db.is_subclass(c, t)))
}

/// The set of objects inhabiting a range in the current database —
/// the Theorem 6.1.2 instantiation domain.
pub fn range_extent(db: &Database, r: &Range) -> BTreeSet<Oid> {
    let mut classes: Vec<Oid> = r.iter().copied().collect();
    if classes.is_empty() {
        classes.push(db.builtins().object);
    }
    // Walk the smallest extent (its size is a constant-time read) and
    // keep what the other classes contain too.
    classes.sort_by_key(|&c| db.instances_of(c).len());
    db.instances_of(classes[0])
        .iter()
        .filter(|&o| classes[1..].iter().all(|&c| db.is_instance_of(o, c)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use oodb::DbBuilder;

    fn db() -> Database {
        let mut b = DbBuilder::new();
        b.class("Person");
        b.subclass("Employee", &["Person"]);
        b.subclass("Student", &["Person"]);
        b.subclass("Workstudy", &["Employee", "Student"]);
        b.class("Company");
        b.attr("Person", "Name", "String");
        b.method_sig("Employee", "earns", &["Company"], "Numeral", false);
        b.build()
    }

    fn cls(db: &Database, n: &str) -> Oid {
        db.oids().find_sym(n).unwrap()
    }

    #[test]
    fn supertype_contravariant_in_args() {
        let d = db();
        let (p, e, s, n) = (
            cls(&d, "Person"),
            cls(&d, "Employee"),
            cls(&d, "String"),
            cls(&d, "Numeral"),
        );
        let declared = TypeExpr {
            args: vec![p],
            result: s,
            set_valued: false,
        };
        // Narrower receiver, wider result: a supertype.
        let sup = TypeExpr {
            args: vec![e],
            result: d.builtins().object,
            set_valued: false,
        };
        assert!(sup.is_supertype_of(&d, &declared));
        assert!(!declared.is_supertype_of(&d, &sup));
        // Different arrow kind: never comparable.
        let set_sup = TypeExpr {
            args: vec![e],
            result: n,
            set_valued: true,
        };
        assert!(!set_sup.is_supertype_of(&d, &declared));
    }

    #[test]
    fn possession_via_structural_inheritance() {
        let d = db();
        let name = d.oids().find_sym("Name").unwrap();
        let (e, s) = (cls(&d, "Employee"), cls(&d, "String"));
        // Name declared on Person; Employee possesses it (covariance).
        let te = TypeExpr {
            args: vec![e],
            result: s,
            set_valued: false,
        };
        assert!(possesses(&d, name, &te));
        // But not with a narrower result than declared.
        let bad = TypeExpr {
            args: vec![e],
            result: cls(&d, "Numeral"),
            set_valued: false,
        };
        assert!(!possesses(&d, name, &bad));
    }

    #[test]
    fn range_emptiness_matches_paper_example() {
        let d = db();
        let mut r = Range::new();
        r.insert(cls(&d, "Person"));
        r.insert(cls(&d, "Company"));
        assert!(is_empty_range(&d, &r)); // Person+Company: empty
        let mut r2 = Range::new();
        r2.insert(cls(&d, "Employee"));
        r2.insert(cls(&d, "Student"));
        assert!(!is_empty_range(&d, &r2)); // Workstudy inhabits it
    }

    #[test]
    fn subrange_rule() {
        let d = db();
        let mut r = Range::new();
        r.insert(d.builtins().object);
        assert!(!is_subrange(&d, &r, cls(&d, "Company")));
        r.insert(cls(&d, "Employee"));
        assert!(is_subrange(&d, &r, cls(&d, "Person")));
    }

    #[test]
    fn range_extent_intersects() {
        let mut b = DbBuilder::new();
        b.class("A");
        b.class("B");
        b.obj_multi("x", &["A", "B"]);
        b.obj("y", "A");
        let d = b.build();
        let mut r = Range::new();
        r.insert(cls(&d, "A"));
        r.insert(cls(&d, "B"));
        let ext = range_extent(&d, &r);
        assert_eq!(ext.len(), 1);
    }
}
