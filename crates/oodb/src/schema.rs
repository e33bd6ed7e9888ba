//! Classes, the IS-A hierarchy and method signatures.
//!
//! Classes are themselves objects (§2 "Classes"): a class is identified by
//! a symbolic OID and may carry attribute values just like individuals.
//! This module holds the purely schematic part: the IS-A DAG, the declared
//! signatures, and the explicit multiple-inheritance resolutions required
//! by the paper's adoption of Meyer's rule (§6.1).

use crate::database::MethodImpl;
use crate::oid::Oid;
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

/// A method signature `M : A1,…,Ak ~> R` declared in the scope of a class
/// (§2 "Types"). Attributes are 0-ary methods (`args` empty). `set_valued`
/// distinguishes `=>>`-style (double-arrow) from scalar declarations.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Signature {
    /// The method-object naming the method.
    pub method: Oid,
    /// Argument classes `A1,…,Ak` (not counting the receiver).
    pub args: Vec<Oid>,
    /// Result class `R`.
    pub result: Oid,
    /// True for `==>` (set-valued), false for `=>` (scalar).
    pub set_valued: bool,
}

impl Signature {
    /// Arity of the method (number of explicit arguments; the receiver
    /// is the implicit 0th argument, §2 "Types").
    pub fn arity(&self) -> usize {
        self.args.len()
    }
}

/// Per-class schema record.
#[derive(Debug, Clone, Default)]
pub struct ClassInfo {
    /// Direct superclasses (IS-A edges out of this class).
    pub supers: Vec<Oid>,
    /// Direct subclasses (redundant reverse edges, kept for cheap
    /// downward traversal in schema queries like query (4)).
    pub subs: Vec<Oid>,
    /// Signatures declared *directly* in this class. Structural
    /// inheritance (signature closure over superclasses) is computed in
    /// [`crate::Database`], never stored, so schema edits stay sound.
    pub sigs: Vec<Signature>,
    /// Explicit multiple-inheritance resolutions: for method `m`, inherit
    /// the behavior/default of the named superclass (§6.1, \[MEY88\]).
    pub resolutions: HashMap<Oid, Oid>,
}

/// The distinguished classes every database starts with. The paper makes
/// the system catalogue part of the class hierarchy (§2 "Attributes"):
/// `Object` contains all individual objects; `Class` and `Method` classify
/// the meta-objects, so class- and method-variables are ordinary sorted
/// variables ranging over their instances.
#[derive(Debug, Clone, Copy)]
pub struct Builtins {
    /// Root class of all individual objects.
    pub object: Oid,
    /// Metaclass of class-objects (catalogue).
    pub class: Oid,
    /// Metaclass of method-objects (catalogue; attributes included,
    /// since attributes are 0-ary methods).
    pub method: Oid,
    /// Builtin value class of numerals (integers and reals).
    pub numeral: Oid,
    /// Builtin value class of strings.
    pub string: Oid,
    /// Builtin value class of booleans.
    pub boolean: Oid,
    /// The object `nil`.
    pub nil: Oid,
}

/// The rarely edited part of a database: the class hierarchy, the
/// method catalogue and the computed methods. Copies of a
/// [`Database`](crate::Database) share one `Schema` behind an `Arc`; definitional
/// operations unshare it.
#[derive(Clone)]
pub(crate) struct Schema {
    pub(crate) builtins: Builtins,
    pub(crate) classes: HashMap<Oid, ClassInfo>,
    /// Deterministic class enumeration order (definition order).
    pub(crate) class_order: Vec<Oid>,
    /// Reflexive-transitive IS-A closure, recomputed on schema edits.
    pub(crate) ancestors: HashMap<Oid, BTreeSet<Oid>>,
    /// All method-objects (every name that appears in a signature or in
    /// stored state). These are the instances of the catalogue class
    /// `Method`, which method variables range over.
    pub(crate) method_objects: BTreeSet<Oid>,
    /// Computed methods: (defining class, method, arity) -> impl.
    pub(crate) computed: HashMap<(Oid, Oid, usize), Arc<dyn MethodImpl>>,
    /// Deterministic enumeration order of computed-method keys.
    pub(crate) computed_order: Vec<(Oid, Oid, usize)>,
}

impl Schema {
    pub(crate) fn new(builtins: Builtins) -> Schema {
        Schema {
            builtins,
            classes: HashMap::new(),
            class_order: Vec::new(),
            ancestors: HashMap::new(),
            method_objects: BTreeSet::new(),
            computed: HashMap::new(),
            computed_order: Vec::new(),
        }
    }

    pub(crate) fn recompute_closure(&mut self) {
        self.ancestors.clear();
        // Iterative DFS with memoization over the acyclic IS-A graph.
        let order = self.class_order.clone();
        for c in order {
            self.closure_of(c);
        }
    }

    fn closure_of(&mut self, c: Oid) -> BTreeSet<Oid> {
        if let Some(s) = self.ancestors.get(&c) {
            return s.clone();
        }
        let mut acc = BTreeSet::new();
        acc.insert(c);
        let supers = self.classes[&c].supers.clone();
        for s in supers {
            acc.extend(self.closure_of(s));
        }
        self.ancestors.insert(c, acc.clone());
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oid::OidTable;

    #[test]
    fn signature_arity() {
        let mut t = OidTable::new();
        let m = t.sym("workstudy");
        let sem = t.sym("semester");
        let stu = t.sym("student");
        let s = Signature {
            method: m,
            args: vec![sem],
            result: stu,
            set_valued: true,
        };
        assert_eq!(s.arity(), 1);
        assert!(s.set_valued);
    }
}
